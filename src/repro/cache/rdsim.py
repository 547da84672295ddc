"""One-pass reuse-distance profiling — whole cache-size ladders at once.

:func:`repro.cache.vecsim.simulate_batch` already shares trace plans and
set-order plans across a grid, but it still pays one classification pass
per ``(num_sets, policy)`` geometry.  This module collapses the *size
axis* entirely: one profiling pass over a ``(trace, line_size)`` stream
produces bit-identical :class:`~repro.cache.stats.CacheStats` for every
power-of-two cache size in a ladder, for direct-mapped caches and all
four write-miss policies ``vecsim`` handles.

The formulation (full equality argument in ``docs/simulator_semantics.md``,
"Reuse-distance profiling"):

1. **Inclusion / hit thresholds.**  Bit-selection direct-mapped caches
   are inclusive across doubling: the segments mapping to a set at
   ``2S`` sets are a subset of those mapping to its image at ``S`` sets,
   and a hit is "the previous same-set segment touched the same line" —
   a property preserved by taking subsets that keep the same-line
   predecessor.  So at fixed line size, hit/miss is monotone in
   ``num_sets``, each segment misses at exactly the ladder levels
   ``0..t-1`` for some threshold ``t`` (Mattson's stack property,
   specialised to direct-mapped set selection), and per-size hit/miss/
   victim counts are histogram prefix sums over ``t``.

2. **Set orders by stable partition.**  Grouping by set at every ladder
   level does not need a full sort per level: the order grouped by the
   low ``k + d`` line bits is a stable radix refinement of the order
   grouped by the low ``k`` bits, so one stable counting sort on the
   next ``d <= 8`` bits (a ``uint8`` key) hops between ladder levels in
   O(n).  Each level's set-grouped order keeps program order within
   groups — all ``vecsim`` invariants — and continuing the partition
   past the ladder's top bit count yields the line-number grouping the
   run analyses need without ever sorting full addresses.  Group blocks
   land in radix-chunk order rather than numeric set order, which no
   counter depends on.

3. **Cache-resident per-level passes.**  Per-level classification works
   on flat per-level arrays (a few hundred KB for typical traces) rather
   than ``(levels, n)`` matrices, so every pass stays L2-resident; the
   per-level set-start / lead-load / run-boundary structures are built
   with ``flatnonzero`` + ``repeat`` (boundary lists are short) instead
   of full-width ``where`` + ``accumulate`` scans, and run boundaries
   (``t > level``) are computed once per level and shared between the
   write-back and write-validate analyses.

4. **Runs in line order.**  A "run" (one cache-line lifetime) at level
   ``j`` is a maximal stretch of a line's segments, in program order,
   unbroken by segments with ``t > j`` — so one line grouping serves
   every level, with runs delimited by per-level thresholds.  Dirty
   masks OR over each run's stores; every run except a set's final
   resident is evicted exactly once, and the final resident is the
   flushed line: write-back totals per level follow from run totals
   minus flushed-run totals.

The profile produces only the primitive counts per level, under vecsim's
names; :func:`vecsim.fill_stats` turns one level's counts into
:class:`~repro.cache.stats.CacheStats`, the same derivation vecsim runs
on its own counts.  Everything is lazy per policy family: a ladder that
only ever asks for fetch-on-write/write-back stats never builds the
write-validate coverage tables or the no-allocate
(write-around/write-invalidate) passes.

Equality contract: :func:`simulate_ladder` returns stats bit-identical
to :func:`vecsim.simulate_batch` for every supported configuration, and
*falls back to vecsim internally* for the few shapes it declines (see
:meth:`SizeLadderProfile.supports_config`), so callers always get
vecsim-identical results for any grid of ``vecsim.supports`` configs.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import vecsim
from repro.cache.config import CacheConfig
from repro.cache.policies import WriteMissPolicy
from repro.cache.stats import CacheStats
from repro.cache.vecsim import _TracePlan, _expand, _shifted
from repro.trace.trace import Trace

#: Write-validate partial-read coverage is solved per byte-*chunk* column
#: (the coarsest granule all segment offsets/sizes are multiples of).
#: Lines with more chunk columns than this are declined — the per-column
#: tables would dwarf the savings — and served by the vecsim fallback.
MAX_COVERAGE_COLUMNS = 32


@dataclass
class ProfileInfo:
    """How a :func:`simulate_ladder` call divided its work."""

    profiled_runs: int = 0  #: configs served from a ladder profile
    profile_passes: int = 0  #: distinct profiling passes (one per line size)
    fallback_runs: int = 0  #: configs served by the vecsim fallback


def _boundary_fill(bounds: np.ndarray, n: int) -> np.ndarray:
    """For each of ``n`` positions, the latest boundary at or before it.

    ``bounds`` must be strictly increasing and start at 0 (our run and
    group boundary lists always contain position 0).
    """
    return np.repeat(bounds, np.diff(np.append(bounds, n)))


class _LineView:
    """The line-number-grouped view of a plan, shared by the write-back
    and write-validate ladders.  ``lorder`` groups segments by line with
    program order inside each group; ``lpos`` maps program-order segment
    indices into it."""

    __slots__ = (
        "lorder",
        "lpos",
        "group_first",
        "t",
        "store",
        "mask",
        "offset",
        "size",
    )

    def __init__(self, plan, lorder: np.ndarray, t: np.ndarray) -> None:
        n = len(lorder)
        self.lorder = lorder
        self.lpos = np.empty(n, dtype=np.int64)
        self.lpos[lorder] = np.arange(n, dtype=np.int64)
        line = plan.line_number[lorder]
        self.group_first = np.empty(n, dtype=bool)
        if n:
            self.group_first[0] = True
            np.not_equal(line[1:], line[:-1], out=self.group_first[1:])
        self.t = t[lorder]
        self.store = plan.store[lorder]
        self.mask = plan.mask[lorder]
        self.offset = plan.offset[lorder]
        self.size = plan.size[lorder]


class _WritebackLadder:
    """Per-level dirty-line accounting for the allocating policies."""

    __slots__ = (
        "writes_to_dirty",
        "victim_dirty_lines",
        "victim_dirty_bytes",
        "flush_dirty_lines",
        "flush_dirty_bytes",
    )

    def __init__(self, profile: "SizeLadderProfile") -> None:
        view = profile._line()
        levels = len(profile.ladder)
        n = len(view.t)
        store_mask = np.where(_expand(view.store, view.mask), view.mask, np.uint64(0))
        self._writes_to_dirty(view, levels)

        self.victim_dirty_lines = np.zeros(levels, dtype=np.int64)
        self.victim_dirty_bytes = np.zeros(levels, dtype=np.int64)
        self.flush_dirty_lines = np.zeros(levels, dtype=np.int64)
        self.flush_dirty_bytes = np.zeros(levels, dtype=np.int64)
        for j in range(levels):
            if profile._dup_level(j):
                self.victim_dirty_lines[j] = self.victim_dirty_lines[j - 1]
                self.victim_dirty_bytes[j] = self.victim_dirty_bytes[j - 1]
                self.flush_dirty_lines[j] = self.flush_dirty_lines[j - 1]
                self.flush_dirty_bytes[j] = self.flush_dirty_bytes[j - 1]
                continue
            # Run boundaries at level j are the segments with t > j (group
            # firsts always qualify: a first touch misses everywhere).
            bounds = profile._run_bounds(view, j)
            if len(bounds) == 0:
                continue
            run_dirty = np.bitwise_or.reduceat(store_mask, bounds, axis=0)
            run_bytes = np.bitwise_count(run_dirty)
            if run_bytes.ndim == 2:
                run_bytes = run_bytes.sum(axis=1)
            nonzero = run_bytes > 0
            # The run holding each set's final segment is the resident
            # flushed at the end; every other run was evicted exactly
            # once (its successor's run start is the victim event).
            final = view.lpos[profile._last_segments(j)]
            final_runs = np.searchsorted(bounds, final, side="right") - 1
            flush_lines = int(np.count_nonzero(nonzero[final_runs]))
            flush_bytes = int(run_bytes[final_runs].sum())
            self.flush_dirty_lines[j] = flush_lines
            self.flush_dirty_bytes[j] = flush_bytes
            self.victim_dirty_lines[j] = int(np.count_nonzero(nonzero)) - flush_lines
            self.victim_dirty_bytes[j] = int(run_bytes.sum()) - flush_bytes

    def _writes_to_dirty(self, view: _LineView, levels: int) -> None:
        # A store lands on an already-dirty line at level j iff it has an
        # earlier store in its line group and the max threshold over
        # (previous store, self] is <= j — no miss broke the run between
        # them and the store itself hits.  A segmented running max
        # (encoded so segment ids dominate) yields that max; segments
        # restart right after each store and at group starts.
        n = len(view.t)
        store = view.store
        seg_start = view.group_first.copy()
        if n:
            seg_start[1:] |= store[:-1]
        scale = levels + 2
        dtype = np.int32 if (n + 1) * scale < 2**31 else np.int64
        seg_base = np.cumsum(seg_start, dtype=dtype) * dtype(scale)
        encoded = seg_base + view.t
        dirty_threshold = np.maximum.accumulate(encoded) - seg_base
        inclusive = np.cumsum(store, dtype=np.int32)
        exclusive = inclusive - store
        group_starts = np.flatnonzero(view.group_first)
        start_exclusive = np.repeat(
            exclusive[group_starts], np.diff(np.append(group_starts, n))
        )
        repeat_store = store & (exclusive > start_exclusive)
        hist = np.bincount(dirty_threshold[repeat_store], minlength=levels + 1)
        self.writes_to_dirty = np.cumsum(hist)[:levels]


class _ValidateLadder:
    """Write-validate coverage tables, granularity-independent parts.

    ``coverage`` maps each line-grouped segment to the latest strictly
    earlier position whose intervening stores fully cover the segment's
    bytes: a load is partially valid at level ``j`` iff its run start
    ``r0`` (an eligible store) is *later* than that coverage horizon.
    Solved per chunk column — every mask is a union of aligned chunks —
    as a latest-covering-store fill (built like the lead-load arrays, by
    repeating each covering store over the gap to the next one), cut off
    at the line-group start, then a min across the columns each segment
    touches.  Coverage is only consumed at loads, and covering positions
    are stores, so the fill is strictly earlier there by construction.
    """

    __slots__ = ("levels", "coverage", "_granularity")

    def __init__(
        self, profile: "SizeLadderProfile", line_size: int, chunk: int
    ) -> None:
        self.levels = len(profile.ladder)
        view = profile._line()
        n = len(view.t)
        columns = line_size // chunk
        dtype = np.int32 if n < 2**31 else np.int64
        end_off = view.offset + view.size
        group_start = _boundary_fill(np.flatnonzero(view.group_first), n)
        group_start = group_start.astype(dtype)
        none = dtype(-1)
        sentinel = np.array([-1], dtype=dtype)
        zero = np.zeros(1, dtype=np.int64)
        endn = np.full(1, n, dtype=np.int64)
        coverage = np.full(n, n, dtype=dtype)
        for column in range(columns):
            byte = column * chunk
            touches = (view.offset <= byte) & (end_off > byte)
            cpos = np.flatnonzero(touches & view.store)
            values = np.concatenate((sentinel, cpos.astype(dtype)))
            lengths = np.diff(np.concatenate((zero, cpos, endn)))
            last_cover = np.repeat(values, lengths)
            valid = np.where(last_cover >= group_start, last_cover, none)
            np.minimum(
                coverage, np.where(touches, valid, dtype(n)), out=coverage
            )
        self.coverage = coverage.astype(np.int64)
        self._granularity: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def tables(self, profile: "SizeLadderProfile", granularity: int):
        """(allocations per level, partial reads per level) at one
        granularity — the only granularity-dependent work.  ``profile`` is
        the one this ladder was built from, passed in rather than kept so
        a dropped profile frees its arrays without the cyclic collector."""
        entry = self._granularity.get(granularity)
        if entry is None:
            view = profile._line()
            levels = self.levels
            n = len(view.t)
            granule = granularity - 1
            eligible = (
                view.store
                & ((view.offset & granule) == 0)
                & ((view.size & granule) == 0)
            )
            hist = np.bincount(view.t[eligible], minlength=levels + 1)
            eligible_hits = np.cumsum(hist)[:levels]
            allocations = int(np.count_nonzero(eligible)) - eligible_hits

            load = ~view.store
            partials = np.zeros(levels, dtype=np.int64)
            for j in range(levels):
                if n == 0:
                    break
                if profile._dup_level(j):
                    partials[j] = partials[j - 1]
                    continue
                # Inclusive run starts; candidates are hits (t <= j), so
                # this matches vecsim's strictly-before boundary there.
                r0 = profile._run_starts(view, j)
                candidate = (
                    load & (view.t <= j) & (r0 > self.coverage) & eligible[r0]
                )
                starts = r0[candidate]
                if starts.size:
                    # r0 is non-decreasing in line order, so distinct run
                    # starts are adjacent transitions.
                    partials[j] = int(np.count_nonzero(starts[1:] != starts[:-1])) + 1
            entry = self._granularity[granularity] = (allocations, partials)
        return entry


class _NoAllocLadder:
    """Write-around and write-invalidate counters, per ladder level.

    Re-runs ``vecsim``'s lead-load formulation level by level on the
    profile's set orders; both policies share the lead-load scan so they
    are computed together on first request.
    """

    __slots__ = (
        "around_write_hits",
        "around_read_hits",
        "around_victims",
        "around_flushed_lines",
        "inval_write_hits",
        "inval_read_hits",
        "inval_victims",
        "inval_invalidations",
        "inval_flushed_lines",
    )

    def __init__(self, plan, profile: "SizeLadderProfile") -> None:
        levels = len(profile.ladder)
        n = len(plan.line_number)
        store = plan.store
        loads = plan.load_segments
        end = np.array([n], dtype=np.int64)
        for name in self.__slots__:
            setattr(self, name, np.zeros(levels, dtype=np.int64))
        pos_t = np.int32 if n < 2**31 else np.int64
        neg = np.full(1, -1, dtype=pos_t)
        zero = np.zeros(1, dtype=np.int64)
        saturated = None
        for j in range(levels):
            if profile._dup_level(j):
                for name in self.__slots__:
                    getattr(self, name)[j] = getattr(self, name)[j - 1]
                continue
            if profile.touched_sets[j] == profile.line_groups:
                if saturated is None:
                    saturated = self._saturated(profile, loads)
                write_hits, read_hits, flushed = saturated
                self.around_write_hits[j] = write_hits
                self.inval_write_hits[j] = write_hits
                self.around_read_hits[j] = read_hits
                self.inval_read_hits[j] = read_hits
                self.around_flushed_lines[j] = flushed
                self.inval_flushed_lines[j] = flushed
                continue
            order = profile._orders[j]
            g_line = profile._glines[j]
            first = profile._firsts[j]
            last = profile._lasts[j]
            g_store = store[order]
            load = ~g_store
            starts = np.flatnonzero(first)
            set_start = np.repeat(
                starts.astype(pos_t), np.diff(np.append(starts, end))
            )
            load_pos = np.flatnonzero(load)
            # lead[i] = latest load position <= i (no per-set reset; the
            # set_start comparison below supplies it) and lead_line[i] =
            # the line that load brought in, built by repeating each
            # load's position / line over the gap to the next load.  The
            # -1 sentinels mean "none": no real position passes the
            # set_start test and no real line number is negative.
            lengths = np.diff(np.concatenate((zero, load_pos, end)))
            lead = np.repeat(
                np.concatenate((neg, load_pos.astype(pos_t))), lengths
            )
            line_neg = np.full(1, -1, dtype=g_line.dtype)
            lead_line = np.repeat(
                np.concatenate((line_neg, g_line[load_pos])), lengths
            )
            has_lead = lead >= set_start
            # At a set's first segment set_start == own position, which no
            # shifted lead can reach, so the comparison rejects firsts
            # itself.
            resident_prev = _shifted(lead, pos_t(-1)) >= set_start
            # Equal line numbers force equal sets at every level, so a
            # line match alone means the lead sits in this very set — no
            # has_lead / resident_prev qualifier needed on the hit tests.
            match = lead_line == g_line
            prev_match = _shifted(lead_line, line_neg[0]) == g_line

            # Write-around: stores never disturb the lead load's line.
            store_hit = g_store & match
            load_resident = load & resident_prev
            load_hit = load & prev_match
            resident_count = int(np.count_nonzero(load_resident))
            read_hits = int(np.count_nonzero(load_hit))
            self.around_write_hits[j] = np.count_nonzero(store_hit)
            self.around_read_hits[j] = read_hits
            self.around_victims[j] = resident_count - read_hits
            # Sets containing at least one load == loads with no earlier
            # load resident in their set (vecsim counts via np.unique).
            self.around_flushed_lines[j] = loads - resident_count

            # Write-invalidate: a mismatching store kills the frame until
            # the next load.  Segments sharing a lead load form the
            # groups, and a group's start is just max(lead, set_start): a
            # lead load opens its own group, a leadless stretch starts
            # with its set.  "No mismatch yet in the group" is then
            # latest-mismatch < group-start, with the latest-mismatch
            # position built the same way as lead.
            mismatch = (g_store & has_lead) ^ store_hit
            mpos = np.flatnonzero(mismatch)
            m_lengths = np.diff(np.concatenate((zero, mpos, end)))
            latest_mismatch = np.repeat(
                np.concatenate((neg, mpos.astype(pos_t))), m_lengths
            )
            group_start = np.maximum(lead, set_start)
            since0 = latest_mismatch < group_start
            since0_prev = _shifted(since0, True)
            self.inval_write_hits[j] = np.count_nonzero(store_hit & since0)
            # A mismatch is the invalidation iff it is its group's first.
            # Group starts are set firsts or lead loads — never stores —
            # so a mismatch never starts a group, its predecessor shares
            # its group, and since0_prev is exactly "no mismatch earlier
            # in the group".
            self.inval_invalidations[j] = np.count_nonzero(mismatch & since0_prev)
            alive_prev = resident_prev & since0_prev
            load_alive = load & alive_prev
            wi_load_hit = load_alive & prev_match
            alive_count = int(np.count_nonzero(load_alive))
            wi_read_hits = int(np.count_nonzero(wi_load_hit))
            self.inval_read_hits[j] = wi_read_hits
            self.inval_victims[j] = alive_count - wi_read_hits
            self.inval_flushed_lines[j] = np.count_nonzero(has_lead & since0 & last)

    @staticmethod
    def _saturated(profile: "SizeLadderProfile", loads: int):
        """Counters for levels whose sets each hold exactly one line.

        With the set partition equal to the line partition, a set's lead
        load always matches, so neither policy sees mismatches,
        invalidations, or cross-line victims, and one lead-load pass in
        line order serves every saturated level.  Flushed lines are the
        line groups containing a load, counted as their first loads.
        """
        view = profile._line()
        n = len(view.t)
        pos_t = np.int32 if n < 2**31 else np.int64
        neg = np.full(1, -1, dtype=pos_t)
        load = ~view.store
        load_pos = np.flatnonzero(load)
        lengths = np.diff(
            np.concatenate(
                (np.zeros(1, dtype=np.int64), load_pos, np.full(1, n, np.int64))
            )
        )
        lead = np.repeat(
            np.concatenate((neg, load_pos.astype(pos_t))), lengths
        )
        group_start = _boundary_fill(np.flatnonzero(view.group_first), n)
        group_start = group_start.astype(pos_t)
        has_lead = lead >= group_start
        has_prev = _shifted(lead, pos_t(-1)) >= group_start
        write_hits = int(np.count_nonzero(view.store & has_lead))
        read_hits = int(np.count_nonzero(load & has_prev))
        return write_hits, read_hits, loads - read_hits


class SizeLadderProfile:
    """Per-size stats for one ``(trace, line_size)`` over a set ladder.

    ``ladder`` is any collection of direct-mapped ``num_sets`` values
    (powers of two, as :class:`CacheConfig` guarantees); it is sorted
    and deduplicated.  :meth:`stats` serves any supported config whose
    ``num_sets`` is on the ladder, bit-identically to vecsim.
    """

    def __init__(self, trace: Trace, line_size: int, ladder) -> None:
        self.line_size = line_size
        self.ladder: Tuple[int, ...] = tuple(sorted(set(int(s) for s in ladder)))
        self._level = {num_sets: j for j, num_sets in enumerate(self.ladder)}
        self.plan = _TracePlan(trace, line_size)
        self._build_levels()
        self._line_view: Optional[_LineView] = None
        self._writeback: Optional[_WritebackLadder] = None
        self._validate = None
        self._noalloc: Optional[_NoAllocLadder] = None
        self._bounds: Dict[int, np.ndarray] = {}
        self._starts: Dict[int, np.ndarray] = {}
        self._finals: Dict[int, np.ndarray] = {}

    # -- eager level pass ---------------------------------------------------

    def _build_levels(self) -> None:
        plan = self.plan
        line = plan.line_number
        count = len(line)
        levels = len(self.ladder)

        # Stable radix partitions: each jump refines the grouping by the
        # low `bits` line bits into `bits + step` via one stable counting
        # sort on a uint8 key, so every level's set-grouped order (program
        # order within groups — all vecsim invariants) costs O(n), and
        # continuing past the ladder's top bit count yields the full
        # line-number grouping with no address-wide sort.
        # Grouped line values are compact int32 when they fit (cheaper
        # elementwise passes); the order stays intp because it is used as
        # an index array, and non-intp fancy indices force a conversion.
        max_bits = int(line.max()).bit_length() if count else 0
        if count and int(line.max()) < 2**31:
            grouped = line.astype(np.int32)
        else:
            grouped = line.astype(np.int64)
        order = np.arange(count, dtype=np.intp)
        bits = 0

        def refine(target: int):
            # Bits above max_bits are all zero, so grouping by them is a
            # no-op; capping keeps ladders above the touched line range
            # (and the final line-order refine) from sorting empty keys.
            nonlocal bits, grouped, order
            target = min(target, max_bits)
            while bits < target:
                step = min(8, target - bits)
                if step == 1:
                    # A one-bit stable counting sort is just a stable
                    # boolean partition — cheaper than argsort.
                    ones = (grouped & (1 << bits)) != 0
                    perm = np.concatenate(
                        (np.flatnonzero(~ones), np.flatnonzero(ones))
                    )
                else:
                    key = ((grouped >> bits) & ((1 << step) - 1)).astype(
                        np.uint8
                    )
                    perm = np.argsort(key, kind="stable")
                order = order[perm]
                grouped = grouped[perm]
                bits += step

        self._orders: List[np.ndarray] = []
        self._glines: List[np.ndarray] = []
        self._firsts: List[np.ndarray] = []
        self._lasts: List[np.ndarray] = []
        self.touched_sets = np.zeros(levels, dtype=np.int64)
        thresholds = np.zeros(count, dtype=np.int16)
        miss_prog = np.empty(count, dtype=bool)
        for j, num_sets in enumerate(self.ladder):
            refine(num_sets.bit_length() - 1)
            first = np.empty(count, dtype=bool)
            hit = np.empty(count, dtype=bool)
            last = np.empty(count, dtype=bool)
            if count:
                diff = grouped[1:] ^ grouped[:-1]
                first[0] = True
                np.not_equal(diff & (num_sets - 1), 0, out=first[1:])
                hit[0] = False
                np.equal(diff, 0, out=hit[1:])
                last[-1] = True
                last[:-1] = first[1:]
            self._orders.append(order)
            self._glines.append(grouped)
            self._firsts.append(first)
            self._lasts.append(last)
            self.touched_sets[j] = np.count_nonzero(first)
            miss_prog[order] = ~hit
            np.add(thresholds, miss_prog, out=thresholds, casting="unsafe")
        refine(int(grouped.max()).bit_length() if count else 0)
        self._line_order = order
        self.thresholds = thresholds
        # Distinct lines, for spotting saturated levels (set partition ==
        # line partition): grouped is fully refined here, so the groups
        # are exactly the lines.
        if count:
            self.line_groups = 1 + int(
                np.count_nonzero(grouped[1:] != grouped[:-1])
            )
        else:
            self.line_groups = 0

        store = plan.store
        load_hist = np.bincount(thresholds[~store], minlength=levels + 1)
        store_hist = np.bincount(thresholds[store], minlength=levels + 1)
        self.load_hits = np.cumsum(load_hist)[:levels]
        self.store_hits = np.cumsum(store_hist)[:levels]

    # -- lazy families ------------------------------------------------------

    def _dup_level(self, j: int) -> bool:
        """True when level ``j``'s set partition equals level ``j - 1``'s.

        Doubling the set count refines the partition, so an unchanged
        group count means no group split — the partitions are identical
        (groups land in a different radix order, but every counter is a
        sum of per-set quantities, so the per-level results are equal and
        the ladders copy the previous level instead of recomputing).
        """
        return j > 0 and self.touched_sets[j] == self.touched_sets[j - 1]

    def _line(self) -> _LineView:
        if self._line_view is None:
            self._line_view = _LineView(
                self.plan, self._line_order, self.thresholds
            )
        return self._line_view

    def _run_bounds(self, view: _LineView, j: int) -> np.ndarray:
        """Run boundary positions (t > j) in line order, memoised —
        shared by the write-back and write-validate ladders."""
        bounds = self._bounds.get(j)
        if bounds is None:
            bounds = self._bounds[j] = np.flatnonzero(view.t > j)
        return bounds

    def _run_starts(self, view: _LineView, j: int) -> np.ndarray:
        """Each line-order position's run start at level ``j`` (the
        position itself for runs' first segments)."""
        starts = self._starts.get(j)
        if starts is None:
            starts = self._starts[j] = _boundary_fill(
                self._run_bounds(view, j), len(view.t)
            )
        return starts

    def _last_segments(self, j: int) -> np.ndarray:
        """Program-order indices of each set's final segment at level j."""
        finals = self._finals.get(j)
        if finals is None:
            finals = self._finals[j] = self._orders[j][
                np.flatnonzero(self._lasts[j])
            ]
        return finals

    def _writeback_ladder(self) -> _WritebackLadder:
        if self._writeback is None:
            self._writeback = _WritebackLadder(self)
        return self._writeback

    def _validate_ladder(self) -> Optional[_ValidateLadder]:
        if self._validate is None:
            chunk = self._coverage_chunk()
            if chunk is None or self.line_size // chunk > MAX_COVERAGE_COLUMNS:
                self._validate = False  # declined; remembered
            else:
                self._validate = _ValidateLadder(self, self.line_size, chunk)
        return self._validate or None

    def _coverage_chunk(self) -> Optional[int]:
        """The coarsest power-of-two granule dividing every segment's
        offset and size — all byte masks are unions of such chunks."""
        plan = self.plan
        if len(plan.offset) == 0:
            return self.line_size
        combined = int(np.bitwise_or.reduce(plan.offset | plan.size))
        if combined == 0:
            return self.line_size
        return min(combined & -combined, self.line_size)

    def _noalloc_ladder(self) -> _NoAllocLadder:
        if self._noalloc is None:
            self._noalloc = _NoAllocLadder(self.plan, self)
        return self._noalloc

    # -- serving configs ----------------------------------------------------

    def supports_config(self, config: CacheConfig) -> bool:
        """Whether :meth:`stats` serves this config bit-identically."""
        if not vecsim.supports(config) or config.num_sets not in self._level:
            return False
        if config.write_miss is WriteMissPolicy.WRITE_VALIDATE:
            return self._validate_ladder() is not None
        return True

    def stats(self, config: CacheConfig, flush: bool) -> CacheStats:
        """vecsim-identical stats for one on-ladder configuration."""
        assert self.supports_config(config)
        counts = _LevelCounts(self, self._level[config.num_sets])
        return vecsim.fill_stats(counts, self.plan, config, flush)


def _at_level(ladder, level: int, prefix: str = "", **extra) -> SimpleNamespace:
    """One level of a ladder's per-level arrays as plain ints, under
    their names with ``prefix`` stripped."""
    values = {
        name[len(prefix):]: int(getattr(ladder, name)[level])
        for name in ladder.__slots__
        if name.startswith(prefix)
    }
    return SimpleNamespace(**values, **extra)


class _LevelCounts:
    """One ladder level's primitive counts, in the shape
    :func:`vecsim.fill_stats` reads (the accessors of vecsim's
    ``_SegmentStream``); each builds its ladder family on first use."""

    __slots__ = ("profile", "level", "nonempty_sets")

    def __init__(self, profile: SizeLadderProfile, level: int) -> None:
        self.profile = profile
        self.level = level
        self.nonempty_sets = int(profile.touched_sets[level])

    def alloc_state(self) -> SimpleNamespace:
        plan = self.profile.plan
        load_tag_hits = int(self.profile.load_hits[self.level])
        write_hits = int(self.profile.store_hits[self.level])
        read_misses = plan.load_segments - load_tag_hits
        write_misses = plan.store_segments - write_hits
        return SimpleNamespace(
            load_tag_hits=load_tag_hits,
            read_misses=read_misses,
            write_hits=write_hits,
            write_misses=write_misses,
            # Every miss but each touched set's first one evicts a line.
            victims=read_misses + write_misses - self.nonempty_sets,
        )

    def validate_state(self, granularity: int) -> SimpleNamespace:
        allocations, partials = self.profile._validate_ladder().tables(
            self.profile, granularity
        )
        return SimpleNamespace(
            allocations=int(allocations[self.level]),
            partial_reads=int(partials[self.level]),
        )

    def writeback_state(self) -> SimpleNamespace:
        return _at_level(self.profile._writeback_ladder(), self.level)

    def around_state(self) -> SimpleNamespace:
        return _at_level(
            self.profile._noalloc_ladder(), self.level, "around_", invalidations=0
        )

    def invalidate_state(self) -> SimpleNamespace:
        return _at_level(self.profile._noalloc_ladder(), self.level, "inval_")


def simulate_ladder_info(
    trace: Trace, configs: Sequence[CacheConfig], flush: bool = True
) -> Tuple[List[CacheStats], ProfileInfo]:
    """Like :func:`simulate_ladder`, also reporting the work division."""
    configs = list(configs)
    for config in configs:
        assert vecsim.supports(config), "caller must check vecsim.supports(config)"
    info = ProfileInfo()
    if len(trace) == 0:
        return [vecsim._empty_stats(trace, config) for config in configs], info
    results: List[Optional[CacheStats]] = [None] * len(configs)
    fallback: List[int] = []
    for line_size, indices in vecsim.geometry_order(configs):
        profile = SizeLadderProfile(
            trace, line_size, (configs[i].num_sets for i in indices)
        )
        served = 0
        for index in indices:
            if profile.supports_config(configs[index]):
                results[index] = profile.stats(configs[index], flush)
                served += 1
            else:
                fallback.append(index)
        if served:
            info.profiled_runs += served
            info.profile_passes += 1
        # Free this line size's profile before the next one (or the
        # vecsim fallback) builds its own plan.
        del profile
    if fallback:
        for index, stats in zip(
            fallback,
            vecsim.simulate_batch(
                trace, [configs[i] for i in fallback], flush=flush
            ),
        ):
            results[index] = stats
        info.fallback_runs = len(fallback)
    return results, info


def simulate_ladder(
    trace: Trace, configs: Sequence[CacheConfig], flush: bool = True
) -> List[CacheStats]:
    """Simulate a grid by collapsing its size axis through ladder profiles.

    One profiling pass per distinct line size serves every config at that
    line size whose shape the profiler accepts; the rest go through
    :func:`vecsim.simulate_batch`.  Results are in input order and
    bit-identical to vecsim / the scalar engines for every config.
    """
    results, _ = simulate_ladder_info(trace, configs, flush=flush)
    return results
