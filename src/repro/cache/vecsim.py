"""Vectorised direct-mapped, stats-only simulation — single runs and batches.

Replaces the reference :class:`repro.cache.cache.Cache`'s per-reference
walk with whole-trace numpy array passes.  The formulation (see
``docs/simulator_semantics.md``, "Vectorized kernel"):

1. **Segment expansion** — references wider than a line are split into
   per-line segments vectorised (``np.repeat`` + within-group offsets),
   and line-number/byte-``mask`` arrays are computed for the whole stream
   at once.  Byte masks pack into one ``uint64`` lane per segment for
   lines up to 64 B (the paper sweeps 4-64 B); wider lines use multiple
   lanes, shape ``(segments, lanes)``.

2. **Previous-reference link** — a stable sort by set index groups each
   set's segments contiguously while preserving program order inside the
   group, so "the previous reference to this set" is simply the previous
   element.  For the allocating policies (fetch-on-write,
   write-validate) every segment installs its own tag, so the resident
   tag seen by segment *i* is exactly the tag of segment *i-1* in the
   group: hit/miss classification, victim counts and write-through
   traffic become pure array expressions.

3. **Segmented mask scans** — valid/dirty byte masks evolve by bitwise
   OR within maximal same-(set, tag) runs, so dirty-victim byte counts,
   writes-to-already-dirty and write-validate partial-read detection are
   segmented OR-scans (Hillis-Steele doubling, ``O(n log n)`` array
   ops).  The no-allocate policies (write-around, write-invalidate)
   instead key their scans on the *last preceding load* (the only event
   that installs a line), which a running maximum provides.

The work above factors cleanly along the configuration axes, which is
what :func:`simulate_batch` exploits to run one trace against a whole
grid of configurations:

- a :class:`_TracePlan` depends only on ``(trace, line_size)`` — every
  cache size and policy at one line size shares one segment expansion
  and one set of byte masks;
- a :class:`_SegmentStream` (the set-order plan) depends only on
  ``(line_size, num_sets)`` — the stable sort permutation, group
  boundaries and tags are shared by all six write-policy combinations at
  one geometry;
- only the cheap per-config array expressions (hit classification,
  victim/dirty scans, traffic reductions) run once per configuration.

A plan lives for the call that builds it: :func:`simulate_batch` builds
one per line size of its grid and drops them all on return, so nothing
trace-length outlives the call.  A plan keeps only its latest set-order
stream, so :func:`simulate_batch` visits each line size's configs
geometry by geometry and holds one stream at a time.  A caller that
shares a plan across several of its own calls (the hierarchy kernel's
level 0) builds it and passes it in.

Results are bit-identical to :class:`repro.cache.cache.Cache` — the
differential suites in
``tests/cache/test_vecsim.py`` and ``tests/cache/test_vecsim_batch.py``
enforce this stat-for-stat across every policy combination, and
per-stat equality between :func:`simulate_batch` and per-run
:func:`simulate_direct_mapped`.  Configurations outside :func:`supports`
(set-associative, data-carrying, sectored) take the existing engines
instead.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.policies import WriteMissPolicy
from repro.cache.stats import CacheStats
from repro.trace.events import WRITE
from repro.trace.trace import Trace

#: Bytes covered by one uint64 byte-mask lane.  Lines up to this wide use
#: the flat single-lane fast path; wider lines pack ``line_size // 64``
#: lanes per segment.
LANE_BYTES = 64

#: ``_SIZE_MASKS[k]`` = mask of the low ``k`` bytes, as a uint64 lane.
_SIZE_MASKS = np.array(
    [(1 << size) - 1 for size in range(LANE_BYTES + 1)], dtype=np.uint64
)


def supports(config: CacheConfig) -> bool:
    """Whether this kernel can simulate ``config`` bit-identically."""
    return (
        config.is_direct_mapped
        and not config.store_data
        and not config.subblock_fetch
    )


def simulate_direct_mapped(
    trace: Trace,
    config: CacheConfig,
    flush: bool,
    plan: Optional["_TracePlan"] = None,
) -> CacheStats:
    """Run ``trace`` through a direct-mapped stats-only cache, vectorised.

    The caller (:func:`repro.cache.fastsim.simulate_trace`) guarantees
    :func:`supports`; this function assumes it.  The plan is built fresh
    and dropped on return unless the caller passes ``plan`` — the
    ``(trace, config.line_size)`` plan it shares across its own calls
    (the hierarchy kernel does, so a grid of systems over one trace pays
    the trace-side passes once per line size).
    """
    assert supports(config), "caller must check vecsim.supports(config)"
    if len(trace) == 0:
        return _empty_stats(trace, config)
    if plan is None:
        plan = _TracePlan(trace, config.line_size)
    return _simulate_on_plan(plan, plan.stream(config.num_sets), config, flush)


def simulate_with_outcomes(
    trace: Trace,
    config: CacheConfig,
    flush: bool,
    plan: Optional["_TracePlan"] = None,
) -> Tuple[CacheStats, "BoundaryOutcomes"]:
    """:func:`simulate_direct_mapped` plus the run's downstream events.

    Returns ``(stats, outcomes)`` where ``outcomes`` names, per
    program-order segment, exactly which backend transactions the
    reference :class:`~repro.cache.cache.Cache` would have emitted for
    that segment — dirty-victim write-backs (with the victim's line
    address and dirty byte mask), demand line fetches and write-throughs
    — plus the end-of-run flush write-backs in set-index order.  The
    hierarchy kernel (:mod:`repro.hierarchy.hiersim`) materializes these
    into the next level's reference stream.  ``plan`` is as in
    :func:`simulate_direct_mapped`.
    """
    assert supports(config), "caller must check vecsim.supports(config)"
    if len(trace) == 0:
        return _empty_stats(trace, config), BoundaryOutcomes.empty(config.line_size)
    if plan is None:
        plan = _TracePlan(trace, config.line_size)
    stream = plan.stream(config.num_sets)
    stats = _simulate_on_plan(plan, stream, config, flush)
    return stats, _derive_outcomes(plan, stream, config, flush)


def simulate_batch(
    trace: Trace, configs: Sequence[CacheConfig], flush: bool = True
) -> List[CacheStats]:
    """Simulate one trace against a whole grid of configurations.

    Returns one :class:`CacheStats` per config, in input order, each
    bit-identical to what :func:`simulate_direct_mapped` produces for
    that ``(trace, config, flush)`` alone.  Configurations are grouped
    internally so that every config at one line size shares one trace
    plan and every config at one ``(line_size, num_sets)`` geometry
    shares one set-order plan; only the per-policy classification runs
    per config.  Each line size's plan, and each geometry's set-order
    plan, is freed before the next one is built, and none outlives the
    call.
    """
    configs = list(configs)
    for config in configs:
        assert supports(config), "caller must check vecsim.supports(config)"
    if len(trace) == 0:
        return [_empty_stats(trace, config) for config in configs]
    results: List[Optional[CacheStats]] = [None] * len(configs)
    by_line_size = {}
    for index, config in enumerate(configs):
        by_line_size.setdefault(config.line_size, []).append(index)
    for line_size, indices in by_line_size.items():
        plan = _TracePlan(trace, line_size)
        # Geometry by geometry: the plan keeps one set-order stream, which
        # every config of that geometry shares before the next replaces it.
        indices.sort(key=lambda index: configs[index].num_sets)
        for index in indices:
            config = configs[index]
            results[index] = _simulate_on_plan(
                plan, plan.stream(config.num_sets), config, flush
            )
        del plan
    return results


def _empty_stats(trace: Trace, config: CacheConfig) -> CacheStats:
    stats = CacheStats(line_size=config.line_size)
    stats.instructions = trace.instruction_count
    return stats


def _simulate_on_plan(
    plan: "_TracePlan", stream: "_SegmentStream", config: CacheConfig, flush: bool
) -> CacheStats:
    """The per-config work: classification plus the shared counter tail."""
    stats = CacheStats(line_size=config.line_size)
    stats.instructions = plan.instructions
    miss_policy = config.write_miss
    if miss_policy in (WriteMissPolicy.FETCH_ON_WRITE, WriteMissPolicy.WRITE_VALIDATE):
        _classify_allocating(stream, config, flush, stats)
    elif miss_policy is WriteMissPolicy.WRITE_AROUND:
        _classify_write_around(stream, config, flush, stats)
    else:  # write-invalidate
        _classify_write_invalidate(stream, config, flush, stats)

    stats.writes = plan.writes
    stats.reads = plan.reads
    stats.read_line_accesses = plan.load_segments
    stats.write_line_accesses = plan.store_segments
    stats.fetches = (
        stats.fetches_for_reads
        + stats.fetches_for_partial_reads
        + stats.fetches_for_writes
    )
    stats.fetch_bytes = stats.fetches * config.line_size
    return stats


def _lane_count(line_size: int) -> int:
    return (line_size + LANE_BYTES - 1) // LANE_BYTES


def _segment_masks(size: np.ndarray, offset: np.ndarray, lanes: int) -> np.ndarray:
    """Byte masks for segments of ``size`` bytes at ``offset`` in a line.

    One flat uint64 per segment when the line fits a single lane, else
    ``(segments, lanes)`` — lane ``l`` covers bytes ``[64l, 64l+64)``.
    """
    if lanes == 1:
        return _SIZE_MASKS[size] << offset.astype(np.uint64)
    lane_base = np.arange(lanes, dtype=np.int64) * LANE_BYTES
    low = np.clip(offset[:, None] - lane_base, 0, LANE_BYTES)
    high = np.clip(offset[:, None] + size[:, None] - lane_base, 0, LANE_BYTES)
    width = high - low
    return np.where(
        width > 0, _SIZE_MASKS[width] << low.astype(np.uint64), np.uint64(0)
    )


def _full_line_masks(line_size: int):
    """The all-bytes-valid mask in the same shape segment masks use."""
    lanes = _lane_count(line_size)
    if lanes == 1:
        return np.uint64((1 << line_size) - 1)
    # Lines wider than a lane are power-of-two multiples of it, so every
    # lane is completely covered.
    return np.full(lanes, np.uint64(0xFFFFFFFFFFFFFFFF))


def _expand(flags: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Per-segment booleans broadcast against ``masks``' lane shape."""
    return flags if masks.ndim == 1 else flags[:, None]


def _any_lane(rows: np.ndarray) -> np.ndarray:
    """Collapse a per-lane boolean array back to one flag per segment."""
    return rows if rows.ndim == 1 else rows.any(axis=1)


class _TracePlan:
    """Everything about one ``(trace, line_size)`` pair that no other
    configuration parameter can change.

    Holds the per-line segment expansion in program order — line numbers
    (the address above the offset bits), sizes, offsets, byte masks and
    store flags — plus the trace-level counter totals.  Every cache size
    and policy at this line size shares one instance; it keeps the latest
    per-geometry set-order plan (:meth:`stream`).
    """

    __slots__ = (
        "line_size",
        "lanes",
        "line_number",
        "store",
        "size",
        "offset",
        "mask",
        "instructions",
        "reads",
        "writes",
        "load_segments",
        "store_segments",
        "store_bytes",
        "_stream",
    )

    def __init__(self, trace: Trace, line_size: int) -> None:
        self.line_size = line_size
        self.lanes = _lane_count(line_size)
        addresses = trace.address_array
        sizes = trace.size_array.astype(np.int64)
        stores = trace.kind_array == WRITE

        # References are size-aligned, so a segment crosses a line only
        # when the reference is wider than the line (8 B data, 4 B lines):
        # split those into line-sized pieces, vectorised.
        wide = sizes > line_size
        if wide.any():
            repeats = np.where(wide, sizes // line_size, 1)
            seg_address = np.repeat(addresses, repeats)
            group_starts = np.concatenate(([0], np.cumsum(repeats)[:-1]))
            within = np.arange(len(seg_address), dtype=np.int64) - np.repeat(
                group_starts, repeats
            )
            seg_address = seg_address + within * line_size
            seg_size = np.where(np.repeat(wide, repeats), line_size, np.repeat(sizes, repeats))
            seg_store = np.repeat(stores, repeats)
        else:
            seg_address = addresses
            seg_size = sizes
            seg_store = stores

        offset_bits = line_size.bit_length() - 1
        self.line_number = seg_address >> offset_bits
        self.offset = seg_address & (line_size - 1)
        self.size = seg_size
        self.store = seg_store
        self.mask = _segment_masks(self.size, self.offset, self.lanes)
        self.instructions = trace.instruction_count
        self.writes = int(np.count_nonzero(stores))
        self.reads = len(trace) - self.writes
        self.store_segments = int(np.count_nonzero(seg_store))
        self.load_segments = len(seg_store) - self.store_segments
        self.store_bytes = int(seg_size[seg_store].sum(dtype=np.int64))
        self._stream = None

    def stream(self, num_sets: int) -> "_SegmentStream":
        """The set-order plan for ``num_sets`` frames.

        Only the latest one is kept: another geometry drops it before its
        own is built, so a caller that visits its configs geometry by
        geometry holds one stream's arrays at a time.
        """
        if self._stream is None or self._stream.num_sets != num_sets:
            self._stream = None
            self._stream = _SegmentStream(self, num_sets)
        return self._stream


class _SegmentStream:
    """The set-order plan: the trace's segments grouped by set.

    All arrays are in *grouped order*: a stable sort by set index, so each
    set's segments are contiguous and keep their program order.  Segment
    ``i``'s predecessor within its set (when ``first_in_set[i]`` is
    False) is simply segment ``i - 1``.  Depends only on the plan's line
    size and ``num_sets`` — the write policies share it, including the
    derived classification state (:meth:`alloc_state` and friends), which
    is computed lazily once per geometry so the per-config work of a
    batch reduces to counter arithmetic.
    """

    __slots__ = (
        "line_size",
        "num_sets",
        "order",
        "set_index",
        "tag",
        "store",
        "mask",
        "size",
        "offset",
        "first_in_set",
        "last_in_set",
        "position",
        "store_count",
        "load_count",
        "store_bytes",
        "nonempty_sets",
        "_set_start",
        "_alloc",
        "_writeback",
        "_around",
        "_invalidate",
        "_validate",
    )

    def __init__(self, plan: _TracePlan, num_sets: int) -> None:
        index_bits = num_sets.bit_length() - 1
        set_index = plan.line_number & (num_sets - 1)
        order = np.argsort(set_index, kind="stable")
        self.line_size = plan.line_size
        self.num_sets = num_sets
        #: Program-order index of each grouped-order segment; scattering
        #: through it (``program[order] = grouped``) restores program
        #: order, which the boundary-outcome export needs.
        self.order = order
        self.set_index = set_index[order]
        self.tag = plan.line_number[order] >> index_bits
        self.store = plan.store[order]
        self.size = plan.size[order]
        self.offset = plan.offset[order]
        self.mask = plan.mask[order]
        count = len(order)
        boundary = self.set_index[1:] != self.set_index[:-1]
        self.first_in_set = np.concatenate(([True], boundary))
        self.last_in_set = np.concatenate((boundary, [True]))
        self.position = np.arange(count, dtype=np.int64)
        self.store_count = plan.store_segments
        self.load_count = plan.load_segments
        self.store_bytes = plan.store_bytes
        self.nonempty_sets = int(np.count_nonzero(self.first_in_set))
        self._set_start = None
        self._alloc = None
        self._writeback = None
        self._around = None
        self._invalidate = None
        self._validate = {}

    def __len__(self) -> int:
        return len(self.tag)

    def set_start(self) -> np.ndarray:
        """Index of the first segment of each segment's set group."""
        if self._set_start is None:
            self._set_start = np.maximum.accumulate(
                np.where(self.first_in_set, self.position, 0)
            )
        return self._set_start

    def alloc_state(self) -> "_AllocState":
        """Shared classification of the allocating policies (cached)."""
        if self._alloc is None:
            self._alloc = _AllocState(self)
        return self._alloc

    def writeback_state(self) -> "_WritebackState":
        """Dirty-mask bookkeeping of the allocating policies (cached;
        needed only by write-back configs)."""
        if self._writeback is None:
            self._writeback = _WritebackState(self, self.alloc_state())
        return self._writeback

    def validate_state(self, granularity: int) -> "_ValidateState":
        """Write-validate extras at one valid granularity (cached)."""
        state = self._validate.get(granularity)
        if state is None:
            state = self._validate[granularity] = _ValidateState(
                self, self.alloc_state(), granularity
            )
        return state

    def around_state(self) -> "_AroundState":
        """Write-around classification (cached; policy-parameter-free)."""
        if self._around is None:
            self._around = _AroundState(self)
        return self._around

    def invalidate_state(self) -> "_InvalidateState":
        """Write-invalidate classification (cached; policy-parameter-free)."""
        if self._invalidate is None:
            self._invalidate = _InvalidateState(self)
        return self._invalidate


def _shifted(values: np.ndarray, fill) -> np.ndarray:
    """``values`` shifted one place later; ``fill`` in front."""
    out = np.empty_like(values)
    out[0] = fill
    out[1:] = values[:-1]
    return out


def _segmented_or_scan(values: np.ndarray, segment_ids: np.ndarray) -> np.ndarray:
    """Inclusive bitwise-OR prefix scan, restarting at segment boundaries.

    Hillis-Steele doubling: ``log2(n)`` whole-array passes; segments must
    be contiguous runs of equal ``segment_ids``.  ``values`` may carry a
    trailing lane axis.
    """
    out = values.copy()
    count = len(out)
    shift = 1
    while shift < count:
        same = segment_ids[shift:] == segment_ids[:-shift]
        np.copyto(
            out[shift:], out[:-shift] | out[shift:], where=_expand(same, out)
        )
        shift <<= 1
    return out


def _counts_since_segment_start(
    flags: np.ndarray, segment_start: np.ndarray, position: np.ndarray, inclusive: bool
) -> np.ndarray:
    """How many ``flags`` are set within each element's segment so far.

    ``segment_start`` marks the first element of each contiguous segment;
    the count covers ``[segment start, i)``, or ``[segment start, i]``
    with ``inclusive``.  A plain cumulative sum re-based at segment
    starts — O(n), no doubling passes.
    """
    exclusive = np.cumsum(flags) - flags
    start_index = np.maximum.accumulate(np.where(segment_start, position, 0))
    counts = exclusive - exclusive[start_index]
    return counts + flags if inclusive else counts


def _dirty_mask_totals(masks: np.ndarray) -> Tuple[int, int]:
    """(dirty lines, dirty bytes) over an array of per-line dirty masks."""
    if masks.ndim == 1:
        dirty = masks[masks != 0]
    else:
        dirty = masks[(masks != 0).any(axis=1)]
    return len(dirty), int(np.bitwise_count(dirty).sum(dtype=np.int64))


# ---------------------------------------------------------------------------
# Per-geometry classification state.
#
# Almost everything the classifiers derive depends only on the stream —
# not on the write policy being classified — so it is computed once per
# geometry and cached on the stream (see the state accessors on
# :class:`_SegmentStream`).  The ``_classify_*`` functions below then
# reduce to counter arithmetic over these cached numbers, which is what
# makes adding one more configuration to a batch nearly free.
# ---------------------------------------------------------------------------


class _AllocState:
    """Shared classification of the allocating policies at one geometry.

    Fetch-on-write and write-validate both install a line on every miss
    — load or store — so their tag/run structure is identical, and it is
    independent of the write-hit policy too (valid/dirty bits never feed
    back into tags).  Maximal same-(set, tag) runs in grouped order are
    exactly the lifetimes of cache lines, and every run start is a miss
    (a victim when the set was already occupied).
    """

    __slots__ = (
        "tag_hit",
        "run_start",
        "run_id",
        "victim_at",
        "load_tag_hits",
        "read_misses",
        "write_hits",
        "write_misses",
        "victims",
    )

    def __init__(self, stream: _SegmentStream) -> None:
        store = stream.store
        load = ~store
        self.tag_hit = ~stream.first_in_set & (stream.tag == _shifted(stream.tag, -1))
        self.run_start = ~self.tag_hit
        self.run_id = np.cumsum(self.run_start)
        self.victim_at = self.run_start & ~stream.first_in_set
        self.load_tag_hits = int(np.count_nonzero(load & self.tag_hit))
        self.read_misses = int(np.count_nonzero(load & self.run_start))
        self.write_hits = int(np.count_nonzero(store & self.tag_hit))
        self.write_misses = int(np.count_nonzero(store & self.run_start))
        self.victims = int(np.count_nonzero(self.victim_at))


class _WritebackState:
    """Dirty-line accounting for the allocating policies (write-back).

    Dirty-byte masks accumulate by OR over each run's stores, so the mask
    a victim (or a flushed line) carries is its whole run's store-mask OR
    — one ``reduceat`` over run boundaries, no prefix scan.  Whether a
    store hit lands on an already-dirty line needs only *existence* of an
    earlier store in the run, a cumulative count.  Everything here is
    policy-independent; subblock-writeback transfer bytes derive from the
    (count, bytes) pairs arithmetically.
    """

    __slots__ = (
        "run_dirty",
        "writes_to_dirty",
        "victim_dirty_lines",
        "victim_dirty_bytes",
        "flush_dirty_lines",
        "flush_dirty_bytes",
    )

    def __init__(self, stream: _SegmentStream, alloc: _AllocState) -> None:
        store = stream.store
        run_dirty = np.bitwise_or.reduceat(
            np.where(_expand(store, stream.mask), stream.mask, np.uint64(0)),
            np.flatnonzero(alloc.run_start),
            axis=0,
        )
        #: Per-run dirty mask at end of run (indexed by ``run_id - 1``);
        #: the outcome export reads victim and flush masks out of it.
        self.run_dirty = run_dirty
        stores_before = _counts_since_segment_start(
            store, alloc.run_start, stream.position, inclusive=False
        )
        self.writes_to_dirty = int(
            np.count_nonzero(store & alloc.tag_hit & (stores_before > 0))
        )
        # A victim's run is the one *preceding* the run its eviction
        # starts; run ids are 1-based, so that is run_dirty[run_id - 2].
        self.victim_dirty_lines, self.victim_dirty_bytes = _dirty_mask_totals(
            run_dirty[alloc.run_id[alloc.victim_at] - 2]
        )
        self.flush_dirty_lines, self.flush_dirty_bytes = _dirty_mask_totals(
            run_dirty[alloc.run_id[stream.last_in_set] - 1]
        )


class _ValidateState:
    """Write-validate extras at one (geometry, valid granularity).

    Valid-byte masks: a run starts fully valid (load fetch, or the
    ineligible-store fetch fallback) or with just the written bytes (a
    validate allocation); stores OR their bytes in afterwards.  A load
    needing bytes outside the scanned mask is a partial miss; its refill
    makes the line fully valid, so only the first such load per run is a
    real partial — later "candidates" hit.
    """

    __slots__ = ("eligible", "fetch_candidate", "allocations", "partial_reads")

    def __init__(
        self, stream: _SegmentStream, alloc: _AllocState, granularity: int
    ) -> None:
        store = stream.store
        load = ~store
        granule_mask = granularity - 1
        eligible = (
            store
            & ((stream.offset & granule_mask) == 0)
            & ((stream.size & granule_mask) == 0)
        )
        self.eligible = eligible
        self.allocations = int(np.count_nonzero(eligible & alloc.run_start))
        full = _full_line_masks(stream.line_size)
        contribution = np.where(
            _expand(alloc.run_start, stream.mask),
            np.where(_expand(eligible, stream.mask), stream.mask, full),
            np.where(_expand(store, stream.mask), stream.mask, np.uint64(0)),
        )
        valid_scan = _segmented_or_scan(contribution, alloc.run_id)
        valid_before = np.where(
            _expand(alloc.run_start, stream.mask),
            np.uint64(0),
            _shifted(valid_scan, np.uint64(0)),
        )
        uncovered = _any_lane((valid_before & stream.mask) != stream.mask)
        candidate = load & alloc.tag_hit & uncovered
        # Only the *first* candidate of a run actually fetches: its refill
        # makes the whole line valid, so later candidates (computed
        # against a scan that does not model the refill) really hit.
        self.fetch_candidate = candidate & (
            _counts_since_segment_start(
                candidate, alloc.run_start, stream.position, inclusive=True
            )
            == 1
        )
        self.partial_reads = int(np.count_nonzero(self.fetch_candidate))


def _classify_allocating(
    stream: _SegmentStream, config: CacheConfig, flush: bool, stats: CacheStats
) -> None:
    validate = config.write_miss is WriteMissPolicy.WRITE_VALIDATE
    state = stream.alloc_state()

    stats.read_misses = state.read_misses
    stats.fetches_for_reads = state.read_misses
    stats.write_hits = state.write_hits
    stats.write_misses = state.write_misses
    stats.victims = state.victims
    if validate:
        vstate = stream.validate_state(config.valid_granularity)
        stats.validate_allocations = vstate.allocations
        stats.read_partial_misses = vstate.partial_reads
        stats.fetches_for_partial_reads = vstate.partial_reads
    stats.fetches_for_writes = state.write_misses - stats.validate_allocations
    stats.read_hits = state.load_tag_hits - stats.read_partial_misses

    if config.is_write_back:
        wb = stream.writeback_state()
        stats.writes_to_dirty_lines = wb.writes_to_dirty
        stats.dirty_victims = wb.victim_dirty_lines
        stats.dirty_victim_dirty_bytes = wb.victim_dirty_bytes
        stats.writebacks = wb.victim_dirty_lines
        stats.writeback_dirty_bytes = wb.victim_dirty_bytes
        stats.writeback_bytes = (
            wb.victim_dirty_bytes
            if config.subblock_dirty_writeback
            else wb.victim_dirty_lines * config.line_size
        )
    else:
        stats.write_throughs = stream.store_count
        stats.write_through_bytes = stream.store_bytes

    if flush:
        # Under an allocating policy every touched set ends with a valid
        # resident line.
        stats.flushed_lines = stream.nonempty_sets
        if config.is_write_back:
            wb = stream.writeback_state()
            stats.flushed_dirty_lines = wb.flush_dirty_lines
            stats.flushed_dirty_bytes = wb.flush_dirty_bytes
            stats.flush_writeback_bytes = (
                wb.flush_dirty_bytes
                if config.subblock_dirty_writeback
                else wb.flush_dirty_lines * config.line_size
            )


# ---------------------------------------------------------------------------
# No-allocate policies: write-around and write-invalidate (write-through
# only).  Loads are the only installing events, so the resident line is
# keyed on the last preceding load of the set — a running maximum over
# load positions.  Neither policy has any tunable beyond the geometry, so
# their entire classification is one cached state per stream.
# ---------------------------------------------------------------------------


def _lead_load(stream: _SegmentStream) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lead, has_lead, set_start): index of the most recent load at or
    before each segment within its set (``lead[i] <= i``; for a load,
    itself).  The running maximum runs over the whole grouped array;
    values leaking from an earlier set group are below ``set_start`` and
    masked off by ``has_lead``."""
    set_start = stream.set_start()
    lead = np.maximum.accumulate(np.where(~stream.store, stream.position, -1))
    has_lead = lead >= set_start
    return lead, has_lead, set_start


class _AroundState:
    __slots__ = ("load_hit", "write_hits", "read_hits", "victims", "flushed_lines")

    def __init__(self, stream: _SegmentStream) -> None:
        store = stream.store
        load = ~store
        lead, has_lead, set_start = _lead_load(stream)
        lead_tag = stream.tag[np.maximum(lead, 0)]

        # A store hits iff the frame holds the line the last load
        # installed.
        store_hit = store & has_lead & (lead_tag == stream.tag)
        self.write_hits = int(np.count_nonzero(store_hit))

        # A load sees the line installed by the previous load (element
        # i-1's lead); stores in between never disturbed it.
        lead_prev = _shifted(lead, -1)
        resident_prev = ~stream.first_in_set & (lead_prev >= set_start)
        load_hit = (
            load & resident_prev & (stream.tag[np.maximum(lead_prev, 0)] == stream.tag)
        )
        self.load_hit = load_hit
        self.read_hits = int(np.count_nonzero(load_hit))
        self.victims = int(np.count_nonzero(load & resident_prev & ~load_hit))
        self.flushed_lines = len(np.unique(stream.set_index[load]))


class _InvalidateState:
    __slots__ = (
        "load_hit",
        "write_hits",
        "invalidations",
        "read_hits",
        "victims",
        "flushed_lines",
    )

    def __init__(self, stream: _SegmentStream) -> None:
        store = stream.store
        load = ~store
        lead, has_lead, set_start = _lead_load(stream)
        lead_tag = stream.tag[np.maximum(lead, 0)]

        # Segments sharing a lead load form a group over which the
        # resident line is that load's tag — until the first store to a
        # *different* tag invalidates the frame (the concurrent data
        # write corrupted it).  Segments before a set's first load get a
        # per-set sentinel group in which nothing is ever resident.  "Has
        # the frame been invalidated yet" is just a count of mismatching
        # stores so far in the group.
        group = np.where(has_lead, lead, -1 - stream.set_index)
        group_start = np.concatenate(([True], group[1:] != group[:-1]))
        mismatch = store & has_lead & (stream.tag != lead_tag)
        mismatches_so_far = _counts_since_segment_start(
            mismatch, group_start, stream.position, inclusive=True
        )

        # A store hits while its tag is still resident: same tag as the
        # lead load and no invalidating store earlier in the group.
        store_hit = (
            store & has_lead & (stream.tag == lead_tag) & (mismatches_so_far == 0)
        )
        self.write_hits = int(np.count_nonzero(store_hit))
        # One invalidation per group that mismatches at all — i.e. per
        # first mismatch, the one whose inclusive count is exactly 1.
        self.invalidations = int(np.count_nonzero(mismatch & (mismatches_so_far == 1)))

        # A load consults the state as of element i-1: the previous
        # load's line survives iff its group saw no mismatching store.
        lead_prev = _shifted(lead, -1)
        resident_prev = (
            ~stream.first_in_set
            & (lead_prev >= set_start)
            & (_shifted(mismatches_so_far, 0) == 0)
        )
        load_hit = (
            load & resident_prev & (stream.tag[np.maximum(lead_prev, 0)] == stream.tag)
        )
        self.load_hit = load_hit
        self.read_hits = int(np.count_nonzero(load_hit))
        self.victims = int(np.count_nonzero(load & resident_prev & ~load_hit))
        final_valid = has_lead[stream.last_in_set] & (
            mismatches_so_far[stream.last_in_set] == 0
        )
        self.flushed_lines = int(np.count_nonzero(final_valid))


class BoundaryOutcomes:
    """What one run emitted toward its next level, in program order.

    Segment arrays (``line_number``/``offset``/``size``) are the plan's
    program-order expansion; ``fetch`` and ``write_through`` flag the
    segments that emitted those transactions.  Write-backs are sparse
    events: ``wb_segment[j]`` is the program-order segment whose eviction
    wrote back the line at ``wb_line_address[j]`` with dirty byte mask
    ``wb_mask[j]`` (``(events, lanes)`` uint64, lane ``l`` covering bytes
    ``[64l, 64l+64)``); events are sorted by segment.  Flush write-backs
    (``flush_line_address``/``flush_mask``) come last, in set-index order
    — exactly the order :meth:`repro.cache.cache.Cache.flush` drains.

    Per segment the emission order is **write-back, fetch,
    write-through**: the reference cache evicts before it fetches
    (:meth:`~repro.cache.cache.Cache._evict_if_full` precedes
    ``_fetch_line``) and applies the write hit — which sends the
    write-through — after the fetch completes.
    """

    __slots__ = (
        "line_size",
        "lanes",
        "line_number",
        "offset",
        "size",
        "fetch",
        "write_through",
        "wb_segment",
        "wb_line_address",
        "wb_mask",
        "flush_line_address",
        "flush_mask",
    )

    @classmethod
    def empty(cls, line_size: int) -> "BoundaryOutcomes":
        """The outcomes of a zero-length trace (no segments, no events)."""
        out = cls()
        lanes = _lane_count(line_size)
        out.line_size = line_size
        out.lanes = lanes
        out.line_number = np.empty(0, dtype=np.int64)
        out.offset = np.empty(0, dtype=np.int64)
        out.size = np.empty(0, dtype=np.int64)
        out.fetch = np.empty(0, dtype=bool)
        out.write_through = np.empty(0, dtype=bool)
        out.wb_segment = np.empty(0, dtype=np.int64)
        out.wb_line_address = np.empty(0, dtype=np.int64)
        out.wb_mask = np.empty((0, lanes), dtype=np.uint64)
        out.flush_line_address = np.empty(0, dtype=np.int64)
        out.flush_mask = np.empty((0, lanes), dtype=np.uint64)
        return out


def _mask_rows(masks: np.ndarray, lanes: int) -> np.ndarray:
    """Mask arrays as uniform ``(rows, lanes)`` uint64 (flat when 1 lane)."""
    return masks.reshape(-1, lanes)


def _line_bases(
    tags: np.ndarray, set_indices: np.ndarray, config: CacheConfig
) -> np.ndarray:
    """Line base addresses from grouped-order tags and set indices."""
    return ((tags << config.index_bits) | set_indices) << config.offset_bits


def _derive_outcomes(
    plan: _TracePlan, stream: _SegmentStream, config: CacheConfig, flush: bool
) -> BoundaryOutcomes:
    """The per-segment downstream events of one classified run.

    Grouped-order flags come straight out of the cached classification
    state; the stream's stored sort permutation scatters them back to
    program order.  Only the allocating policies ever write back (the
    no-allocate policies are write-through-only by validation), so their
    branch is the only one touching dirty masks.
    """
    count = len(stream)
    lanes = plan.lanes
    store_g = stream.store
    load_g = ~store_g
    order = stream.order
    out = BoundaryOutcomes()
    out.line_size = plan.line_size
    out.lanes = lanes
    out.line_number = plan.line_number
    out.offset = plan.offset
    out.size = plan.size
    out.wb_segment = np.empty(0, dtype=np.int64)
    out.wb_line_address = np.empty(0, dtype=np.int64)
    out.wb_mask = np.empty((0, lanes), dtype=np.uint64)
    out.flush_line_address = np.empty(0, dtype=np.int64)
    out.flush_mask = np.empty((0, lanes), dtype=np.uint64)

    if config.write_miss in (
        WriteMissPolicy.FETCH_ON_WRITE,
        WriteMissPolicy.WRITE_VALIDATE,
    ):
        alloc = stream.alloc_state()
        fetch_g = load_g & alloc.run_start
        if config.write_miss is WriteMissPolicy.WRITE_VALIDATE:
            vstate = stream.validate_state(config.valid_granularity)
            # Ineligible (sub-granule) store misses fall back to
            # fetch-on-write; eligible ones allocate without fetching.
            fetch_g = (
                fetch_g
                | vstate.fetch_candidate
                | (store_g & alloc.run_start & ~vstate.eligible)
            )
        else:
            fetch_g = fetch_g | (store_g & alloc.run_start)
        if config.is_write_back:
            wb = stream.writeback_state()
            run_dirty = _mask_rows(wb.run_dirty, lanes)
            victim_pos = np.flatnonzero(alloc.victim_at)
            victim_mask = run_dirty[alloc.run_id[victim_pos] - 2]
            dirty = (victim_mask != 0).any(axis=1)
            wb_pos = victim_pos[dirty]
            # The victim's tag is the previous segment of the set group
            # (it belongs to the run the eviction ends).
            wb_line = _line_bases(
                stream.tag[wb_pos - 1], stream.set_index[wb_pos], config
            )
            wb_segment = order[wb_pos]
            perm = np.argsort(wb_segment, kind="stable")
            out.wb_segment = wb_segment[perm]
            out.wb_line_address = wb_line[perm]
            out.wb_mask = victim_mask[dirty][perm]
            if flush:
                last_pos = np.flatnonzero(stream.last_in_set)
                flush_mask = run_dirty[alloc.run_id[last_pos] - 1]
                dirty = (flush_mask != 0).any(axis=1)
                flush_pos = last_pos[dirty]
                # last_in_set positions ascend by set index in grouped
                # order — the order Cache.flush drains sets in.
                out.flush_line_address = _line_bases(
                    stream.tag[flush_pos], stream.set_index[flush_pos], config
                )
                out.flush_mask = flush_mask[dirty]
    else:
        # No-allocate (write-around / write-invalidate): loads that miss
        # fetch; no line is ever dirty, so nothing ever writes back.
        state = (
            stream.around_state()
            if config.write_miss is WriteMissPolicy.WRITE_AROUND
            else stream.invalidate_state()
        )
        fetch_g = load_g & ~state.load_hit

    out.fetch = np.empty(count, dtype=bool)
    out.fetch[order] = fetch_g
    out.write_through = (
        plan.store if config.is_write_through else np.zeros(count, dtype=bool)
    )
    return out


def _classify_write_around(
    stream: _SegmentStream, config: CacheConfig, flush: bool, stats: CacheStats
) -> None:
    state = stream.around_state()
    stats.write_hits = state.write_hits
    stats.write_misses = stream.store_count - state.write_hits
    stats.write_throughs = stream.store_count
    stats.write_through_bytes = stream.store_bytes
    stats.read_hits = state.read_hits
    stats.read_misses = stream.load_count - state.read_hits
    stats.fetches_for_reads = stats.read_misses
    stats.victims = state.victims
    if flush:
        stats.flushed_lines = state.flushed_lines


def _classify_write_invalidate(
    stream: _SegmentStream, config: CacheConfig, flush: bool, stats: CacheStats
) -> None:
    state = stream.invalidate_state()
    stats.write_hits = state.write_hits
    stats.write_misses = stream.store_count - state.write_hits
    stats.write_throughs = stream.store_count
    stats.write_through_bytes = stream.store_bytes
    stats.invalidations = state.invalidations
    stats.read_hits = state.read_hits
    stats.read_misses = stream.load_count - state.read_hits
    stats.fetches_for_reads = stats.read_misses
    stats.victims = state.victims
    if flush:
        stats.flushed_lines = state.flushed_lines
