"""Vectorized hierarchy simulation: level-by-level miss-stream propagation.

The composed :class:`~repro.hierarchy.system.CacheSystem` drives every
reference through per-call Python backends, so a multi-level graph runs
at loop speed no matter how fast the L1 kernel is.  But each level's
traffic is *exactly* a filtered reference stream of the level above
(Jouppi's Section 5 decomposition; the boundary-invariance differential
in ``tests/hierarchy`` proves upper-level statistics are independent of
what sits below), so a hierarchy can be simulated one level at a time:

1. run level *i* through the vector kernel
   (:func:`repro.cache.vecsim.simulate_with_outcomes`), which reports the
   downstream events of every program-order segment;
2. materialize those events into the synthetic :class:`~repro.trace.trace.Trace`
   the composed path's backend chain would have presented to level
   *i + 1* — per segment a dirty-victim write-back (split into the
   greedy naturally-aligned 8/4/2/1-byte stores
   :class:`~repro.hierarchy.system.CacheLevelBackend` emits), then the
   demand fetch, then the write-through, with flush write-backs
   appended in set-index order;
3. derive the boundary meter from level *i*'s counters (every
   :class:`~repro.hierarchy.system.MeteringBackend` increment pairs with
   exactly one counter increment, so the derivation is exact) and recurse.

Structure-free stats-only direct-mapped levels take this path and are
bit-identical to the composed system — the differential and golden
suites enforce it stat-for-stat.  A level the kernel cannot take
(attached victim/miss/stream/write-cache structures, set-associative,
sectored, data-carrying) *declines*: the remaining sub-hierarchy runs
composed over the already-materialized stream, so vectorized upper
levels keep their speed (mirroring the decline contract
:mod:`repro.cache.rdsim` established).

The route depends on the configuration alone.  The composed
:class:`~repro.hierarchy.system.CacheSystem` is the oracle the
vectorized route is tested against, and tests call it directly.
:func:`simulate_hierarchy_batch_info` builds one top-level trace plan
per level-0 line size and shares it across its grid, so a sweep of
hierarchies over one trace pays the trace-side passes once per line
size — the pool's batched ``system`` dispatch (``hier_vector_runs``
telemetry) leans on this.  The plans are dropped when the call returns.

See docs/hierarchy.md ("Vectorized hierarchy kernel") for the
materialization rules and the decline matrix.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.cache import vecsim
from repro.hierarchy.memory import TrafficMeter
from repro.hierarchy.system import (
    CacheSystem,
    HierarchyConfig,
    LevelConfig,
    LevelStats,
    SystemStats,
    _as_hierarchy,
)
from repro.trace.trace import Trace


def supports_level(level: LevelConfig) -> bool:
    """Whether the vector kernel can take this level bit-identically.

    Requires a bare level (no attached structures) whose cache the
    vector kernel covers (direct-mapped, stats-only, non-sectored).
    """
    return (
        level.write_cache_entries == 0
        and level.victim_entries == 0
        and level.miss_entries == 0
        and level.stream_buffers == 0
        and vecsim.supports(level.cache)
    )


def _derived_meter(stats, line_size: int) -> TrafficMeter:
    """The boundary meter a level's emissions would have registered.

    Exact by construction: every :class:`MeteringBackend` call site pairs
    one meter increment with one cache counter increment.  Write-backs
    (victim and flush alike) meter at full line width — the
    ``subblock_dirty_writeback`` byte savings live in the level's own
    ``writeback_bytes`` counter, never at the boundary.
    """
    writebacks = stats.writebacks + stats.flushed_dirty_lines
    return TrafficMeter(
        fetches=stats.fetches,
        fetch_bytes=stats.fetch_bytes,
        writebacks=writebacks,
        writeback_bytes=writebacks * line_size,
        write_throughs=stats.write_throughs,
        write_through_bytes=stats.write_through_bytes,
    )


# ---------------------------------------------------------------------------
# Write-back extent splitting.
#
# CacheLevelBackend.write_back walks each contiguous dirty extent and
# splits it into greedy largest naturally-aligned 8/4/2/1-byte stores.  A
# greedy piece never crosses an aligned 8-byte boundary (an 8 B piece
# starts on one; 4/2/1 B pieces fit inside one), so the decomposition of
# a whole line factors into independent per-8-byte-block decompositions
# — a pure function of each block's uint8 dirty mask, precomputed below.
# Little-endian uint64 lanes viewed as uint8 yield the blocks in address
# order.
# ---------------------------------------------------------------------------


def _build_extent_table() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    counts = np.zeros(256, dtype=np.int64)
    offsets = np.zeros((256, 8), dtype=np.int64)
    sizes = np.zeros((256, 8), dtype=np.int64)
    for mask in range(256):
        pieces = []
        cursor = 0
        while cursor < 8:
            if not (mask >> cursor) & 1:
                cursor += 1
                continue
            start = cursor
            while cursor < 8 and (mask >> cursor) & 1:
                cursor += 1
            address, length = start, cursor - start
            while length:
                size = 1
                for candidate in (8, 4, 2):
                    if length >= candidate and address % candidate == 0:
                        size = candidate
                        break
                pieces.append((address, size))
                address += size
                length -= size
        counts[mask] = len(pieces)
        for index, (offset, size) in enumerate(pieces):
            offsets[mask, index] = offset
            sizes[mask, index] = size
    return counts, offsets, sizes


_PIECE_COUNTS, _PIECE_OFFSETS, _PIECE_SIZES = _build_extent_table()


def _expand_writebacks(
    line_address: np.ndarray, masks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(piece_address, piece_size, event_index) for an event batch.

    Pieces of one event come out in ascending address order — the order
    the backend's extent walk emits them.
    """
    if len(line_address) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    blocks = np.ascontiguousarray(masks).view(np.uint8)
    blocks_per_event = blocks.shape[1]
    flat = blocks.reshape(-1)
    counts = _PIECE_COUNTS[flat]
    block_of_piece = np.repeat(np.arange(flat.size, dtype=np.int64), counts)
    within = np.arange(len(block_of_piece), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    block_masks = flat[block_of_piece]
    event = block_of_piece // blocks_per_event
    addresses = (
        line_address[event]
        + (block_of_piece % blocks_per_event) * 8
        + _PIECE_OFFSETS[block_masks, within]
    )
    return addresses, _PIECE_SIZES[block_masks, within], event


def materialize_stream(outcomes: "vecsim.BoundaryOutcomes") -> Trace:
    """The synthetic trace a level's emissions present to the next level.

    Per program-order segment the events land in emission order —
    write-back pieces, then the demand fetch, then the write-through —
    and flush write-back pieces come last, in set-index order.  Every
    reference carries ``icount`` 0: lower levels execute no instructions
    (matching the composed path, where only the L1's ``run`` accumulates
    the instruction count).
    """
    line_size = outcomes.line_size
    offset_bits = line_size.bit_length() - 1
    segment_base = outcomes.line_number << offset_bits

    wb_address, wb_size, wb_event = _expand_writebacks(
        outcomes.wb_line_address, outcomes.wb_mask
    )
    fetch_segment = np.flatnonzero(outcomes.fetch)
    wt_segment = np.flatnonzero(outcomes.write_through)

    # Stable sort on (segment, kind-priority); same-key runs keep their
    # concatenation order, so one event's write-back pieces stay in
    # address order.
    keys = np.concatenate(
        (
            outcomes.wb_segment[wb_event] * 4,
            fetch_segment * 4 + 1,
            wt_segment * 4 + 2,
        )
    )
    addresses = np.concatenate(
        (
            wb_address,
            segment_base[fetch_segment],
            segment_base[wt_segment] + outcomes.offset[wt_segment],
        )
    )
    sizes = np.concatenate(
        (
            wb_size,
            np.full(len(fetch_segment), line_size, dtype=np.int64),
            outcomes.size[wt_segment],
        )
    )
    kinds = np.concatenate(
        (
            np.ones(len(wb_address), dtype=np.int8),
            np.zeros(len(fetch_segment), dtype=np.int8),
            np.ones(len(wt_segment), dtype=np.int8),
        )
    )
    order = np.argsort(keys, kind="stable")
    addresses = addresses[order]
    sizes = sizes[order]
    kinds = kinds[order]

    flush_address, flush_size, _ = _expand_writebacks(
        outcomes.flush_line_address, outcomes.flush_mask
    )
    if len(flush_address):
        addresses = np.concatenate((addresses, flush_address))
        sizes = np.concatenate((sizes, flush_size))
        kinds = np.concatenate((kinds, np.ones(len(flush_address), dtype=np.int8)))

    return Trace.from_arrays(
        addresses,
        sizes.astype(np.int32),
        kinds,
        np.zeros(len(addresses), dtype=np.int32),
    )


def _composed(trace: Trace, levels: Sequence[LevelConfig], flush: bool) -> SystemStats:
    """Run (a suffix of) the hierarchy through the composed reference path."""
    system = CacheSystem(HierarchyConfig(levels=tuple(levels)))
    system.run(trace, flush=flush)
    return system.system_stats()


def _simulate(
    trace: Trace, config: HierarchyConfig, flush: bool, plan=None
) -> Tuple[SystemStats, int]:
    """One hierarchy run; returns ``(stats, vectorized_level_count)``.

    ``plan``, when given, is level 0's vecsim trace plan, shared by the
    caller across its grid; deeper levels build fresh plans over their
    materialized streams.
    """
    levels = config.levels
    level_results: List[LevelStats] = []
    meters: List[TrafficMeter] = []
    vectorized = 0
    current = trace
    index = 0
    while index < len(levels):
        level = levels[index]
        last = index == len(levels) - 1
        if supports_level(level):
            if last:
                stats = vecsim.simulate_direct_mapped(
                    current, level.cache, flush, plan if index == 0 else None
                )
            else:
                stats, outcomes = vecsim.simulate_with_outcomes(
                    current, level.cache, flush, plan if index == 0 else None
                )
                current = materialize_stream(outcomes)
            vectorized += 1
            level_results.append(LevelStats(cache=stats))
            meters.append(_derived_meter(stats, level.cache.line_size))
            index += 1
            continue
        # Decline: the rest of the graph runs composed over the
        # materialized stream (its own boundary meters included).
        declined = _composed(current, levels[index:], flush)
        level_results.extend(declined.levels)
        meters.extend(declined.boundaries)
        return SystemStats(levels=level_results, boundaries=meters), vectorized
    return SystemStats(levels=level_results, boundaries=meters), vectorized


def simulate_hierarchy(trace: Trace, config, flush: bool = True) -> SystemStats:
    """Simulate a hierarchy graph, vectorized level-by-level where possible.

    ``config`` is a :class:`HierarchyConfig` or a bare L1
    :class:`~repro.cache.config.CacheConfig`.  Structure-free stats-only
    levels run through the vector kernel with derived boundary meters;
    anything the kernel declines (attached structures, set-associative,
    data-carrying or sectored levels) runs through the composed
    :class:`CacheSystem` over the already-materialized stream.  Every
    route is bit-identical to composing the whole graph (the
    differential suites assert it stat-for-stat).
    """
    stats, _ = _simulate(trace, _as_hierarchy(config), flush)
    return stats


def simulate_hierarchy_batch_info(
    trace: Trace, configs: Sequence, flush: bool = True
) -> Tuple[List[SystemStats], dict]:
    """A grid of hierarchy runs over one trace, plus dispatch counters.

    Results are per-config bit-identical to :func:`simulate_hierarchy`;
    the batch entry point exists so the top-level trace plan is built
    once per level-0 line size and shared across the grid, then dropped
    before the next line size.  Configs run level-0 geometry by
    geometry (:func:`vecsim.geometry_order`), so the plan's one
    set-order stream serves every config that shares it.  The returned
    info dict's ``hier_vector_runs`` counts runs whose first level went
    through the vector kernel — the pool folds it into
    :class:`~repro.exec.pool.PoolTelemetry`.
    """
    configs = [_as_hierarchy(config) for config in configs]
    results: List[SystemStats] = [None] * len(configs)
    vector_runs = 0
    tops = [
        config.levels[0].cache
        if len(trace) and supports_level(config.levels[0])
        else None
        for config in configs
    ]
    for line_size, indices in vecsim.geometry_order(tops):
        plan = None if line_size is None else vecsim._TracePlan(trace, line_size)
        for index in indices:
            results[index], vectorized = _simulate(
                trace, configs[index], flush, plan
            )
            if vectorized:
                vector_runs += 1
        del plan
    return results, {"hier_vector_runs": vector_runs}
