"""Builtin experiment runners — one per simulator family.

Every runner has the one registry shape, ``runner(specs, trace) ->
(stats_list, counters)`` over specs that share one trace: the ``cache``
and ``system`` runners hand the whole grid to a batched kernel, and the
buffer runners run each spec through its family's model in turn.

Imported lazily by :mod:`repro.exec.experiments` on first kind lookup;
the module-level :func:`~repro.exec.experiments.register_runner` calls at
the bottom are what make the builtin kinds exist.  Worker processes hit
the same lazy import on their first dispatched spec, so kinds resolve
identically under :class:`~concurrent.futures.ProcessPoolExecutor`.

Engine versioning: families built on the L1 simulator (``cache``,
``victim_buffer``, ``system``) fold ``SIMULATOR_VERSION`` into their
engine tag, so an L1 engine bump invalidates their stored results too;
the pure timing models (``write_buffer``, ``write_cache``) version
independently.
"""

from repro.buffers.victim_buffer import (
    VICTIM_BUFFER_ENGINE_VERSION,
    VictimBufferConfig,
    VictimBufferStats,
    dirty_victim_times,
)
from repro.buffers.write_buffer import (
    WRITE_BUFFER_ENGINE_VERSION,
    WriteBufferConfig,
    WriteBufferStats,
)
from repro.buffers.write_cache import (
    WRITE_CACHE_ENGINE_VERSION,
    WriteCacheConfig,
    WriteCacheStats,
)
from repro.cache.config import CacheConfig
from repro.cache.fastsim import SIMULATOR_VERSION, simulate_trace_batch_info
from repro.cache.stats import CacheStats
from repro.exec.experiments import register_runner
from repro.hierarchy.hiersim import simulate_hierarchy_batch_info
from repro.hierarchy.system import SYSTEM_ENGINE_VERSION, HierarchyConfig, SystemStats


def run_cache_grid(specs, trace):
    """A grid of L1 cache runs sharing one trace's vectorised passes.

    Returns ``(stats_list, counters)``: the per-spec stats in spec order
    and how many runs were served from reuse-distance ladder profiles and
    how many profiling passes were paid (see
    :func:`repro.cache.fastsim.simulate_trace_batch_info`).  The pool only
    groups specs that agree on ``(workload, scale, seed, flush)``, so one
    ``flush`` value covers the grid — and that invariant survives batch
    bisection, since any sub-list of a uniform group is itself uniform.
    The batched kernels carry no state between calls, so re-dispatching
    a bisected half stays bit-identical to the original grid.
    """
    flush = specs[0].flush
    assert all(spec.flush == flush for spec in specs)
    results, info = simulate_trace_batch_info(
        trace, [spec.config for spec in specs], flush=flush
    )
    return results, {
        "profiled_runs": info.profiled_runs,
        "profile_passes": info.profile_passes,
    }


def run_write_buffers(specs, trace):
    """Coalescing write buffer timing model, one run per spec (no flush
    concept: the buffer always drains on its own; ``spec.flush`` is
    identity-only here)."""
    return [spec.config.build().simulate(trace) for spec in specs], {}


def run_write_caches(specs, trace):
    """Stand-alone write caches over the store stream of the trace."""
    return [
        spec.config.build().run_writes(trace, flush=spec.flush) for spec in specs
    ], {}


def run_victim_buffers(specs, trace):
    """Dirty-victim buffer timing behind each spec's write-back cache.

    The victim times depend only on the cache, so specs that share one
    (a buffer sweep does) replay a single extraction.
    """
    times = {}
    for spec in specs:
        if spec.config.cache not in times:
            times[spec.config.cache] = dirty_victim_times(trace, spec.config.cache)
    return [
        spec.config.build().simulate(*times[spec.config.cache]) for spec in specs
    ], {}


def run_system_grid(specs, trace):
    """A grid of hierarchy runs sharing one trace's vectorised passes.

    Returns ``(stats_list, counters)``; ``hier_vector_runs`` counts runs
    whose first level went through the vector kernel (fully-composed
    declines don't count).  Same grouping invariant as
    :func:`run_cache_grid`: any sub-list of a uniform group is itself
    uniform, so batch bisection re-dispatches stay bit-identical.
    """
    flush = specs[0].flush
    assert all(spec.flush == flush for spec in specs)
    return simulate_hierarchy_batch_info(
        trace, [spec.config for spec in specs], flush=flush
    )


register_runner(
    "cache",
    run_cache_grid,
    CacheStats,
    SIMULATOR_VERSION,
    config_type=CacheConfig,
)
register_runner(
    "write_buffer",
    run_write_buffers,
    WriteBufferStats,
    WRITE_BUFFER_ENGINE_VERSION,
    config_type=WriteBufferConfig,
)
register_runner(
    "write_cache",
    run_write_caches,
    WriteCacheStats,
    WRITE_CACHE_ENGINE_VERSION,
    config_type=WriteCacheConfig,
)
register_runner(
    "victim_buffer",
    run_victim_buffers,
    VictimBufferStats,
    f"{VICTIM_BUFFER_ENGINE_VERSION}+sim{SIMULATOR_VERSION}",
    config_type=VictimBufferConfig,
)
register_runner(
    "system",
    run_system_grid,
    SystemStats,
    f"{SYSTEM_ENGINE_VERSION}+sim{SIMULATOR_VERSION}",
    # v2: per-level stats lists + per-boundary meters (the hierarchy
    # refactor); v1 records quarantine on read rather than misdecode.
    schema_version=2,
    config_type=HierarchyConfig,
)
