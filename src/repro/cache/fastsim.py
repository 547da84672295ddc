"""Optimised direct-mapped, stats-only simulation — the dispatch front end.

Every cache in the paper's measurement sections is direct-mapped, and the
figure sweeps run six traces through dozens of configurations, so
:func:`simulate_trace` routes each run to the fastest engine that is
bit-identical to the reference :class:`repro.cache.cache.Cache` (a
property the test suite enforces):

- :mod:`repro.cache.vecsim` — whole-trace numpy array passes, for every
  stats-only direct-mapped configuration (wide lines use multiple
  uint64 byte-mask lanes);
- the reference ``Cache`` for everything else (set-associative,
  data-carrying, sectored).  It is also the oracle every fast engine is
  differential-tested against.

The route depends on the configuration alone.  Tests and benchmarks that
compare engines call them directly (``Cache(config).run`` plus
``flush()``, :func:`vecsim.simulate_direct_mapped`,
:func:`vecsim.simulate_batch`).

Grid sweeps should prefer :func:`simulate_trace_batch_info`, which hands
an entire list of configurations to :func:`vecsim.simulate_batch` so the
trace-side passes are paid once per ``(line_size, num_sets)`` instead of
once per run; unsupported configurations in the batch transparently take
the reference ``Cache``.  Sub-grids that vary only in cache size (two or
more distinct ``num_sets`` at one line size) go one step further and
collapse through the reuse-distance profiler (:mod:`repro.cache.rdsim`),
which serves every size on the ladder from a single profiling pass.  The
profiler is bit-identical to vecsim for every shape it accepts and falls
back to vecsim for the rest, so results never depend on the route taken.
"""

from typing import List, Sequence, Tuple

from repro.cache import rdsim, vecsim
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.trace.trace import Trace

#: Bump whenever a simulator change can alter the statistics produced for
#: an unchanged (trace, config) pair.  The on-disk result store folds this
#: into every content hash, so a bump invalidates all persisted results.
#: The vectorised kernel — single-run and batched — is bit-identical to
#: the reference ``Cache``, so all engines share one version.
SIMULATOR_VERSION = 1


def simulate_trace(trace: Trace, config: CacheConfig, flush: bool = True) -> CacheStats:
    """Run ``trace`` through a cache described by ``config``.

    ``flush`` controls whether flush-stop statistics are collected at the
    end of the run (the cache state is discarded either way).  Every
    engine produces bit-identical :class:`CacheStats`.
    """
    if vecsim.supports(config):
        return vecsim.simulate_direct_mapped(trace, config, flush)
    cache = Cache(config)
    stats = cache.run(trace)
    if flush:
        cache.flush()
    return stats


def _ladder_indices(configs, batchable) -> List[int]:
    """Batchable indices whose line-size group spans >= 2 cache sizes.

    A single-size group gains nothing from a ladder profile (one level
    costs about one vecsim run), so it stays on the plain batched path.
    """
    sizes_by_line: dict = {}
    for index in batchable:
        config = configs[index]
        sizes_by_line.setdefault(config.line_size, set()).add(config.num_sets)
    ladders = {line for line, sizes in sizes_by_line.items() if len(sizes) >= 2}
    return [index for index in batchable if configs[index].line_size in ladders]


def simulate_trace_batch_info(
    trace: Trace, configs: Sequence[CacheConfig], flush: bool = True
) -> Tuple[List[CacheStats], rdsim.ProfileInfo]:
    """Run ``trace`` through every configuration in ``configs``.

    Returns one :class:`CacheStats` per config, in input order, each
    bit-identical to ``simulate_trace(trace, config, flush)`` for that
    config alone — the batched kernels share the config-independent
    trace passes, never the semantics.  Sub-grids spanning two or more
    cache sizes at one line size collapse through the reuse-distance
    profiler; the rest of the supported configs share one
    :func:`vecsim.simulate_batch` call, and configurations the vector
    kernel does not cover (set-associative, data-carrying, sectored) run
    on the reference ``Cache`` through :func:`simulate_trace`.

    The returned :class:`rdsim.ProfileInfo` counts configs served from
    reuse-distance ladder profiles (``profiled_runs``), distinct
    profiling passes (``profile_passes``) and profiler-declined configs
    served by the vecsim fallback inside :func:`rdsim.simulate_ladder`
    (``fallback_runs``); configs that never routed through the profiler
    appear in none of them.
    """
    configs = list(configs)
    results: List[CacheStats] = [None] * len(configs)
    info = rdsim.ProfileInfo()
    batchable = []
    for index, config in enumerate(configs):
        if vecsim.supports(config):
            batchable.append(index)
        else:
            results[index] = simulate_trace(trace, config, flush=flush)
    if batchable and len(trace):
        ladder = _ladder_indices(configs, batchable)
        if ladder:
            ladder_results, ladder_info = rdsim.simulate_ladder_info(
                trace, [configs[index] for index in ladder], flush=flush
            )
            for index, stats in zip(ladder, ladder_results):
                results[index] = stats
            info.profiled_runs = ladder_info.profiled_runs
            info.profile_passes = ladder_info.profile_passes
            info.fallback_runs = ladder_info.fallback_runs
            served = set(ladder)
            batchable = [index for index in batchable if index not in served]
    if batchable:
        batched = vecsim.simulate_batch(
            trace, [configs[index] for index in batchable], flush
        )
        for index, stats in zip(batchable, batched):
            results[index] = stats
    return results, info
