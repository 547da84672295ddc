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

Pass ``backend="vector"`` or ``backend="reference"`` to pin an engine —
tests and benchmarks use this to compare them; ``auto`` (the default)
picks as above.

Grid sweeps should prefer :func:`simulate_trace_batch`, which hands an
entire list of configurations to :func:`vecsim.simulate_batch` so the
trace-side passes are paid once per ``(line_size, num_sets)`` instead of
once per run; unsupported configurations in the batch transparently take
the per-run engines above.

Under the default ``auto`` backend the batch entry point goes one step
further: sub-grids that vary only in cache size (two or more distinct
``num_sets`` at one line size) collapse through the reuse-distance
profiler (:mod:`repro.cache.rdsim`), which serves every size on the
ladder from a single profiling pass.  The profiler is bit-identical to
vecsim for every shape it accepts and falls back to vecsim for the rest,
so results never depend on the route taken.  A pinned ``vector`` backend
bypasses the profiler, so benchmarks can still measure pure vecsim.
"""

from typing import List, Sequence, Tuple

from repro.cache import rdsim, vecsim
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.common.errors import ConfigurationError
from repro.trace.trace import Trace

#: Bump whenever a simulator change can alter the statistics produced for
#: an unchanged (trace, config) pair.  The on-disk result store folds this
#: into every content hash, so a bump invalidates all persisted results.
#: The vectorised kernel — single-run and batched — is bit-identical to
#: the reference ``Cache``, so all engines share one version.
SIMULATOR_VERSION = 1

_BACKENDS = ("auto", "vector", "reference")


def _resolve_backend(backend):
    choice = "auto" if backend is None else backend
    if choice not in _BACKENDS:
        raise ConfigurationError(
            f"unknown simulator backend {choice!r}; expected one of {_BACKENDS}"
        )
    return choice


def _use_reference(config: CacheConfig, choice: str) -> bool:
    """Whether ``choice`` routes ``config`` to the reference ``Cache``.

    Raises when ``vector`` is pinned for a configuration outside the
    vector kernel's shape.
    """
    if choice == "reference":
        return True
    if vecsim.supports(config):
        return False
    if choice != "auto":
        raise ConfigurationError(
            f"backend {choice!r} cannot simulate {config.name}: only the "
            "reference simulator covers set-associative, data-carrying "
            "or sectored configurations"
        )
    return True


def _simulate_reference(trace: Trace, config: CacheConfig, flush: bool) -> CacheStats:
    cache = Cache(config)
    stats = cache.run(trace)
    if flush:
        cache.flush()
    return stats


def simulate_trace(
    trace: Trace, config: CacheConfig, flush: bool = True, backend: str = None
) -> CacheStats:
    """Run ``trace`` through a cache described by ``config``.

    ``flush`` controls whether flush-stop statistics are collected at the
    end of the run (the cache state is discarded either way).  ``backend``
    overrides engine selection (``auto``/``vector``/``reference``;
    default ``auto``).  Every engine produces bit-identical
    :class:`CacheStats`.
    """
    if _use_reference(config, _resolve_backend(backend)):
        return _simulate_reference(trace, config, flush)
    return vecsim.simulate_direct_mapped(trace, config, flush)


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
    trace: Trace,
    configs: Sequence[CacheConfig],
    flush: bool = True,
    backend: str = None,
) -> Tuple[List[CacheStats], rdsim.ProfileInfo]:
    """:func:`simulate_trace_batch` plus how the work was divided.

    The returned :class:`rdsim.ProfileInfo` counts configs served from
    reuse-distance ladder profiles (``profiled_runs``), distinct
    profiling passes (``profile_passes``) and profiler-declined configs
    served by the vecsim fallback inside :func:`rdsim.simulate_ladder`
    (``fallback_runs``); configs that never routed through the profiler
    appear in none of them.  Profiling only engages under the ``auto``
    backend, so pinning ``vector`` measures pure vecsim batching.
    """
    choice = _resolve_backend(backend)
    configs = list(configs)
    results: List[CacheStats] = [None] * len(configs)
    info = rdsim.ProfileInfo()
    batchable = []
    for index, config in enumerate(configs):
        if choice in ("auto", "vector") and vecsim.supports(config):
            batchable.append(index)
        else:
            results[index] = simulate_trace(trace, config, flush=flush, backend=choice)
    if batchable and choice == "auto" and len(trace):
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


def simulate_trace_batch(
    trace: Trace,
    configs: Sequence[CacheConfig],
    flush: bool = True,
    backend: str = None,
) -> List[CacheStats]:
    """Run ``trace`` through every configuration in ``configs``.

    Returns one :class:`CacheStats` per config, in input order, each
    bit-identical to ``simulate_trace(trace, config, flush, backend)``
    for that config alone — the batched kernels share the
    config-independent trace passes, never the semantics.  Under the
    ``auto`` backend, sub-grids spanning two or more cache sizes at one
    line size collapse through the reuse-distance profiler; the rest of
    the supported configs share one :func:`vecsim.simulate_batch` call.
    Configurations the vector kernel does not cover (set-associative,
    data-carrying, sectored) fall back to per-run engines inside the
    batch; a pinned ``reference`` backend runs everything per-run.
    """
    results, _ = simulate_trace_batch_info(trace, configs, flush=flush, backend=backend)
    return results
