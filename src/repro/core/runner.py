"""Memoised experiment execution over a persistent result store.

Every figure sweeps the same six traces over overlapping configuration
grids (Fig. 13 and Fig. 14 share all their runs; Fig. 10 shares its
fetch-on-write runs with both), so results resolve through three levels:

1. a per-process memo keyed by :class:`~repro.exec.keys.ExperimentSpec`;
2. the on-disk content-addressed :class:`~repro.exec.store.ResultStore`
   (``$REPRO_RESULT_DIR``, default ``~/.cache/repro/results``; set it to
   ``off`` to disable persistence), which makes repeated figure and
   benchmark regeneration near-instant across processes;
3. computation via the experiment kind's registered runner
   (:mod:`repro.exec.experiments`) — :func:`repro.cache.fastsim.simulate_trace`
   for the ``cache`` kind, the matching simulator family for the others.

:func:`run`/:func:`run_key` keep their historical cache-kind signatures;
:func:`run_experiment`/:func:`experiment_key` are the kind-generic
equivalents every figure family now goes through.  :func:`prefetch`
resolves a whole batch (any mix of kinds) at once, optionally fanning
computation out across worker processes (``jobs > 1``) through
:class:`~repro.exec.pool.ExperimentPool`; parallel results are
bit-identical to serial execution.
"""

from typing import Dict, Iterable, Optional, Sequence

from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.exec.keys import ExperimentSpec, RunKey
from repro.exec.pool import ExperimentPool, PoolTelemetry, default_jobs
from repro.exec.store import ResultStore, open_default_store
from repro.trace.corpus import BENCHMARK_NAMES, DEFAULT_SCALE

DEFAULT_SEED = 1991

_run_cache: Dict[ExperimentSpec, object] = {}

#: Lazily resolved from the environment on first use; ``False`` is the
#: "not yet resolved" sentinel (``None`` is a valid resolved value: off).
_store = False


def get_store() -> Optional[ResultStore]:
    """The process-wide result store (``None`` when persistence is off)."""
    global _store
    if _store is False:
        _store = open_default_store()
    return _store


def set_store(store: Optional[ResultStore]) -> None:
    """Override the process-wide store (tests point this at tmp dirs)."""
    global _store
    _store = store


def reset_store() -> None:
    """Re-resolve the store from the environment on next use."""
    global _store
    _store = False


def experiment_key(
    kind: str,
    workload: str,
    config,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    flush: bool = True,
) -> ExperimentSpec:
    """The content-addressed identity of one experiment of any kind."""
    return ExperimentSpec(
        kind=kind, workload=workload, scale=scale, seed=seed, config=config,
        flush=flush,
    )


def run_key(
    workload: str,
    config: CacheConfig,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    flush: bool = True,
) -> ExperimentSpec:
    """The content-addressed identity of one ``run()`` call (cache kind)."""
    return RunKey(workload=workload, scale=scale, seed=seed, config=config,
                  flush=flush)


def run_experiment(spec: ExperimentSpec):
    """Resolve one experiment of any kind (memo -> store -> compute)."""
    results = ExperimentPool(store=get_store(), jobs=1).run_many(
        [spec], memo=_run_cache
    )
    return next(iter(results.values()))


def run(
    workload: str,
    config: CacheConfig,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
) -> CacheStats:
    """Simulate ``workload`` through ``config`` (memo -> store -> compute)."""
    return run_experiment(run_key(workload, config, scale=scale, seed=seed))


def prefetch(
    keys: Iterable[ExperimentSpec],
    jobs: Optional[int] = None,
    callback=None,
) -> PoolTelemetry:
    """Resolve a batch of experiments into the memo (and store) ahead of use.

    The batch may mix kinds freely — each distinct trace ships to workers
    once however many kinds consume it.  ``jobs=None`` uses
    ``$REPRO_JOBS`` (default 1); ``jobs>1`` computes misses in a process
    pool.  Returns the batch telemetry so callers can report
    memo/store/computed counts.
    """
    pool = ExperimentPool(
        store=get_store(), jobs=default_jobs() if jobs is None else jobs
    )
    pool.run_many(keys, memo=_run_cache, callback=callback)
    return pool.telemetry


def suite_keys(
    configs: Sequence[CacheConfig],
    workloads: Iterable[str] = BENCHMARK_NAMES,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
) -> list:
    """The full configs x workloads grid as a cache-kind spec batch."""
    return [
        run_key(name, config, scale=scale, seed=seed)
        for config in configs
        for name in workloads
    ]


def run_suite(
    config: CacheConfig,
    workloads: Iterable[str] = BENCHMARK_NAMES,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    jobs: Optional[int] = None,
) -> Dict[str, CacheStats]:
    """Simulate every workload through ``config``, preserving order."""
    workloads = list(workloads)
    prefetch(suite_keys([config], workloads, scale=scale, seed=seed), jobs=jobs)
    return {name: run(name, config, scale=scale, seed=seed) for name in workloads}


def clear_run_cache() -> None:
    """Drop memoised results (tests that mutate scale call this).

    Only the in-memory level is dropped; the on-disk store is content
    addressed, so stale reads are impossible and it never needs clearing
    for correctness.
    """
    _run_cache.clear()
