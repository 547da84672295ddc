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
   (:mod:`repro.exec.experiments`) — one call per same-trace grid,
   :func:`repro.cache.fastsim.simulate_trace_batch_info` for the
   ``cache`` kind, the matching simulator family for the others.

:func:`resolve` is the one entry point: a caller builds its whole grid of
:class:`~repro.exec.keys.ExperimentSpec` (any mix of kinds, usually via
:func:`experiment_key`), resolves it in one
:class:`~repro.exec.pool.ExperimentPool` batch — fanning computation out
across worker processes when ``jobs > 1``, bit-identically to serial
execution — and indexes the returned ``{spec: stats}`` dict.
:func:`run` and :func:`run_suite` are one-config conveniences over it.
"""

from typing import Dict, Iterable, Optional, Sequence

from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.exec.keys import ExperimentSpec
from repro.exec.pool import ExperimentPool, default_jobs
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


def resolve(
    specs: Iterable[ExperimentSpec],
    jobs: Optional[int] = None,
    callback=None,
) -> Dict[ExperimentSpec, object]:
    """Resolve a batch of experiments in one pool call; ``{spec: stats}``.

    The batch may mix kinds freely — each distinct trace ships to workers
    once however many kinds consume it.  ``jobs=None`` uses
    ``$REPRO_JOBS`` (default 1); ``jobs>1`` computes misses in a process
    pool.  Results land in the memo (and store) as well, so a later batch
    over the same specs is served without computing; the batch's counters
    fold into :func:`repro.exec.pool.aggregate_telemetry`.
    """
    pool = ExperimentPool(
        store=get_store(), jobs=default_jobs() if jobs is None else jobs
    )
    return pool.run_many(specs, memo=_run_cache, callback=callback)


def run(
    workload: str,
    config: CacheConfig,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
) -> CacheStats:
    """Simulate ``workload`` through ``config`` (memo -> store -> compute)."""
    spec = experiment_key("cache", workload, config, scale=scale, seed=seed)
    return resolve([spec], jobs=1)[spec]


def suite_keys(
    configs: Sequence[CacheConfig],
    workloads: Iterable[str] = BENCHMARK_NAMES,
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
) -> list:
    """The full configs x workloads grid as a cache-kind spec batch."""
    return [
        experiment_key("cache", name, config, scale=scale, seed=seed)
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
    specs = suite_keys([config], workloads, scale=scale, seed=seed)
    results = resolve(specs, jobs=jobs)
    return {name: results[spec] for name, spec in zip(workloads, specs)}


def clear_run_cache() -> None:
    """Drop memoised results (tests that mutate scale call this).

    Only the in-memory level is dropped; the on-disk store is content
    addressed, so stale reads are impossible and it never needs clearing
    for correctness.
    """
    _run_cache.clear()
