"""The paper's standard parameter grids and sweep helpers.

Two orthogonal sweeps recur through every section:

- cache size 1 KB - 128 KB at 16 B lines (Figs 2, 10, 13, 14, 18, 20-22);
- line size 4 B - 64 B at 8 KB capacity (Figs 1, 11, 15, 16, 19, 23-25).
"""

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.core.runner import DEFAULT_SEED, experiment_key, resolve
from repro.trace.corpus import BENCHMARK_NAMES

#: Fig. 2 / Fig. 10 x-axis: cache capacity in KB, 16 B lines.
CACHE_SIZES_KB: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128)

#: Fig. 1 / Fig. 11 x-axis: line size in bytes, 8 KB capacity.
LINE_SIZES_B: Sequence[int] = (4, 8, 16, 32, 64)

#: The fixed parameter of each sweep.
DEFAULT_CACHE_KB = 8
DEFAULT_LINE_B = 16


def config_grid(
    sizes_kb: Iterable[int] = CACHE_SIZES_KB,
    line_sizes: Iterable[int] = (DEFAULT_LINE_B,),
    write_hit: WriteHitPolicy = WriteHitPolicy.WRITE_BACK,
    write_miss: WriteMissPolicy = WriteMissPolicy.FETCH_ON_WRITE,
) -> List[CacheConfig]:
    """Cartesian product of sizes and line sizes at fixed policies."""
    return [
        CacheConfig(
            size=size_kb * 1024,
            line_size=line_size,
            write_hit=write_hit,
            write_miss=write_miss,
        )
        for size_kb in sizes_kb
        for line_size in line_sizes
    ]


def sweep_grid(
    kind: str,
    configs: Sequence,
    workloads: Sequence[str] = BENCHMARK_NAMES,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    jobs: Optional[int] = None,
    flush: bool = True,
    callback=None,
) -> Dict[str, List]:
    """Resolve the configs x workloads grid of ``kind`` in one batch.

    Returns each workload's stats in ``configs`` order.  The batch goes
    through the experiment pool (parallel when ``jobs`` /
    ``$REPRO_JOBS`` says so, served from the result store on reruns).
    """
    # Workload-major order: each workload's whole config grid is
    # contiguous, so the pool's batched dispatch sees one maximal group
    # per trace and serial execution reuses each trace plan back to back.
    # Handing the grid over whole also lets batch dispatch collapse its
    # size axis: every cache size sharing a line size is served from one
    # reuse-distance ladder profile (see repro.cache.rdsim).
    specs = {
        name: [
            experiment_key(kind, name, config, scale=scale, seed=seed, flush=flush)
            for config in configs
        ]
        for name in workloads
    }
    results = resolve(
        [spec for row in specs.values() for spec in row],
        jobs=jobs,
        callback=callback,
    )
    return {name: [results[spec] for spec in row] for name, row in specs.items()}


def metric_series(grid: Dict[str, List], metric: Callable) -> Dict[str, List[float]]:
    """``metric`` over a :func:`sweep_grid`: one series per workload plus
    an ``"average"`` series — the unweighted mean across benchmarks, which
    is how the paper draws its bold average curves."""
    series = {name: [metric(stats) for stats in row] for name, row in grid.items()}
    series["average"] = [sum(column) / len(grid) for column in zip(*series.values())]
    return series


def sweep_experiments(
    kind: str,
    configs: Sequence,
    metric: Callable,
    workloads: Sequence[str] = BENCHMARK_NAMES,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    jobs: Optional[int] = None,
    flush: bool = True,
    callback=None,
) -> Dict[str, List[float]]:
    """Evaluate ``metric`` for each workload across ``configs`` of ``kind``
    (:func:`metric_series` over one :func:`sweep_grid` batch)."""
    return metric_series(
        sweep_grid(
            kind,
            configs,
            workloads=workloads,
            scale=scale,
            seed=seed,
            jobs=jobs,
            flush=flush,
            callback=callback,
        ),
        metric,
    )


def size_sweep_configs(
    write_hit: WriteHitPolicy = WriteHitPolicy.WRITE_BACK,
    write_miss: WriteMissPolicy = WriteMissPolicy.FETCH_ON_WRITE,
    line_size: int = DEFAULT_LINE_B,
) -> List[CacheConfig]:
    """The standard cache-size sweep at 16 B lines."""
    return config_grid(CACHE_SIZES_KB, (line_size,), write_hit, write_miss)


def line_sweep_configs(
    write_hit: WriteHitPolicy = WriteHitPolicy.WRITE_BACK,
    write_miss: WriteMissPolicy = WriteMissPolicy.FETCH_ON_WRITE,
    size_kb: int = DEFAULT_CACHE_KB,
) -> List[CacheConfig]:
    """The standard line-size sweep at 8 KB capacity."""
    return config_grid((size_kb,), LINE_SIZES_B, write_hit, write_miss)
