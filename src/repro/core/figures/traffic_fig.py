"""Figures 18-19: components of traffic out the back of the cache.

Transactions per instruction, aggregated over the whole suite
(suite-total transactions / suite-total instructions), for:

- a write-through cache (fetches + write-throughs),
- a write-back cache (fetches + dirty-victim write-backs, with end-of-run
  flush traffic included, as Section 5 prescribes for cold-stop-affected
  runs),
- the write-miss and read-miss components alone (fetch-on-write).

Each point is a pair of ``system``-kind experiments (write-back and
write-through hierarchies over a metered memory), so a warm result store
renders both figures without a single simulation.
"""

from typing import Dict, List

from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy
from repro.core.figures.base import FigureResult
from repro.core.runner import DEFAULT_SEED, experiment_key, resolve
from repro.core.sweep import (
    CACHE_SIZES_KB,
    DEFAULT_CACHE_KB,
    DEFAULT_LINE_B,
    LINE_SIZES_B,
)
from repro.hierarchy.system import HierarchyConfig, LevelConfig
from repro.trace.corpus import BENCHMARK_NAMES


def _one_level(size_kb: int, line_size: int, write_hit) -> HierarchyConfig:
    """A one-level hierarchy over one direct-mapped cache."""
    cache = CacheConfig(size=size_kb * 1024, line_size=line_size, write_hit=write_hit)
    return HierarchyConfig(levels=(LevelConfig(cache=cache),))


def _traffic_figure(
    figure_id: str, title: str, x_label: str, x_values: List[int], geometry,
    scale: float, seed: int,
) -> FigureResult:
    """``geometry(x)`` gives the ``(size_kb, line_size)`` behind one x value."""
    specs = {
        (x, name, write_hit): experiment_key(
            "system",
            name,
            _one_level(*geometry(x), write_hit),
            scale=scale,
            seed=seed,
        )
        for x in x_values
        for name in BENCHMARK_NAMES
        for write_hit in (WriteHitPolicy.WRITE_BACK, WriteHitPolicy.WRITE_THROUGH)
    }
    results = resolve(specs.values())
    series: Dict[str, List[float]] = {
        "write-through": [],
        "write-back": [],
        "write misses": [],
        "read misses": [],
    }
    for x in x_values:
        instructions = 0
        read_misses = write_misses = 0
        wb_transactions = wt_transactions = 0
        for name in BENCHMARK_NAMES:
            wb = results[specs[x, name, WriteHitPolicy.WRITE_BACK]]
            wt = results[specs[x, name, WriteHitPolicy.WRITE_THROUGH]]
            instructions += wb.l1.instructions
            read_misses += wb.l1.fetches_for_reads
            write_misses += wb.l1.fetches_for_writes
            wb_transactions += wb.transactions
            wt_transactions += wt.transactions
        series["write-through"].append(wt_transactions / instructions)
        series["write-back"].append(wb_transactions / instructions)
        series["write misses"].append(write_misses / instructions)
        series["read misses"].append(read_misses / instructions)
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        y_label="back-end transactions per instruction",
        x_values=x_values,
        series=series,
        paper_shape=(
            "write-through traffic varies < 2x (store-dominated); "
            "write-back adds 40-80% transactions over miss traffic from "
            "dirty victims; large drop where working sets start fitting"
        ),
    )


def fig18(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Components of traffic vs cache size (16 B lines)."""
    return _traffic_figure(
        "fig18",
        "Components of traffic vs cache size (16B lines)",
        "cache size (KB)",
        list(CACHE_SIZES_KB),
        lambda kb: (kb, DEFAULT_LINE_B),
        scale,
        seed,
    )


def fig19(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Components of traffic vs cache line size (8 KB caches)."""
    return _traffic_figure(
        "fig19",
        "Components of traffic vs cache line size (8KB caches)",
        "line size (B)",
        list(LINE_SIZES_B),
        lambda line: (DEFAULT_CACHE_KB, line),
        scale,
        seed,
    )
