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
from repro.core.figures.base import FigureResult, prefetch_specs
from repro.core.runner import experiment_key, run_experiment
from repro.core.sweep import (
    CACHE_SIZES_KB,
    DEFAULT_CACHE_KB,
    DEFAULT_LINE_B,
    LINE_SIZES_B,
)
from repro.hierarchy.system import HierarchyConfig, LevelConfig
from repro.trace.corpus import BENCHMARK_NAMES


def _traffic_configs(size_kb: int, line_size: int):
    """The write-back/write-through config pair behind one x value."""
    return (
        CacheConfig(
            size=size_kb * 1024,
            line_size=line_size,
            write_hit=WriteHitPolicy.WRITE_BACK,
        ),
        CacheConfig(
            size=size_kb * 1024,
            line_size=line_size,
            write_hit=WriteHitPolicy.WRITE_THROUGH,
        ),
    )


def _system_spec(name: str, config: CacheConfig, scale: float):
    """The system-kind spec of a one-level hierarchy over ``config``."""
    hierarchy = HierarchyConfig(levels=(LevelConfig(cache=config),))
    return experiment_key("system", name, hierarchy, scale=scale)


def _traffic_specs(size_kb: int, line_size: int, scale: float):
    """The per-workload system-kind spec pairs behind one x value."""
    wb_config, wt_config = _traffic_configs(size_kb, line_size)
    return [
        (
            _system_spec(name, wb_config, scale),
            _system_spec(name, wt_config, scale),
        )
        for name in BENCHMARK_NAMES
    ]


def _traffic_components(size_kb: int, line_size: int, scale: float) -> Dict[str, float]:
    instructions = 0
    read_misses = write_misses = 0
    wb_transactions = wt_transactions = 0
    for wb_spec, wt_spec in _traffic_specs(size_kb, line_size, scale):
        wb = run_experiment(wb_spec)
        wt = run_experiment(wt_spec)
        instructions += wb.l1.instructions
        read_misses += wb.l1.fetches_for_reads
        write_misses += wb.l1.fetches_for_writes
        wb_transactions += wb.transactions
        wt_transactions += wt.transactions
    return {
        "write-through": wt_transactions / instructions,
        "write-back": wb_transactions / instructions,
        "write misses": write_misses / instructions,
        "read misses": read_misses / instructions,
    }


def _traffic_figure(
    figure_id: str, title: str, x_label: str, x_values: List[int], configs, scale: float
) -> FigureResult:
    series: Dict[str, List[float]] = {
        "write-through": [],
        "write-back": [],
        "write misses": [],
        "read misses": [],
    }
    for x in x_values:
        components = configs(x, scale)
        for key, value in components.items():
            series[key].append(value)
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


def fig18(scale: float = 1.0) -> FigureResult:
    """Components of traffic vs cache size (16 B lines)."""
    prefetch_specs(
        [
            spec
            for kb in CACHE_SIZES_KB
            for pair in _traffic_specs(kb, DEFAULT_LINE_B, scale)
            for spec in pair
        ]
    )
    return _traffic_figure(
        "fig18",
        "Components of traffic vs cache size (16B lines)",
        "cache size (KB)",
        list(CACHE_SIZES_KB),
        lambda kb, s: _traffic_components(kb, DEFAULT_LINE_B, s),
        scale,
    )


def fig19(scale: float = 1.0) -> FigureResult:
    """Components of traffic vs cache line size (8 KB caches)."""
    prefetch_specs(
        [
            spec
            for line in LINE_SIZES_B
            for pair in _traffic_specs(DEFAULT_CACHE_KB, line, scale)
            for spec in pair
        ]
    )
    return _traffic_figure(
        "fig19",
        "Components of traffic vs cache line size (8KB caches)",
        "line size (B)",
        list(LINE_SIZES_B),
        lambda line, s: _traffic_components(DEFAULT_CACHE_KB, line, s),
        scale,
    )
