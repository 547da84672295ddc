"""Figures 10-17: write-miss policy comparisons (Section 4).

All four policies are simulated under a write-through hit policy so the
comparison isolates the miss policy: tag/valid-bit evolution (and hence
demand-fetch counts) is identical between write-through and write-back
for the allocate policies, and the no-allocate policies are only defined
for write-through caches.
"""

from typing import Dict, List

from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.core.figures.base import FigureResult
from repro.core.metrics import (
    mean,
    partial_order_violations,
    total_miss_reduction,
    write_miss_reduction,
)
from repro.core.runner import DEFAULT_SEED, experiment_key, resolve
from repro.core.sweep import (
    CACHE_SIZES_KB,
    DEFAULT_CACHE_KB,
    DEFAULT_LINE_B,
    LINE_SIZES_B,
    size_sweep_configs,
    line_sweep_configs,
    sweep_experiments,
)
from repro.trace.corpus import BENCHMARK_NAMES

#: The three no-fetch strategies compared against fetch-on-write.
STRATEGIES = (
    WriteMissPolicy.WRITE_VALIDATE,
    WriteMissPolicy.WRITE_AROUND,
    WriteMissPolicy.WRITE_INVALIDATE,
)

#: Fetch-on-write, the baseline, followed by the three strategies.
ALL_POLICIES = (WriteMissPolicy.FETCH_ON_WRITE,) + STRATEGIES


def _miss_policy_config(size_kb: int, line_size: int, policy: WriteMissPolicy) -> CacheConfig:
    return CacheConfig(
        size=size_kb * 1024,
        line_size=line_size,
        write_hit=WriteHitPolicy.WRITE_THROUGH,
        write_miss=policy,
    )


def fig10(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Write misses as a percent of all misses vs cache size (16 B lines)."""
    series = sweep_experiments(
        "cache",
        size_sweep_configs(write_hit=WriteHitPolicy.WRITE_THROUGH),
        lambda stats: 100.0 * stats.write_miss_fraction,
        scale=scale,
        seed=seed,
    )
    return FigureResult(
        figure_id="fig10",
        title="Write misses as a percent of all misses vs cache size (16B lines)",
        x_label="cache size (KB)",
        y_label="% of misses due to writes",
        x_values=list(CACHE_SIZES_KB),
        series=series,
        paper_shape=(
            "varies dramatically by benchmark; about one-third of all "
            "misses on average — stores are about as likely to miss as "
            "loads despite being 2.4x rarer"
        ),
    )


def fig11(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Write misses as a percent of all misses vs line size (8 KB caches)."""
    series = sweep_experiments(
        "cache",
        line_sweep_configs(write_hit=WriteHitPolicy.WRITE_THROUGH),
        lambda stats: 100.0 * stats.write_miss_fraction,
        scale=scale,
        seed=seed,
    )
    return FigureResult(
        figure_id="fig11",
        title="Write misses as a percent of all misses vs line size (8KB caches)",
        x_label="line size (B)",
        y_label="% of misses due to writes",
        x_values=list(LINE_SIZES_B),
        series=series,
        paper_shape="roughly flat around one-third on average",
    )


def _reduction_figure(
    figure_id: str,
    title: str,
    x_label: str,
    x_values: List[int],
    configs_for,
    metric,
    scale: float,
    seed: int,
    paper_shape: str,
) -> FigureResult:
    """Shared machinery of Figs 13-16.

    ``configs_for(x, policy)`` builds the configuration; ``metric`` is
    :func:`write_miss_reduction` or :func:`total_miss_reduction`.
    """
    # One pool batch for the whole x-axis x policy grid: every workload's
    # configurations land in a single batched task.
    specs = {
        (x, policy, name): experiment_key(
            "cache", name, configs_for(x, policy), scale=scale, seed=seed
        )
        for x in x_values
        for policy in ALL_POLICIES
        for name in BENCHMARK_NAMES
    }
    results = resolve(specs.values())
    per_workload: Dict[str, Dict[str, List[float]]] = {
        policy.value: {name: [] for name in BENCHMARK_NAMES} for policy in STRATEGIES
    }
    series: Dict[str, List[float]] = {policy.value: [] for policy in STRATEGIES}
    for x in x_values:
        for policy in STRATEGIES:
            values = []
            for name in BENCHMARK_NAMES:
                value = metric(
                    results[specs[x, WriteMissPolicy.FETCH_ON_WRITE, name]],
                    results[specs[x, policy, name]],
                )
                per_workload[policy.value][name].append(value)
                values.append(value)
            series[policy.value].append(mean(values))
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        y_label="% misses removed vs fetch-on-write",
        x_values=x_values,
        series=series,
        paper_shape=paper_shape,
        extra={"per_workload": per_workload},
    )


def fig13(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Write-miss rate reductions of three write strategies (16 B lines)."""
    return _reduction_figure(
        "fig13",
        "Write miss rate reductions of three write strategies (16B lines)",
        "cache size (KB)",
        list(CACHE_SIZES_KB),
        lambda kb, policy: _miss_policy_config(kb, DEFAULT_LINE_B, policy),
        write_miss_reduction,
        scale,
        seed,
        paper_shape=(
            "write-validate > 90% on average; write-around 40-65%; "
            "write-invalidate 30-50%; write-around exceeds 100% on liver "
            "at 32-64KB (old inputs stay resident, also saving read misses)"
        ),
    )


def fig14(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Total miss rate reductions of three write strategies (16 B lines)."""
    return _reduction_figure(
        "fig14",
        "Total miss rate reductions of three write strategies (16B lines)",
        "cache size (KB)",
        list(CACHE_SIZES_KB),
        lambda kb, policy: _miss_policy_config(kb, DEFAULT_LINE_B, policy),
        total_miss_reduction,
        scale,
        seed,
        paper_shape=(
            "write-validate removes 30-35% of all misses on average "
            "(ccom and liver benefit most; linpack least, being "
            "read-modify-write); write-around 15-25%; write-invalidate "
            "10-20%"
        ),
    )


def fig15(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Write-miss rate reductions of three write strategies (8 KB caches)."""
    return _reduction_figure(
        "fig15",
        "Write miss rate reductions of three write strategies (8KB caches)",
        "line size (B)",
        list(LINE_SIZES_B),
        lambda line, policy: _miss_policy_config(DEFAULT_CACHE_KB, line, policy),
        write_miss_reduction,
        scale,
        seed,
        paper_shape=(
            "highest benefit at small lines; advantages shrink as line "
            "size grows (more of the fetched old data would have been "
            "needed / more information is thrown away)"
        ),
    )


def fig16(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Total miss rate reductions of three write strategies (8 KB caches)."""
    return _reduction_figure(
        "fig16",
        "Total miss rate reduction of three write strategies (8KB caches)",
        "line size (B)",
        list(LINE_SIZES_B),
        lambda line, policy: _miss_policy_config(DEFAULT_CACHE_KB, line, policy),
        total_miss_reduction,
        scale,
        seed,
        paper_shape=(
            "validate and around beat invalidate, which still beats "
            "fetch-on-write; validate/around gap narrows with line size"
        ),
    )


def fig17(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Relative order of fetch traffic for write-miss alternatives.

    Verifies the Hasse diagram over every configuration of both standard
    sweeps: fetch traffic of write-validate and write-around never exceeds
    write-invalidate, which never exceeds fetch-on-write.
    """
    size_points = [(size_kb, DEFAULT_LINE_B) for size_kb in CACHE_SIZES_KB]
    line_points = [(DEFAULT_CACHE_KB, line_size) for line_size in LINE_SIZES_B]
    # Both sweeps' grids in one batch (the 8KB/16B point they share
    # appears once).
    specs = {
        (geometry, policy, name): experiment_key(
            "cache",
            name,
            _miss_policy_config(*geometry, policy),
            scale=scale,
            seed=seed,
        )
        for geometry in size_points + line_points
        for policy in ALL_POLICIES
        for name in BENCHMARK_NAMES
    }
    results = resolve(specs.values())

    def stats_by_policy(geometry, name):
        return {
            policy: results[specs[geometry, policy, name]] for policy in ALL_POLICIES
        }

    violations: List[str] = []
    series: Dict[str, List[float]] = {policy.value: [] for policy in ALL_POLICIES}
    for geometry in size_points:
        totals = {policy: 0 for policy in ALL_POLICIES}
        for name in BENCHMARK_NAMES:
            by_policy = stats_by_policy(geometry, name)
            for violation in partial_order_violations(by_policy):
                violations.append(f"{name}@{geometry[0]}KB: {violation}")
            for policy, stats in by_policy.items():
                totals[policy] += stats.fetches
        for policy in ALL_POLICIES:
            series[policy.value].append(totals[policy] / 1000.0)
    # Line-size sweep checked for violations only (no extra series).
    for geometry in line_points:
        for name in BENCHMARK_NAMES:
            for violation in partial_order_violations(stats_by_policy(geometry, name)):
                violations.append(f"{name}@{geometry[1]}B: {violation}")
    return FigureResult(
        figure_id="fig17",
        title="Relative order of fetch traffic for write miss alternatives",
        x_label="cache size (KB)",
        y_label="total suite fetches (thousands)",
        x_values=list(CACHE_SIZES_KB),
        series=series,
        notes=(
            f"{len(violations)} partial-order violations"
            + (": " + "; ".join(violations[:5]) if violations else "")
        ),
        paper_shape=(
            "write-validate <= / write-around <= write-invalidate <= "
            "fetch-on-write; validate vs around incomparable (liver)"
        ),
        extra={"violations": violations},
    )
