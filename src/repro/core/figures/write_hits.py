"""Figures 1-2: write-back vs write-through behaviour on write hits.

Both figures plot the percentage of writes landing on already-dirty lines
in a write-back cache — which, when dirty lines write back in their
entirety, equals the write-traffic reduction write-back caching achieves
over write-through (Section 3's identity).
"""

from repro.core.figures.base import FigureResult
from repro.core.runner import DEFAULT_SEED
from repro.core.sweep import (
    CACHE_SIZES_KB,
    LINE_SIZES_B,
    line_sweep_configs,
    size_sweep_configs,
    sweep_experiments,
)


def fig01(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Write-back vs write-through behaviour for 8 KB caches (by line size)."""
    series = sweep_experiments(
        "cache",
        line_sweep_configs(),
        lambda stats: 100.0 * stats.fraction_writes_to_dirty,
        scale=scale,
        seed=seed,
    )
    return FigureResult(
        figure_id="fig01",
        title="Percentage of writes to already dirty lines vs line size (8KB cache)",
        x_label="line size (B)",
        y_label="% writes to already dirty lines",
        x_values=list(LINE_SIZES_B),
        series=series,
        paper_shape=(
            "rises with line size for every program; linpack/liver worst "
            "(4B ~= 8B, then ~halving of remaining writes per doubling); "
            "average removes the majority of writes even for small lines"
        ),
    )


def fig02(scale: float = 1.0, seed: int = DEFAULT_SEED) -> FigureResult:
    """Write-back vs write-through behaviour for 16 B lines (by cache size)."""
    series = sweep_experiments(
        "cache",
        size_sweep_configs(),
        lambda stats: 100.0 * stats.fraction_writes_to_dirty,
        scale=scale,
        seed=seed,
    )
    return FigureResult(
        figure_id="fig02",
        title="Percentage of writes to already dirty lines vs cache size (16B lines)",
        x_label="cache size (KB)",
        y_label="% writes to already dirty lines",
        x_values=list(CACHE_SIZES_KB),
        series=series,
        paper_shape=(
            "grr/yacc/met reach >= 80%; linpack and liver stay low until "
            "the cache exceeds 64KB; average rises with cache size"
        ),
    )
