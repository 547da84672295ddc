"""Seed-sensitivity analysis for the synthetic corpus.

The substrate is synthetic, so every reproduced number carries a
question: how much of it is the workload *model* and how much is one
particular random draw?  These helpers re-measure a figure's average
series under several generator seeds and report the spread, which the
robustness bench asserts is small relative to the effects the paper
reports.
"""

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.figures import get_figure
from repro.core.metrics import mean

DEFAULT_SEEDS: Sequence[int] = (1991, 7, 42, 1234)


@dataclass(frozen=True)
class SeedSpread:
    """Per-x-value spread of one series across seeds."""

    figure_id: str
    series_name: str
    x_values: Sequence
    means: List[float]
    mins: List[float]
    maxs: List[float]

    @property
    def max_spread(self) -> float:
        """Largest (max - min) across the x axis."""
        return max(hi - lo for hi, lo in zip(self.maxs, self.mins))

    @property
    def mean_spread(self) -> float:
        """Average (max - min) across the x axis."""
        return mean([hi - lo for hi, lo in zip(self.maxs, self.mins)])


def seed_sensitivity(
    figure_id: str,
    series_name: str = "average",
    seeds: Sequence[int] = DEFAULT_SEEDS,
    scale: float = 1.0,
) -> SeedSpread:
    """Measure one series of one figure across several workload seeds.

    Each seed renders the figure over the corpus generated with that
    seed, so this is exactly "regenerate the programs with different
    random draws and redo the experiment".
    """
    per_seed: List[List[float]] = []
    x_values = None
    for seed in seeds:
        result = get_figure(figure_id, scale=scale, seed=seed)
        x_values = result.x_values
        per_seed.append(list(result.series[series_name]))

    points = len(x_values)
    means = [mean([series[i] for series in per_seed]) for i in range(points)]
    mins = [min(series[i] for series in per_seed) for i in range(points)]
    maxs = [max(series[i] for series in per_seed) for i in range(points)]
    return SeedSpread(figure_id, series_name, x_values, means, mins, maxs)


def format_spread(spread: SeedSpread) -> str:
    """One-line summary for reports."""
    return (
        f"{spread.figure_id}/{spread.series_name}: mean spread "
        f"{spread.mean_spread:.2f}, max spread {spread.max_spread:.2f} "
        f"over {len(spread.means)} points"
    )
