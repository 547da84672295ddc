"""Common result container for figure drivers.

Each driver produces a :class:`FigureResult`: the x axis, one named series
per curve (per benchmark and/or per policy, plus the average), and enough
labelling to render the same rows/series the paper plots.

Every driver resolves its whole grid once — one
:func:`repro.core.runner.resolve` batch, directly or through
:func:`repro.core.sweep.sweep_experiments` — and reads its points from
the returned dict, so first-time rendering parallelises across workers
and re-rendering is served entirely from the result store.  Drivers take
``scale`` and ``seed``; the seed picks the synthetic corpus's random
draw.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.common.render import ascii_chart, format_series_table


@dataclass
class FigureResult:
    """One reproduced table or figure."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    x_values: Sequence
    series: Dict[str, List[float]]
    notes: str = ""
    paper_shape: str = ""  #: the qualitative shape the paper reports
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, values in self.series.items():
            if len(values) != len(self.x_values):
                raise ValueError(
                    f"series {name!r} has {len(values)} points for "
                    f"{len(self.x_values)} x values"
                )

    def value(self, series_name: str, x_value) -> float:
        """Look up one data point by series name and x value."""
        return self.series[series_name][list(self.x_values).index(x_value)]

    def to_csv(self) -> str:
        """Comma-separated export: header row, then one row per x value."""
        lines = [",".join([self.x_label] + list(self.series))]
        for index, x_value in enumerate(self.x_values):
            cells = [str(x_value)] + [
                f"{values[index]:.6g}" for values in self.series.values()
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def render(self, chart: bool = True) -> str:
        """Human-readable reproduction of the figure."""
        parts = [
            format_series_table(
                self.x_label,
                self.x_values,
                self.series,
                title=f"{self.figure_id}: {self.title}",
            )
        ]
        if chart:
            parts.append("")
            parts.append(ascii_chart(self.x_values, self.series, y_label=self.y_label))
        if self.paper_shape:
            parts.append("")
            parts.append(f"paper shape: {self.paper_shape}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)
