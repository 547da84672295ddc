"""Figure registry: every reproduced table and figure, by id.

``FIGURES`` maps ids like ``"fig13"`` to zero-config driver callables
returning :class:`~repro.core.figures.base.FigureResult` (figures) or
strings (tables).  ``python -m repro.core.figures <id> [...]`` renders any
of them.
"""

from typing import Callable, Dict

from repro.common.errors import ConfigurationError
from repro.core.figures.base import FigureResult
from repro.core.runner import DEFAULT_SEED
from repro.core.figures.write_hits import fig01, fig02
from repro.core.figures.write_buffer_fig import fig05
from repro.core.figures.write_cache_fig import fig07, fig08, fig09
from repro.core.figures.write_miss_fig import (
    fig10,
    fig11,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
)
from repro.core.figures.traffic_fig import fig18, fig19
from repro.core.figures.victims_fig import fig20, fig21, fig22, fig23, fig24, fig25
from repro.core.figures.hierarchy_fig import hier_miss, hier_traffic
from repro.core.figures.tables_fig import table1, table2, table3

#: Every driver, in paper order.
FIGURES: Dict[str, Callable] = {
    "table1": table1,
    "fig01": fig01,
    "fig02": fig02,
    "table2": table2,
    "fig05": fig05,
    "fig07": fig07,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "fig20": fig20,
    "fig21": fig21,
    "fig22": fig22,
    "fig23": fig23,
    "fig24": fig24,
    "fig25": fig25,
    "hier_miss": hier_miss,
    "hier_traffic": hier_traffic,
    "table3": table3,
}


def get_figure(figure_id: str, scale: float = 1.0, seed: int = DEFAULT_SEED):
    """Produce one table/figure by id over the corpus drawn with ``seed``."""
    if figure_id not in FIGURES:
        raise ConfigurationError(
            f"unknown figure {figure_id!r}; choose from {', '.join(FIGURES)}"
        )
    return FIGURES[figure_id](scale=scale, seed=seed)


def render(figure_id: str, scale: float = 1.0, seed: int = DEFAULT_SEED) -> str:
    """Render one table/figure as text."""
    result = get_figure(figure_id, scale=scale, seed=seed)
    if isinstance(result, FigureResult):
        return result.render()
    return str(result)


__all__ = ["FIGURES", "get_figure", "render", "FigureResult"]
