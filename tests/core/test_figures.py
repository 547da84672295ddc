"""Smoke + structural tests of every figure driver at reduced scale."""

import pytest

from repro.core.figures import FIGURES, get_figure, render
from repro.core.figures.base import FigureResult
from repro.core.figures.write_miss_fig import STRATEGIES
from repro.trace.corpus import BENCHMARK_NAMES

from tests.conftest import TEST_SCALE

#: Figure ids that return FigureResult (the rest return table strings).
FIGURE_IDS = [fid for fid in FIGURES if fid.startswith("fig")]
TABLE_IDS = [fid for fid in FIGURES if fid.startswith("table")]


class TestRegistry:
    def test_every_paper_artifact_present(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "fig01",
            "fig02",
            "fig05",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "fig20",
            "fig21",
            "fig22",
            "fig23",
            "fig24",
            "fig25",
            "hier_miss",
            "hier_traffic",
        }
        assert set(FIGURES) == expected

    def test_unknown_figure_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            get_figure("fig99")


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_figure_structure(figure_id):
    result = get_figure(figure_id, scale=TEST_SCALE)
    assert isinstance(result, FigureResult)
    assert result.figure_id == figure_id
    assert result.title
    assert result.x_values
    assert result.series
    for name, values in result.series.items():
        assert len(values) == len(result.x_values), name
        for value in values:
            assert value == value, f"NaN in {figure_id}/{name}"
    text = result.render()
    assert result.title in text
    assert "legend" in text


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_figure_resolves_its_grid_in_one_batch(figure_id, monkeypatch):
    """A (warm) render reads every point from one pool batch."""
    from repro.exec.pool import ExperimentPool

    batches = []
    run_many = ExperimentPool.run_many

    def counted(self, keys, *args, **kwargs):
        batches.append(keys)
        return run_many(self, keys, *args, **kwargs)

    monkeypatch.setattr(ExperimentPool, "run_many", counted)
    get_figure(figure_id, scale=TEST_SCALE)
    assert len(batches) == 1


@pytest.mark.parametrize("table_id", TABLE_IDS)
def test_table_renders(table_id):
    text = get_figure(table_id, scale=TEST_SCALE)
    assert isinstance(text, str)
    assert "Table" in text


class TestSeriesContents:
    def test_per_benchmark_figures_have_all_curves(self):
        for figure_id in ("fig01", "fig02", "fig07", "fig10"):
            result = get_figure(figure_id, scale=TEST_SCALE)
            for name in BENCHMARK_NAMES:
                assert name in result.series, (figure_id, name)
            assert "average" in result.series

    def test_strategy_figures_have_three_curves(self):
        for figure_id in ("fig13", "fig14", "fig15", "fig16"):
            result = get_figure(figure_id, scale=TEST_SCALE)
            assert set(result.series) == {policy.value for policy in STRATEGIES}
            assert set(result.extra["per_workload"]) == set(result.series)

    def test_percent_figures_in_range(self):
        for figure_id in ("fig01", "fig02", "fig10", "fig11", "fig20", "fig21", "fig22"):
            result = get_figure(figure_id, scale=TEST_SCALE)
            for name, values in result.series.items():
                for value in values:
                    assert -0.01 <= value <= 100.01, (figure_id, name, value)

    def test_fig17_no_partial_order_violations(self):
        result = get_figure("fig17", scale=TEST_SCALE)
        assert result.extra["violations"] == []

    def test_fig18_traffic_components(self):
        result = get_figure("fig18", scale=TEST_SCALE)
        assert set(result.series) == {
            "write-through",
            "write-back",
            "write misses",
            "read misses",
        }
        # Write-through totals dominate each component everywhere.
        for index in range(len(result.x_values)):
            assert result.series["write-through"][index] >= result.series["read misses"][index]

    def test_value_lookup(self):
        result = get_figure("fig02", scale=TEST_SCALE)
        assert result.value("average", 8) == result.series["average"][3]
        with pytest.raises(ValueError):
            result.value("average", 3)


class TestHierarchyPanels:
    """The mechanism-comparison panels, on a trimmed L1 grid.

    The full five-size grid is 150 composed two-level runs — an
    integration-scale cost — so the structural test shrinks the swept
    axis; everything else (variants, metrics, ordering) is the real
    driver code path.
    """

    @pytest.fixture(scope="class")
    def panels(self):
        from repro.core.figures import hierarchy_fig

        sizes = hierarchy_fig.L1_SIZES_KB
        hierarchy_fig.L1_SIZES_KB = (1, 4)
        try:
            yield {
                fid: get_figure(fid, scale=0.05)
                for fid in ("hier_miss", "hier_traffic")
            }
        finally:
            hierarchy_fig.L1_SIZES_KB = sizes

    def test_structure(self, panels):
        from repro.core.figures.hierarchy_fig import VARIANTS

        for fid, result in panels.items():
            assert isinstance(result, FigureResult)
            assert result.figure_id == fid
            assert result.x_values == [1, 4]
            assert list(result.series) == [label for label, _ in VARIANTS]
            assert result.title in result.render()

    def test_every_structure_cuts_the_miss_ratio(self, panels):
        series = panels["hier_miss"].series
        for label in ("+victim", "+miss", "+stream", "combined"):
            for with_structure, baseline in zip(series[label], series["baseline"]):
                assert with_structure < baseline, label
        # Combined stacks all three, so it beats each alone.
        for label in ("+victim", "+miss", "+stream"):
            for combined, alone in zip(series["combined"], series[label]):
                assert combined <= alone, label

    def test_victim_and_miss_caches_never_add_traffic(self, panels):
        series = panels["hier_traffic"].series
        for label in ("+victim", "+miss"):
            for with_structure, baseline in zip(series[label], series["baseline"]):
                assert with_structure <= baseline, label

    def test_stream_prefetches_are_real_boundary_traffic(self, panels):
        series = panels["hier_traffic"].series
        for with_streams, baseline in zip(series["+stream"], series["baseline"]):
            assert with_streams > baseline


class TestCli:
    def test_main_renders_requested(self, capsys):
        from repro.core.figures.__main__ import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_main_with_scale(self, capsys):
        from repro.core.figures.__main__ import main

        assert main(["fig01", "--scale", str(TEST_SCALE)]) == 0
        assert "fig01" in capsys.readouterr().out
