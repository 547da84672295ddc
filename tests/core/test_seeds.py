"""Seed-sensitivity machinery tests (fast, two seeds, small scale)."""

import pytest

from repro.core.seeds import SeedSpread, format_spread, seed_sensitivity

from tests.conftest import TEST_SCALE


class TestSeedSensitivity:
    @pytest.fixture(scope="class")
    def spread(self):
        return seed_sensitivity(
            "fig01", seeds=(1991, 7), scale=TEST_SCALE
        )

    def test_shape(self, spread):
        assert len(spread.means) == len(spread.x_values)
        assert len(spread.mins) == len(spread.maxs) == len(spread.means)

    def test_bounds_ordered(self, spread):
        for low, middle, high in zip(spread.mins, spread.means, spread.maxs):
            assert low <= middle + 1e-9
            assert middle <= high + 1e-9

    def test_seeds_actually_vary_results(self, spread):
        assert spread.max_spread > 0.0

    def test_spread_is_small_relative_to_signal(self, spread):
        """The workload models, not the random draws, carry the curves."""
        assert spread.max_spread < 12.0
        assert max(spread.means) > 40.0

    def test_format(self, spread):
        text = format_spread(spread)
        assert "fig01" in text and "max spread" in text


def test_seed_reaches_hierarchy_figures():
    """The seed must reach every driver, the system-kind ones included."""
    spread = seed_sensitivity("hier_miss", "+victim", seeds=(1991, 7), scale=0.02)
    assert spread.max_spread > 0.0


class TestSpreadDataclass:
    def test_spread_metrics(self):
        spread = SeedSpread(
            "figX", "average", [1, 2], means=[5.0, 6.0], mins=[4.0, 5.5], maxs=[6.0, 6.5]
        )
        assert spread.max_spread == pytest.approx(2.0)
        assert spread.mean_spread == pytest.approx(1.5)
