"""Unit tests for repro.core.runner and repro.core.sweep."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.core.runner import clear_run_cache, experiment_key, resolve, run, run_suite
from repro.core.sweep import (
    CACHE_SIZES_KB,
    LINE_SIZES_B,
    config_grid,
    line_sweep_configs,
    size_sweep_configs,
    sweep_experiments,
)
from repro.trace.corpus import BENCHMARK_NAMES

from tests.conftest import TEST_SCALE


class TestRunner:
    def test_memoised(self):
        config = CacheConfig(size=1024, line_size=16)
        first = run("grr", config, scale=TEST_SCALE)
        second = run("grr", config, scale=TEST_SCALE)
        assert first is second

    def test_distinct_configs_distinct_results(self):
        a = run("grr", CacheConfig(size=1024, line_size=16), scale=TEST_SCALE)
        b = run("grr", CacheConfig(size=2048, line_size=16), scale=TEST_SCALE)
        assert a is not b
        assert a.fetches != b.fetches

    def test_run_suite_order(self):
        results = run_suite(CacheConfig(size=1024, line_size=16), scale=TEST_SCALE)
        assert tuple(results) == BENCHMARK_NAMES

    def test_resolve_returns_every_spec(self):
        specs = [
            experiment_key("cache", name, CacheConfig(size=1024, line_size=16),
                           scale=TEST_SCALE)
            for name in ("grr", "ccom", "grr")
        ]
        results = resolve(specs)
        assert list(results) == specs[:2]
        assert results[specs[0]] is run("grr", specs[0].config, scale=TEST_SCALE)

    def test_clear_run_cache(self):
        config = CacheConfig(size=512, line_size=16)
        first = run("liver", config, scale=TEST_SCALE)
        clear_run_cache()
        second = run("liver", config, scale=TEST_SCALE)
        assert first is not second
        assert first.fetches == second.fetches


class TestSweepGrids:
    def test_standard_axes(self):
        assert CACHE_SIZES_KB == (1, 2, 4, 8, 16, 32, 64, 128)
        assert LINE_SIZES_B == (4, 8, 16, 32, 64)

    def test_size_sweep_configs(self):
        configs = size_sweep_configs()
        assert [c.size for c in configs] == [kb * 1024 for kb in CACHE_SIZES_KB]
        assert all(c.line_size == 16 for c in configs)

    def test_line_sweep_configs(self):
        configs = line_sweep_configs()
        assert [c.line_size for c in configs] == list(LINE_SIZES_B)
        assert all(c.size == 8192 for c in configs)

    def test_config_grid_policies(self):
        configs = config_grid(
            (1, 2),
            (16,),
            WriteHitPolicy.WRITE_THROUGH,
            WriteMissPolicy.WRITE_AROUND,
        )
        assert all(c.write_miss is WriteMissPolicy.WRITE_AROUND for c in configs)

    def test_sweep_produces_average(self):
        configs = config_grid((1, 4))
        series = sweep_experiments(
            "cache", configs, lambda s: s.miss_ratio, scale=TEST_SCALE
        )
        assert set(series) == set(BENCHMARK_NAMES) | {"average"}
        assert len(series["average"]) == 2
        for index in range(2):
            expected = sum(series[n][index] for n in BENCHMARK_NAMES) / 6
            assert series["average"][index] == pytest.approx(expected)

    def test_miss_ratio_decreases_with_size(self):
        configs = config_grid((1, 8, 64))
        series = sweep_experiments(
            "cache", configs, lambda s: s.miss_ratio, scale=TEST_SCALE
        )
        average = series["average"]
        assert average[0] > average[1] > average[2]
