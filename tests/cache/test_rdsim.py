"""Differential contract for the reuse-distance ladder profiler.

``rdsim`` serves an entire ladder of cache sizes from one profiling pass,
so its contract is the same as the batched kernel's: bit-identical
statistics to ``vecsim`` for every supported configuration, for every
policy combination, across the full line-size range (including the
multi-lane >64 B widths), flush on and off.  These sweeps are what let
the profiler share ``SIMULATOR_VERSION`` with the other engines.

The dispatch tests pin the routing rules: size-only sub-grids collapse
through the profiler only under the ``auto`` backend, a pinned
``vector`` backend keeps the pure batched path, and the pool's telemetry
reports how many runs the profiler served.
"""

import pytest
from test_vecsim import COMBOS, assert_stats_equal, seeded_trace

from repro.cache import rdsim, vecsim
from repro.cache.config import CacheConfig
from repro.cache.fastsim import simulate_trace, simulate_trace_batch_info
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.core.runner import experiment_key
from repro.exec.pool import ExperimentPool
from repro.trace.corpus import load
from repro.trace.trace import Trace


def ladder_configs(line_size, levels=6, hit=None, miss=None, granularity=None):
    """``levels`` power-of-two sizes from one line upward at ``line_size``."""
    hit = hit if hit is not None else WriteHitPolicy.WRITE_BACK
    miss = miss if miss is not None else WriteMissPolicy.FETCH_ON_WRITE
    kwargs = {}
    if granularity is not None:
        kwargs["valid_granularity"] = granularity
    return [
        CacheConfig(
            size=line_size * (1 << level),
            line_size=line_size,
            write_hit=hit,
            write_miss=miss,
            **kwargs,
        )
        for level in range(levels)
    ]


def assert_ladder_matches_vecsim(trace, configs, flush):
    profiled = rdsim.simulate_ladder(trace, configs, flush=flush)
    for config, stats in zip(configs, profiled):
        expected = vecsim.simulate_direct_mapped(trace, config, flush)
        assert_stats_equal(stats, expected, f"{config.describe()} flush={flush}")


class TestDifferentialLadder:
    """Profiler == vecsim, stat for stat, across policies and geometries."""

    @pytest.mark.parametrize("hit,miss", COMBOS)
    @pytest.mark.parametrize("line_size", [4, 16, 64])
    def test_policy_ladder(self, hit, miss, line_size):
        for seed, count in ((11, 0), (12, 1), (13, 37), (14, 700)):
            trace = seeded_trace(seed, count)
            configs = ladder_configs(line_size, hit=hit, miss=miss)
            for flush in (True, False):
                assert_ladder_matches_vecsim(trace, configs, flush)

    @pytest.mark.parametrize("line_size", [128, 256])
    @pytest.mark.parametrize("hit,miss", COMBOS)
    def test_multi_lane_lines(self, hit, miss, line_size):
        # >64 B lines exercise the multi-lane byte masks in the shared
        # plan and the profiler's chunked write-validate coverage.
        trace = seeded_trace(21, 400, addr_bits=14)
        configs = ladder_configs(line_size, levels=4, hit=hit, miss=miss)
        assert_ladder_matches_vecsim(trace, configs, flush=True)

    @pytest.mark.parametrize("granularity", [4, 8, 16])
    def test_validate_granularities(self, granularity):
        trace = seeded_trace(31, 500)
        for hit in (WriteHitPolicy.WRITE_BACK, WriteHitPolicy.WRITE_THROUGH):
            configs = ladder_configs(
                16,
                hit=hit,
                miss=WriteMissPolicy.WRITE_VALIDATE,
                granularity=granularity,
            )
            assert_ladder_matches_vecsim(trace, configs, flush=True)

    def test_subblock_dirty_writeback(self):
        trace = seeded_trace(41, 600)
        configs = [
            CacheConfig(
                size=16 * (1 << level),
                line_size=16,
                write_hit=WriteHitPolicy.WRITE_BACK,
                write_miss=miss,
                subblock_dirty_writeback=True,
            )
            for level in range(6)
            for miss in (
                WriteMissPolicy.FETCH_ON_WRITE,
                WriteMissPolicy.WRITE_VALIDATE,
            )
        ]
        assert_ladder_matches_vecsim(trace, configs, flush=True)

    def test_sparse_trace_saturates_top_of_ladder(self):
        # A trace touching very few distinct lines makes the upper ladder
        # levels trivially conflict-free (one line per set) and leaves
        # adjacent levels with identical set partitions — the profiler's
        # copy-previous and saturation shortcuts must stay bit-identical.
        trace = seeded_trace(51, 300, addr_bits=7)
        for hit, miss in COMBOS:
            configs = ladder_configs(16, levels=9, hit=hit, miss=miss)
            for flush in (True, False):
                assert_ladder_matches_vecsim(trace, configs, flush)

    def test_figs_13_16_grid_on_real_workloads(self):
        # The target shape: every legal policy combination across the
        # paper's full cache-size axis at 16 B lines, on real workloads.
        sizes_kb = (1, 2, 4, 8, 16, 32, 64, 128)
        configs = [
            CacheConfig(
                size=kb * 1024, line_size=16, write_hit=hit, write_miss=miss
            )
            for hit, miss in COMBOS
            for kb in sizes_kb
        ]
        for name in ("ccom", "grr"):
            trace = load(name, scale=0.05, seed=1991)
            profiled = rdsim.simulate_ladder(trace, configs, flush=True)
            batched = vecsim.simulate_batch(trace, configs, True)
            for config, a, b in zip(configs, profiled, batched):
                assert_stats_equal(a, b, f"{name}:{config.describe()}")


class TestShapesAndFallback:
    def test_supports_mirrors_vecsim(self):
        direct = CacheConfig(size=1024, line_size=16)
        assoc = CacheConfig(size=1024, line_size=16, associativity=2)
        assert rdsim.supports(direct)
        assert rdsim.supports(assoc) == vecsim.supports(assoc) == False

    def test_empty_trace_and_empty_grid(self):
        empty = Trace([], [], [], [], name="empty")
        configs = ladder_configs(16)
        results, info = rdsim.simulate_ladder_info(empty, configs, flush=True)
        for config, stats in zip(configs, results):
            assert_stats_equal(
                stats, vecsim.simulate_direct_mapped(empty, config, True)
            )
        assert info.profiled_runs == 0
        assert rdsim.simulate_ladder(seeded_trace(61, 10), []) == []

    def test_input_order_preserved_across_mixed_grid(self):
        # Interleave line sizes and cache sizes so profile routing has to
        # scatter results back into the caller's order.
        trace = seeded_trace(62, 500)
        configs = []
        for level in range(5):
            for line_size in (8, 32):
                configs.append(
                    CacheConfig(size=line_size * (1 << level), line_size=line_size)
                )
        profiled, info = rdsim.simulate_ladder_info(trace, configs, flush=True)
        assert info.profile_passes == 2
        assert info.profiled_runs == len(configs)
        for config, stats in zip(configs, profiled):
            assert stats.line_size == config.line_size
            assert_stats_equal(
                stats,
                vecsim.simulate_direct_mapped(trace, config, True),
                config.describe(),
            )

    def test_wide_validate_coverage_declines_to_fallback(self):
        # 4 B-aligned stores on 256 B lines need 64 coverage columns —
        # past MAX_COVERAGE_COLUMNS the profiler declines write-validate
        # and the vecsim fallback must serve those configs, still
        # bit-identically and without disturbing the profiled ones.
        trace = seeded_trace(63, 400, addr_bits=14)
        fow = ladder_configs(256, levels=3)
        validate = ladder_configs(
            256, levels=3, miss=WriteMissPolicy.WRITE_VALIDATE, granularity=4
        )
        configs = fow + validate
        results, info = rdsim.simulate_ladder_info(trace, configs, flush=True)
        assert info.fallback_runs == len(validate)
        assert info.profiled_runs == len(fow)
        for config, stats in zip(configs, results):
            assert_stats_equal(
                stats,
                vecsim.simulate_direct_mapped(trace, config, True),
                config.describe(),
            )


def profiled_grid_specs(workload="ccom"):
    """A pool batch whose size axis should collapse through the profiler."""
    return [
        experiment_key(
            "cache",
            workload,
            CacheConfig(size=size, line_size=16),
            scale=0.05,
            flush=True,
        )
        for size in (1024, 2048, 4096, 8192)
    ]


class TestDispatchToggles:
    """Route choices: same stats, different routes."""

    def test_pinned_vector_backend_bypasses_profiler(self):
        trace = seeded_trace(73, 200)
        configs = ladder_configs(16)
        results, info = simulate_trace_batch_info(
            trace, configs, flush=True, backend="vector"
        )
        assert info.profiled_runs == 0 and info.profile_passes == 0
        for config, stats in zip(configs, results):
            assert_stats_equal(
                stats, simulate_trace(trace, config, backend="vector")
            )

    def test_single_size_groups_stay_on_batched_path(self):
        # One cache size per line size: no ladder to collapse, so the
        # profiler must not engage (a one-level profile only costs).
        trace = seeded_trace(74, 200)
        configs = [
            CacheConfig(size=1024, line_size=16),
            CacheConfig(size=4096, line_size=32),
        ]
        _, info = simulate_trace_batch_info(trace, configs, flush=True)
        assert info.profiled_runs == 0 and info.profile_passes == 0

    def test_pool_default_routing_matches_per_spec_reference(self):
        # The route follows from the inputs alone: a pool group of two or
        # more specs batches, and two or more sizes at one line size
        # collapse through one profiling pass.  Every spec must still
        # equal its own reference run, and telemetry must say so.
        specs = profiled_grid_specs()
        pool = ExperimentPool(store=None)
        results = pool.run_many(specs)
        telemetry = pool.telemetry
        assert telemetry.batches == 1
        assert telemetry.profiled_runs == len(specs)
        assert telemetry.profile_passes == 1
        for spec in specs:
            trace = load(spec.workload, scale=spec.scale, seed=spec.seed)
            expected = simulate_trace(
                trace, spec.config, flush=spec.flush, backend="reference"
            )
            assert results[spec].to_dict() == expected.to_dict(), spec.describe()

    def test_telemetry_line_reports_profiler_counters(self):
        pool = ExperimentPool(store=None)
        pool.run_many(profiled_grid_specs("grr"))
        line = pool.telemetry.line()
        assert "profiled_runs=4" in line
        assert "profile_passes=1" in line
        # The fields CI greps for keep their exact shape.
        assert "computed=4 " in line
