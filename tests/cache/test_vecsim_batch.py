"""The batched kernel must be bit-identical to per-run simulation.

``vecsim.simulate_batch`` / ``fastsim.simulate_trace_batch_info`` share the
config-independent trace passes across a configuration grid; these
differential sweeps are the contract that the sharing never leaks into
the statistics — every config in a batch produces exactly what a
stand-alone ``simulate_trace`` call produces, whatever the grid mix, the
batch order, or the state of the cross-batch plan cache.
"""

import dataclasses
import gc
import random
import weakref

import pytest

from repro.cache import vecsim
from repro.cache.config import CacheConfig
from repro.cache.fastsim import simulate_trace, simulate_trace_batch_info
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.trace.trace import Trace

from test_vecsim import COMBOS, assert_stats_equal, reference_stats, seeded_trace


def grid_configs(sizes, line_sizes, subblock=False):
    """Every policy combo at every (size, line_size) with line <= size."""
    return [
        CacheConfig(
            size=size,
            line_size=line_size,
            write_hit=hit,
            write_miss=miss,
            subblock_dirty_writeback=subblock,
        )
        for size in sizes
        for line_size in line_sizes
        if line_size <= size
        for hit, miss in COMBOS
    ]


def assert_batch_matches_per_run(trace, configs, flush):
    batched = vecsim.simulate_batch(trace, configs, flush)
    assert len(batched) == len(configs)
    for config, stats in zip(configs, batched):
        assert_stats_equal(
            stats,
            simulate_trace(trace, config, flush=flush),
            f"{config.name} flush={flush}",
        )


class TestBatchDifferential:
    """simulate_batch == per-run simulate_trace, stat for stat."""

    @pytest.mark.parametrize("flush", [True, False])
    def test_full_policy_grid(self, flush):
        # All four write-miss policies x both hit policies x sizes x line
        # sizes (including multi-lane 128/256 B lines) in one batch.
        trace = seeded_trace(61, 700)
        configs = grid_configs((512, 1024, 4096), (4, 16, 64, 128, 256))
        assert_batch_matches_per_run(trace, configs, flush)

    def test_subblock_writeback_grid(self):
        trace = seeded_trace(62, 500)
        configs = grid_configs((512, 2048), (8, 32), subblock=True)
        assert_batch_matches_per_run(trace, configs, True)

    def test_shuffled_grid_preserves_input_order(self):
        trace = seeded_trace(63, 400)
        configs = grid_configs((256, 1024), (4, 16, 64))
        random.Random(63).shuffle(configs)
        assert_batch_matches_per_run(trace, configs, True)

    def test_duplicate_configs_each_get_results(self):
        trace = seeded_trace(64, 200)
        config = CacheConfig(size=512, line_size=16)
        batched = vecsim.simulate_batch(trace, [config, config], True)
        expected = simulate_trace(trace, config)
        for stats in batched:
            assert_stats_equal(stats, expected)

    def test_empty_inputs(self):
        assert vecsim.simulate_batch(seeded_trace(65, 10), [], True) == []
        empty = Trace([], [], [], [])
        configs = [CacheConfig(size=256, line_size=16)]
        (stats,) = vecsim.simulate_batch(empty, configs, True)
        assert_stats_equal(stats, simulate_trace(empty, configs[0]))

    def test_corpus_figure_grid(self, small_corpus):
        # The fig13-16 shape: one workload, the policy x size grid.
        trace = small_corpus["yacc"][:5000]
        configs = [
            CacheConfig(
                size=size_kb * 1024,
                line_size=16,
                write_hit=WriteHitPolicy.WRITE_THROUGH,
                write_miss=miss,
            )
            for size_kb in (1, 4, 16)
            for miss in WriteMissPolicy
        ]
        assert_batch_matches_per_run(trace, configs, True)


class TestPlanCache:
    def test_cache_reuse_is_bit_identical(self):
        trace = seeded_trace(71, 300)
        configs = grid_configs((512,), (16,))
        vecsim.clear_plan_cache()
        first = vecsim.simulate_batch(trace, configs, True)
        # Second call hits the cached plan; results must not drift.
        second = vecsim.simulate_batch(trace, configs, True)
        for a, b in zip(first, second):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_cache_is_bounded(self):
        trace = seeded_trace(72, 100)
        vecsim.clear_plan_cache()
        for line_size in (4, 8, 16, 32, 64, 128):
            vecsim.simulate_batch(
                trace, [CacheConfig(size=1024, line_size=line_size)], True
            )
        assert len(vecsim._PLAN_CACHE) <= vecsim.PLAN_CACHE_CAP

    def test_distinct_traces_never_alias(self):
        # Same shape, different contents: the identity-keyed cache must
        # not serve one trace's plan for the other.
        configs = [CacheConfig(size=256, line_size=16)]
        vecsim.clear_plan_cache()
        for seed in (73, 74):
            trace = seeded_trace(seed, 200)
            (stats,) = vecsim.simulate_batch(trace, configs, True)
            assert_stats_equal(
                stats, simulate_trace(trace, configs[0]), f"seed={seed}"
            )


    def test_dropped_plan_frees_its_arrays_without_the_collector(self):
        # Every policy's cached state hangs off the set-order stream; a
        # reference cycle through it would keep trace-length arrays alive
        # until the cyclic collector happens to run.
        trace = seeded_trace(75, 400)
        configs = grid_configs((512,), (16,))
        vecsim.clear_plan_cache()
        gc.collect()
        gc.disable()
        try:
            vecsim.simulate_batch(trace, configs, True)
            (_, plan), = vecsim._PLAN_CACHE.values()
            (stream,) = plan._streams.values()
            tag = weakref.ref(stream.tag)
            del plan, stream
            vecsim.clear_plan_cache()
            assert tag() is None
        finally:
            gc.enable()


class TestFrontEnd:
    """fastsim.simulate_trace_batch_info: dispatch + fallback semantics."""

    def test_mixed_batch_falls_back_for_unsupported(self):
        # Every config, batched or not, must match the reference Cache.
        trace = seeded_trace(81, 300)
        configs = [
            CacheConfig(size=1024, line_size=16),
            CacheConfig(size=1024, line_size=16, associativity=4),  # reference
            CacheConfig(size=512, line_size=32, store_data=True),  # reference
            CacheConfig(size=2048, line_size=128),  # multi-lane vector
        ]
        results, _ = simulate_trace_batch_info(trace, configs)
        for config, stats in zip(configs, results):
            assert_stats_equal(stats, reference_stats(trace, config), config.name)

    def test_flush_false_propagates(self):
        trace = seeded_trace(84, 300)
        configs = grid_configs((512, 1024), (16,))
        results, _ = simulate_trace_batch_info(trace, configs, flush=False)
        for config, stats in zip(configs, results):
            assert stats.flushed_lines == 0
            assert_stats_equal(
                stats, simulate_trace(trace, config, flush=False), config.name
            )
