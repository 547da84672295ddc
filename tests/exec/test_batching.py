"""Batched pool dispatch: grouping, fallback, identity, telemetry.

The pool ships each group of same-trace specs of one kind to a worker as
one task (a lone spec is a task of one); these tests pin the contract: every spec
resolves to exactly what its kind's independent reference produces (bit
for bit, serial or parallel), results are still individually persisted,
unsupported configs ride along untouched, and the telemetry counters say
how much batching actually engaged.  The references share no code with
the batched kernels: the reference ``Cache`` for ``cache`` specs, the
composed ``CacheSystem`` for ``system`` specs and the buffer models'
own ``simulate``/``run_writes`` for the buffer kinds.
"""

import pytest

from repro.buffers.victim_buffer import VictimBufferConfig, dirty_victim_times
from repro.buffers.write_buffer import WriteBufferConfig
from repro.buffers.write_cache import WriteCacheConfig
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.core.runner import experiment_key
from repro.exec import pool as pool_module
from repro.exec import runners
from repro.exec.keys import ExperimentSpec
from repro.exec.pool import ExperimentPool
from repro.exec.store import ResultStore
from repro.hierarchy.system import CacheSystem, HierarchyConfig, LevelConfig
from repro.trace.corpus import load

SCALE = 0.05
SEED = 1991


def reference(spec):
    """``spec``'s stats dict from its kind's independent reference model."""
    trace = load(spec.workload, scale=spec.scale, seed=spec.seed)
    config = spec.config
    if spec.kind == "cache":
        cache = Cache(config)
        cache.run(trace)
        if spec.flush:
            cache.flush()
        return comparable(spec, cache.stats)
    if spec.kind == "system":
        system = CacheSystem(config)
        system.run(trace, flush=spec.flush)
        return system.system_stats().to_dict()
    if spec.kind == "write_buffer":
        return config.build().simulate(trace).to_dict()
    if spec.kind == "write_cache":
        return config.build().run_writes(trace, flush=spec.flush).to_dict()
    assert spec.kind == "victim_buffer"
    times, instructions = dirty_victim_times(trace, config.cache)
    return config.build().simulate(times, instructions).to_dict()


def comparable(spec, stats):
    """``stats.to_dict()`` without the reference ``Cache``'s own
    diagnostics (``extra``), which the vector kernels do not keep."""
    payload = stats.to_dict()
    if spec.kind == "cache":
        payload.pop("extra")
    return payload


def cache_grid(workload="ccom", flush=True, sizes=(1024, 2048, 4096)):
    return [
        experiment_key(
            "cache",
            workload,
            CacheConfig(size=size, line_size=16),
            SCALE,
            SEED,
            flush=flush,
        )
        for size in sizes
    ]


def buffer_grid(kind, workloads=("ccom",)):
    """Three specs of one buffer kind per workload."""
    configs = {
        "write_cache": [WriteCacheConfig(entries=n) for n in (1, 4, 8)],
        "write_buffer": [WriteBufferConfig(retire_interval=r) for r in (2, 5, 9)],
        "victim_buffer": [
            VictimBufferConfig(cache=CacheConfig(size=1024, line_size=16), entries=n)
            for n in (1, 2, 4)
        ],
    }[kind]
    return [
        ExperimentSpec(kind, workload, SCALE, SEED, config)
        for workload in workloads
        for config in configs
    ]


def mixed_batch():
    """Batchable cache grids + unsupported configs + a lone buffer spec."""
    specs = cache_grid("ccom") + cache_grid("yacc", sizes=(1024, 8192))
    # Same trace identity as the ccom grid but set-associative: joins the
    # batch group, falls back to the reference engine inside the runner.
    specs.append(
        experiment_key(
            "cache",
            "ccom",
            CacheConfig(size=4096, line_size=16, associativity=4),
            SCALE,
            SEED,
        )
    )
    # flush=False must not group with the flush=True ccom specs.
    specs += cache_grid("ccom", flush=False, sizes=(512, 2048))
    # The only spec of its kind and trace: a single task.
    specs.append(
        ExperimentSpec(
            "write_buffer", "grr", SCALE, SEED, WriteBufferConfig(retire_interval=5)
        )
    )
    # A policy mix over one trace: all six combos batch together.
    specs += [
        experiment_key(
            "cache",
            "met",
            CacheConfig(size=2048, line_size=16, write_hit=hit, write_miss=miss),
            SCALE,
            SEED,
        )
        for hit, miss in (
            (WriteHitPolicy.WRITE_BACK, WriteMissPolicy.FETCH_ON_WRITE),
            (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_VALIDATE),
            (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_AROUND),
            (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_INVALIDATE),
        )
    ]
    return specs


@pytest.fixture(scope="module")
def reference_expected():
    """Ground truth: each spec through its kind's reference, outside any
    pool."""
    return {spec: reference(spec) for spec in mixed_batch()}


class TestMixedBatch:
    def test_serial_batched_bit_identical(self, reference_expected):
        batch = mixed_batch()
        pool = ExperimentPool(store=None, jobs=1)
        results = pool.run_many(batch)
        for spec in batch:
            assert comparable(spec, results[spec]) == reference_expected[spec], (
                spec.describe()
            )
        # ccom flush=True (3 + 1 associative), yacc (2), ccom flush=False
        # (2), met (4) — four groups; the lone write_buffer spec is single.
        assert pool.telemetry.batches == 4
        assert pool.telemetry.batched_runs == 12
        assert pool.telemetry.computed == len(batch)
        assert pool.telemetry.runs_per_batch == pytest.approx(3.0)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_batched_bit_identical(self, reference_expected, tmp_path, jobs):
        batch = mixed_batch()
        pool = ExperimentPool(store=ResultStore(tmp_path / f"store-{jobs}"), jobs=jobs)
        results = pool.run_many(batch)
        for spec in batch:
            assert comparable(spec, results[spec]) == reference_expected[spec], (
                spec.describe()
            )
        assert pool.telemetry.batched_runs == 12

    def test_warm_store_rerun_computes_zero(self, tmp_path):
        batch = mixed_batch()
        store = ResultStore(tmp_path / "store")
        cold = ExperimentPool(store=store, jobs=2)
        expected = cold.run_many(batch)
        assert cold.telemetry.computed == len(batch)
        assert cold.telemetry.batched_runs > 0

        warm = ExperimentPool(store=store, jobs=2)
        results = warm.run_many(batch)
        assert warm.telemetry.computed == 0
        assert warm.telemetry.batches == 0
        assert warm.telemetry.store_hits == len(batch)
        for spec in batch:
            assert results[spec].to_dict() == expected[spec].to_dict()

    def test_batched_results_individually_persisted(self, tmp_path):
        batch = cache_grid("ccom")
        store = ResultStore(tmp_path / "store")
        results = ExperimentPool(store=store, jobs=1).run_many(batch)
        for spec in batch:
            assert store.get(spec).to_dict() == results[spec].to_dict()

    def test_singleton_groups_stay_per_run(self):
        batch = cache_grid("ccom", sizes=(1024,)) + cache_grid("yacc", sizes=(2048,))
        pool = ExperimentPool(store=None, jobs=1)
        pool.run_many(batch)
        assert pool.telemetry.batches == 0
        assert pool.telemetry.batched_runs == 0
        assert pool.telemetry.computed == 2

    def test_singleton_cache_spec_matches_the_reference(self):
        spec = cache_grid("ccom", sizes=(1024,))[0]
        results = ExperimentPool(store=None, jobs=1).run_many([spec])
        assert comparable(spec, results[spec]) == reference(spec)

    @pytest.mark.parametrize("sizes", [(1024,), (1024, 4096)])
    def test_cache_specs_free_their_plans_on_return(self, built_plans, sizes):
        # A lone spec and a grid alike: once run_many returns, no vecsim
        # plan or stream array is left behind.
        specs = cache_grid("ccom", sizes=sizes)
        ExperimentPool(store=None, jobs=1).run_many(specs)
        assert built_plans.plans
        assert built_plans.alive() == []

    @pytest.mark.parametrize("workloads", [("ccom",), ("ccom", "yacc")])
    def test_singleton_system_specs_count_vector_runs(self, workloads):
        # One spec per trace: every task is a single, never a batch (two
        # workloads with jobs=2 also take the worker-process route).
        two_level = HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=8192, line_size=16)),
                LevelConfig(cache=CacheConfig(size=65536, line_size=32)),
            )
        )
        specs = [
            ExperimentSpec("system", workload, SCALE, SEED, two_level)
            for workload in workloads
        ]
        pool = ExperimentPool(store=None, jobs=len(specs))
        results = pool.run_many(specs)
        assert pool.telemetry.batches == 0
        assert pool.telemetry.hier_vector_runs == len(specs)
        for spec in specs:
            assert results[spec].to_dict() == reference(spec)


class TestBufferGrids:
    """Buffer kinds batch per trace like ``cache`` and ``system``."""

    @pytest.mark.parametrize("workloads", [("ccom",), ("ccom", "yacc")])
    @pytest.mark.parametrize("kind", ["write_cache", "write_buffer", "victim_buffer"])
    def test_each_trace_grid_is_one_batched_task(self, kind, workloads):
        # One workload runs inline; two take the worker-process route.
        specs = buffer_grid(kind, workloads)
        pool = ExperimentPool(store=None, jobs=len(workloads))
        results = pool.run_many(specs)
        assert pool.telemetry.batches == len(workloads)
        assert pool.telemetry.batched_runs == len(specs)
        for spec in specs:
            assert results[spec].to_dict() == reference(spec), spec.describe()


class TestOneTaskShape:
    def test_every_group_is_one_execute_batch_call(self, monkeypatch):
        calls = []
        real = pool_module._execute_batch

        def spy(specs, *args):
            calls.append(list(specs))
            return real(specs, *args)

        monkeypatch.setattr(pool_module, "_execute_batch", spy)
        specs = cache_grid("ccom", sizes=(1024, 2048)) + cache_grid(
            "yacc", sizes=(1024,)
        )
        pool = ExperimentPool(store=None, jobs=1)
        results = pool.run_many(specs)
        assert sorted(map(len, calls)) == [1, 2]
        # Only the task of two or more runs counts as a batch.
        assert pool.telemetry.batches == 1
        assert pool.telemetry.batched_runs == 2
        for spec in specs:
            assert comparable(spec, results[spec]) == reference(spec)

    def test_victim_grid_extracts_victim_times_once(self, monkeypatch):
        calls = []

        def spy(trace, config):
            calls.append(config)
            return dirty_victim_times(trace, config)

        monkeypatch.setattr(runners, "dirty_victim_times", spy)
        cache = CacheConfig(size=1024, line_size=16)
        specs = [
            ExperimentSpec(
                "victim_buffer",
                "ccom",
                SCALE,
                SEED,
                VictimBufferConfig(cache=cache, entries=n),
            )
            for n in (1, 2, 4, 8)
        ]
        trace = load("ccom", scale=SCALE, seed=SEED)
        stats_list, _ = runners.run_victim_buffers(specs, trace)
        assert calls == [cache]
        for spec, stats in zip(specs, stats_list):
            assert stats.to_dict() == reference(spec)


class TestTelemetryLine:
    def test_line_includes_batch_counters(self):
        pool = ExperimentPool(store=None, jobs=1)
        pool.run_many(cache_grid("ccom"))
        line = pool.telemetry.line()
        assert "batches=1" in line
        assert "batched_runs=3" in line
        assert "runs_per_batch=3.0" in line
        # The fields CI greps for keep their exact shape.
        assert "computed=3 " in line
