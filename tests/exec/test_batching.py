"""Batched pool dispatch: grouping, fallback, identity, telemetry.

The pool ships each group of two or more same-trace cache specs to a
worker as one batched task; these tests pin the contract: every spec
resolves to exactly what a per-spec run of its kind's runner produces
(bit for bit, serial or parallel), results are still individually
persisted, unsupported and foreign-kind specs ride along untouched, and
the telemetry counters say how much batching actually engaged.
"""

import pytest

from repro.buffers.write_buffer import WriteBufferConfig
from repro.cache.config import CacheConfig
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.exec.experiments import get_kind
from repro.exec.keys import ExperimentSpec, RunKey
from repro.exec.pool import ExperimentPool
from repro.exec.store import ResultStore
from repro.hierarchy.system import HierarchyConfig, LevelConfig
from repro.trace.corpus import load

SCALE = 0.05
SEED = 1991


def cache_grid(workload="ccom", flush=True, sizes=(1024, 2048, 4096)):
    return [
        RunKey(workload, SCALE, SEED, CacheConfig(size=size, line_size=16), flush=flush)
        for size in sizes
    ]


def mixed_batch():
    """Batchable cache grids + unsupported configs + a foreign kind."""
    specs = cache_grid("ccom") + cache_grid("yacc", sizes=(1024, 8192))
    # Same trace identity as the ccom grid but set-associative: joins the
    # batch group, falls back to the reference engine inside the batch
    # runner.
    specs.append(
        RunKey("ccom", SCALE, SEED, CacheConfig(size=4096, line_size=16, associativity=4))
    )
    # flush=False must not group with the flush=True ccom specs.
    specs += cache_grid("ccom", flush=False, sizes=(512, 2048))
    # A kind without a batch runner rides the per-run path.
    specs.append(
        ExperimentSpec("write_buffer", "grr", SCALE, SEED, WriteBufferConfig(retire_interval=5))
    )
    # A policy mix over one trace: all six combos batch together.
    specs += [
        RunKey(
            "met",
            SCALE,
            SEED,
            CacheConfig(size=2048, line_size=16, write_hit=hit, write_miss=miss),
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
def unbatched_expected():
    """Ground truth: each spec run alone through its kind's runner
    (``simulate_trace`` for the cache kind), outside any pool."""
    return {
        spec: get_kind(spec.kind)
        .runner(spec, load(spec.workload, scale=spec.scale, seed=spec.seed))
        .to_dict()
        for spec in mixed_batch()
    }


class TestMixedBatch:
    def test_serial_batched_bit_identical(self, unbatched_expected):
        batch = mixed_batch()
        pool = ExperimentPool(store=None, jobs=1)
        results = pool.run_many(batch)
        for spec in batch:
            assert results[spec].to_dict() == unbatched_expected[spec], spec.describe()
        # ccom flush=True (3 + 1 associative), yacc (2), ccom flush=False
        # (2), met (4) — four groups; the write_buffer spec stays single.
        assert pool.telemetry.batches == 4
        assert pool.telemetry.batched_runs == 12
        assert pool.telemetry.computed == len(batch)
        assert pool.telemetry.runs_per_batch == pytest.approx(3.0)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_batched_bit_identical(self, unbatched_expected, tmp_path, jobs):
        batch = mixed_batch()
        pool = ExperimentPool(store=ResultStore(tmp_path / f"store-{jobs}"), jobs=jobs)
        results = pool.run_many(batch)
        for spec in batch:
            assert results[spec].to_dict() == unbatched_expected[spec], spec.describe()
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

    def test_singleton_cache_spec_matches_the_runner(self):
        spec = cache_grid("ccom", sizes=(1024,))[0]
        results = ExperimentPool(store=None, jobs=1).run_many([spec])
        trace = load(spec.workload, scale=spec.scale, seed=spec.seed)
        expected = get_kind("cache").runner(spec, trace)
        assert results[spec].to_dict() == expected.to_dict()

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
            trace = load(spec.workload, scale=spec.scale, seed=spec.seed)
            expected = get_kind("system").runner(spec, trace)
            assert results[spec].to_dict() == expected.to_dict()


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
