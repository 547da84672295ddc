"""Chaos suite: every injected fault mode recovers bit-identically.

Each test runs a sweep under a deterministic :class:`FaultPlan` — workers
raising, dying hard, stalling past a deadline, corrupting results in
transit, tearing store writes — and asserts the three contract points of
the fault-tolerance layer: the sweep still completes, its results are
bit-identical to a clean serial run, and :class:`PoolTelemetry` counts
the recoveries that happened.
"""

import json
import multiprocessing
import time

import pytest

from repro.buffers.write_buffer import WriteBufferConfig
from repro.cache.config import CacheConfig
from repro.common.errors import ConfigurationError
from repro.core.runner import experiment_key
from repro.exec import faults as faults_module
from repro.exec.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    ResultIntegrityError,
    retry_delay,
)
from repro.exec.keys import ExperimentSpec
from repro.exec.pool import ExperimentPool, verbose_reporter
from repro.exec.store import ResultStore

SCALE = 0.05
SEED = 1991


@pytest.fixture(autouse=True)
def _fault_isolation():
    """No test leaks an active plan or torn-write history to the next."""
    yield
    faults_module.reset_active_plan()
    faults_module.reset_store_write_attempts()


def cache_grid(workload="ccom", sizes=(1024, 2048, 4096, 8192)):
    return [
        experiment_key(
            "cache", workload, CacheConfig(size=size, line_size=16), SCALE, SEED
        )
        for size in sizes
    ]


def mixed_grid():
    """Two batchable cache groups plus a foreign-kind single: three tasks."""
    return (
        cache_grid("ccom")
        + cache_grid("yacc", sizes=(1024, 2048))
        + [
            ExperimentSpec(
                "write_buffer", "grr", SCALE, SEED, WriteBufferConfig(retire_interval=5)
            )
        ]
    )


@pytest.fixture(scope="module")
def clean_expected():
    """Ground truth: the mixed grid resolved serially with no plan."""
    pool = ExperimentPool(store=None, jobs=1)
    assert pool.faults is None
    results = pool.run_many(mixed_grid())
    return {spec: stats.to_dict() for spec, stats in results.items()}


def assert_bit_identical(results, clean_expected):
    for spec, stats in results.items():
        assert stats.to_dict() == clean_expected[spec], spec.describe()


def plan(*rules, seed=7):
    return FaultPlan(seed=seed, rules=rules)


class TestPlanMechanics:
    def test_json_round_trip(self):
        original = plan(
            FaultRule("raise", rate=0.5, times=2, match="workload=ccom"),
            FaultRule("stall", stall_seconds=9.0),
        )
        assert FaultPlan.from_json(original.to_json()) == original

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule("meltdown")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"seed": 1, "surprise": True})
        with pytest.raises(ConfigurationError):
            FaultRule.from_dict({"mode": "raise", "surprise": True})

    def test_rule_selection_is_deterministic(self):
        spec = cache_grid()[0]
        sampled = plan(FaultRule("raise", rate=0.4))
        decisions = [sampled.rule_for(spec, 0) for _ in range(10)]
        assert len({decision is None for decision in decisions}) == 1

    def test_times_budget_releases_retries(self):
        spec = cache_grid()[0]
        p = plan(FaultRule("raise", times=2))
        assert p.rule_for(spec, 0) is not None
        assert p.rule_for(spec, 1) is not None
        assert p.rule_for(spec, 2) is None

    def test_match_restricts_by_canonical_substring(self):
        p = plan(FaultRule("raise", match="workload=yacc"))
        assert p.rule_for(cache_grid("yacc")[0], 0) is not None
        assert p.rule_for(cache_grid("ccom")[0], 0) is None

    def test_env_activation_json_and_file(self, monkeypatch, tmp_path):
        p = plan(FaultRule("raise"))
        monkeypatch.setenv(faults_module.ENV_FAULT_PLAN, p.to_json())
        faults_module.reset_active_plan()
        assert faults_module.active_plan() == p
        assert ExperimentPool(store=None, jobs=1).faults == p

        path = tmp_path / "plan.json"
        path.write_text(p.to_json(), encoding="utf-8")
        monkeypatch.setenv(faults_module.ENV_FAULT_PLAN, str(path))
        faults_module.reset_active_plan()
        assert faults_module.active_plan() == p

    def test_retry_delay_bounded_and_deterministic(self):
        spec = cache_grid()[0]
        first = retry_delay(spec, 1, 0.05)
        assert first == retry_delay(spec, 1, 0.05)
        assert 0.0375 <= first <= 0.0625
        assert retry_delay(spec, 20, 0.05, cap=2.0) == 2.0
        assert retry_delay(spec, 1, 0.0) == 0.0

    def test_worker_only_modes_noop_in_parent(self):
        # Direct call in the parent process: exit/stall must not fire.
        spec = cache_grid()[0]
        faults_module.fire_execution_fault(plan(FaultRule("exit")), spec, 0)
        faults_module.fire_execution_fault(
            plan(FaultRule("stall", stall_seconds=60.0)), spec, 0
        )


class TestSerialRecovery:
    """jobs=1: the retry ladder without any worker processes."""

    def test_raise_recovers_bit_identical(self, clean_expected):
        injected = plan(FaultRule("raise", match="workload=yacc"))
        pool = ExperimentPool(store=None, jobs=1, backoff=0.0, faults=injected)
        results = pool.run_many(mixed_grid())
        assert_bit_identical(results, clean_expected)
        assert pool.telemetry.retries >= 1
        assert pool.telemetry.computed == len(mixed_grid())

    def test_corrupt_result_detected_and_retried(self, clean_expected):
        injected = plan(FaultRule("corrupt", match="workload=ccom"))
        pool = ExperimentPool(store=None, jobs=1, backoff=0.0, faults=injected)
        results = pool.run_many(mixed_grid())
        assert_bit_identical(results, clean_expected)
        assert pool.telemetry.retries >= 1

    def test_worker_only_faults_never_fire_inline(self, clean_expected):
        injected = plan(FaultRule("exit"), FaultRule("stall", stall_seconds=60.0))
        pool = ExperimentPool(store=None, jobs=1, faults=injected)
        results = pool.run_many(mixed_grid())
        assert_bit_identical(results, clean_expected)
        assert pool.telemetry.retries == 0

    def test_exhausted_retries_raise_the_fault(self):
        injected = plan(FaultRule("raise", times=99))
        pool = ExperimentPool(store=None, jobs=1, retries=1, backoff=0.0, faults=injected)
        with pytest.raises(InjectedFault):
            pool.run_many(cache_grid(sizes=(1024,)))


class TestBatchBisection:
    def test_poisoned_batch_bisects_without_recompute(self, clean_expected):
        # One spec of the four-spec ccom batch raises; the batch splits and
        # every spec still computes exactly once.
        poisoned = cache_grid("ccom")[1]
        injected = plan(FaultRule("raise", match=poisoned.canonical()))
        events = []
        pool = ExperimentPool(store=None, jobs=1, backoff=0.0, faults=injected)
        results = pool.run_many(mixed_grid(), callback=events.append)
        assert_bit_identical(results, clean_expected)
        computed = [event for event in events if event.source == "computed"]
        per_spec = {}
        for event in computed:
            per_spec[event.key] = per_spec.get(event.key, 0) + 1
        assert all(count == 1 for count in per_spec.values())
        assert pool.telemetry.retries == 1
        # The poisoned 4-spec group resolved as two bisected halves; the
        # yacc group still went through whole.
        assert pool.telemetry.batches == 3
        assert pool.telemetry.degraded_runs == 4
        degraded = {event.key for event in computed if event.degraded}
        assert degraded == set(cache_grid("ccom"))

    def test_corrupt_batch_member_bisects(self, clean_expected):
        poisoned = cache_grid("ccom")[2]
        injected = plan(FaultRule("corrupt", match=poisoned.canonical()))
        pool = ExperimentPool(store=None, jobs=1, backoff=0.0, faults=injected)
        results = pool.run_many(mixed_grid())
        assert_bit_identical(results, clean_expected)
        assert pool.telemetry.retries >= 1
        assert pool.telemetry.degraded_runs >= 2


class TestParallelRecovery:
    """jobs>1: real worker processes dying, stalling and lying."""

    def test_raise_in_workers_recovers(self, clean_expected):
        injected = plan(FaultRule("raise", match="workload=yacc"))
        pool = ExperimentPool(store=None, jobs=2, backoff=0.0, faults=injected)
        results = pool.run_many(mixed_grid())
        assert_bit_identical(results, clean_expected)
        assert pool.telemetry.retries >= 1

    def test_hard_exit_rebuilds_pool_and_recovers(self, clean_expected):
        injected = plan(FaultRule("exit", match="workload=yacc"))
        pool = ExperimentPool(store=None, jobs=2, backoff=0.0, faults=injected)
        results = pool.run_many(mixed_grid())
        assert_bit_identical(results, clean_expected)
        assert pool.telemetry.pool_rebuilds >= 1
        assert pool.telemetry.retries >= 1

    def test_stall_hits_deadline_and_recovers(self, clean_expected):
        injected = plan(
            FaultRule("stall", match="workload=yacc", stall_seconds=30.0)
        )
        pool = ExperimentPool(
            store=None, jobs=2, task_timeout=1.0, backoff=0.0, faults=injected
        )
        results = pool.run_many(mixed_grid())
        assert_bit_identical(results, clean_expected)
        assert pool.telemetry.timeouts >= 1
        assert pool.telemetry.pool_rebuilds >= 1
        # The abandoned pool's stalled worker must be terminated, not
        # leaked: a survivor would sleep out its 30s stall and block
        # interpreter exit behind the executor's management thread.
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_corrupt_in_workers_detected(self, clean_expected):
        injected = plan(FaultRule("corrupt", match="workload=grr"))
        pool = ExperimentPool(store=None, jobs=2, backoff=0.0, faults=injected)
        results = pool.run_many(mixed_grid())
        assert_bit_identical(results, clean_expected)
        assert pool.telemetry.retries >= 1

    def test_faulted_parallel_run_persists_clean_records(
        self, tmp_path, clean_expected
    ):
        injected = plan(FaultRule("exit", match="workload=yacc"))
        store = ResultStore(tmp_path / "store")
        pool = ExperimentPool(store=store, jobs=2, backoff=0.0, faults=injected)
        pool.run_many(mixed_grid())
        # Warm rerun from a fresh, fault-free pool: zero simulation.
        warm = ExperimentPool(store=ResultStore(tmp_path / "store"), jobs=2)
        results = warm.run_many(mixed_grid())
        assert warm.telemetry.computed == 0
        assert_bit_identical(results, clean_expected)


class TestTornWrites:
    def test_torn_store_write_retries_and_heals(self, tmp_path, clean_expected):
        grid = mixed_grid()
        injected = plan(FaultRule("torn-write", match="workload=ccom"))
        store = ResultStore(tmp_path / "store")
        pool = ExperimentPool(store=store, jobs=1, faults=injected)
        results = pool.run_many(grid)
        assert_bit_identical(results, clean_expected)
        # One torn attempt per matched spec, each healed by the rewrite.
        assert pool.telemetry.retries == len(cache_grid("ccom"))
        assert pool.telemetry.degraded_runs == 0
        clean = ResultStore(tmp_path / "store")
        for spec in grid:
            assert clean.get(spec) is not None, spec.describe()

    def test_unhealed_torn_write_quarantined_on_warm_read(
        self, tmp_path, clean_expected
    ):
        # A tear that keeps firing leaves a truncated record behind; the
        # warm run quarantines it, recomputes, and still matches clean.
        grid = cache_grid("ccom")
        injected = plan(FaultRule("torn-write", match="workload=ccom", times=2))
        store = ResultStore(tmp_path / "store")
        pool = ExperimentPool(store=store, jobs=1, faults=injected)
        pool.run_many(grid)
        assert pool.telemetry.degraded_runs == len(grid)  # puts gave up

        warm_store = ResultStore(tmp_path / "store")
        warm = ExperimentPool(store=warm_store, jobs=1)
        results = warm.run_many(grid)
        assert_bit_identical(results, clean_expected)
        assert warm.telemetry.computed == len(grid)
        assert warm_store.telemetry.quarantined == len(grid)
        reasons = {entry["reason"] for entry in warm_store.quarantine_entries()}
        assert reasons == {"parse-error"}


class TestEventStream:
    def test_retry_events_carry_attempts_and_order(self):
        spec = cache_grid(sizes=(1024,))[0]
        injected = plan(FaultRule("raise", times=2))
        events = []
        pool = ExperimentPool(store=None, jobs=1, backoff=0.0, faults=injected)
        pool.run_many([spec], callback=events.append)
        assert [event.source for event in events] == ["retry", "retry", "computed"]
        assert [event.attempt for event in events] == [1, 2, 3]
        # Retries never advance completion; the resolution does.
        assert [event.completed for event in events] == [0, 0, 1]
        assert events[-1].key == spec

    def test_verbose_reporter_labels_retries(self):
        import io

        buffer = io.StringIO()
        spec = cache_grid(sizes=(1024,))[0]
        injected = plan(FaultRule("raise"))
        pool = ExperimentPool(store=None, jobs=1, backoff=0.0, faults=injected)
        pool.run_many([spec], callback=verbose_reporter(buffer))
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[0/1] retry")
        assert "(attempt 1 failed)" in lines[0]
        assert lines[1].startswith("[1/1] sim")
        assert "(attempt 2)" in lines[1]

    def test_clean_runs_report_attempt_one_unmarked(self):
        import io

        buffer = io.StringIO()
        pool = ExperimentPool(store=None, jobs=1)
        pool.run_many(
            cache_grid(sizes=(1024, 2048)), callback=verbose_reporter(buffer)
        )
        for line in buffer.getvalue().splitlines():
            assert "attempt" not in line
            assert "[degraded]" not in line


class TestZeroOverheadWhenOff:
    def test_no_plan_means_no_checksums(self):
        from repro.exec.pool import _execute_batch

        (stats,), _, checksums, _ = _execute_batch(cache_grid(sizes=(1024,)), None)
        assert checksums is None
        assert stats is not None

    def test_injection_points_short_circuit_on_none(self):
        spec = cache_grid(sizes=(1024,))[0]
        assert faults_module.store_write_rule(None, spec) is None
        assert faults_module.corrupt_result(None, spec, 0, object()) is not None
        faults_module.fire_execution_fault(None, spec, 0)  # no-op

    def test_integrity_error_message_names_the_spec(self):
        spec = cache_grid(sizes=(1024,))[0]
        from repro.cache.stats import CacheStats

        honest = CacheStats(reads=1)
        checksum = faults_module.result_checksum(honest)
        with pytest.raises(ResultIntegrityError):
            faults_module.verify_result(spec, CacheStats(reads=2), checksum)
        faults_module.verify_result(spec, honest, checksum)
        faults_module.verify_result(spec, CacheStats(reads=2), None)  # sealed off
