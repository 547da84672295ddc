"""ExperimentPool: dedup, lookup path, serial fallback, parallel identity."""

import threading

import pytest

from repro.cache.config import CacheConfig
from repro.cache.fastsim import simulate_trace
from repro.common.errors import ConfigurationError
from repro.core.runner import experiment_key
from repro.exec import pool as pool_module
from repro.exec.pool import ExperimentPool, RunEvent, verbose_reporter
from repro.exec.store import ResultStore
from repro.trace.corpus import load

SCALE = 0.05

#: A small but non-trivial grid: 2 sizes x 2 workloads x 2 hit policies.
GRID = [
    experiment_key(
        "cache", workload, CacheConfig(size=f"{kb}KB", line_size=16), SCALE, 1991
    )
    for workload in ("ccom", "grr")
    for kb in (1, 2)
] + [experiment_key("cache", "yacc", CacheConfig(size="1KB"), SCALE, 1991)]


def serial_reference(key):
    return simulate_trace(load(key.workload, scale=key.scale, seed=key.seed), key.config)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def test_jobs1_never_spawns_a_pool(store, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("jobs=1 must not create a ProcessPoolExecutor")

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", boom)
    results = ExperimentPool(store=store, jobs=1).run_many(GRID)
    assert len(results) == len(set(GRID))


def test_single_pending_run_stays_inline(store, monkeypatch):
    monkeypatch.setattr(
        pool_module,
        "ProcessPoolExecutor",
        lambda *a, **k: (_ for _ in ()).throw(AssertionError("inline expected")),
    )
    results = ExperimentPool(store=store, jobs=8).run_many(GRID[:1])
    assert len(results) == 1


def test_duplicate_keys_deduplicated(store):
    pool = ExperimentPool(store=store, jobs=1)
    results = pool.run_many(GRID + GRID)
    assert pool.telemetry.requested == 2 * len(GRID)
    assert pool.telemetry.deduplicated == len(set(GRID))
    assert pool.telemetry.computed == len(set(GRID))
    assert list(results) == list(dict.fromkeys(GRID))


def test_parallel_bit_identical_to_serial(store):
    pool = ExperimentPool(store=store, jobs=2)
    results = pool.run_many(GRID)
    assert pool.telemetry.computed == len(set(GRID))
    for key, stats in results.items():
        assert stats == serial_reference(key), key.describe()


@pytest.mark.parametrize("timeout", [float("inf"), 1e400])
def test_infinite_task_timeout_means_no_deadline(store, timeout):
    pool = ExperimentPool(store=store, jobs=2, task_timeout=timeout)
    assert pool.task_timeout is None
    for key, stats in pool.run_many(GRID).items():
        assert stats == serial_reference(key), key.describe()


@pytest.mark.parametrize(
    "timeout", [float("nan"), 1e10, threading.TIMEOUT_MAX + 10]
)
def test_unusable_task_timeout_rejected(timeout):
    # A finite deadline past threading.TIMEOUT_MAX overflows the lock
    # wait of every parallel run; NaN would silently disable it.
    with pytest.raises(ConfigurationError, match="task_timeout"):
        ExperimentPool(jobs=2, task_timeout=timeout)


def test_second_batch_served_from_store(store):
    first = ExperimentPool(store=store, jobs=2)
    expected = first.run_many(GRID)
    # Fresh pool, fresh memo, same store: zero simulations.
    second = ExperimentPool(store=store, jobs=2)
    results = second.run_many(GRID)
    assert second.telemetry.computed == 0
    assert second.telemetry.store_hits == len(set(GRID))
    assert results == expected


def test_memo_consulted_and_filled(store):
    memo = {}
    pool = ExperimentPool(store=store, jobs=1)
    pool.run_many(GRID, memo=memo)
    assert set(memo) == set(GRID)
    again = ExperimentPool(store=store, jobs=1)
    again.run_many(GRID, memo=memo)
    assert again.telemetry.memory_hits == len(set(GRID))
    assert again.telemetry.store_hits == 0 and again.telemetry.computed == 0


def test_callback_sees_every_resolution(store):
    events = []
    pool = ExperimentPool(store=store, jobs=1)
    pool.run_many(GRID, callback=events.append)
    unique = len(set(GRID))
    assert len(events) == unique
    assert all(isinstance(event, RunEvent) for event in events)
    assert {event.source for event in events} == {"computed"}
    assert [event.completed for event in events] == list(range(1, unique + 1))
    assert all(event.total == unique for event in events)


def test_verbose_reporter_prints_progress(store):
    import io

    buffer = io.StringIO()
    pool = ExperimentPool(store=store, jobs=1)
    pool.run_many(GRID[:2], callback=verbose_reporter(buffer))
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[1/2] sim")


def test_no_store_still_computes():
    pool = ExperimentPool(store=None, jobs=1)
    results = pool.run_many(GRID[:2])
    assert pool.telemetry.computed == 2
    for key, stats in results.items():
        assert stats == serial_reference(key)


def test_telemetry_line_format(store):
    pool = ExperimentPool(store=store, jobs=1)
    pool.run_many(GRID[:2])
    line = pool.telemetry.line()
    assert "requested=2" in line and "computed=2" in line and "store=0" in line
