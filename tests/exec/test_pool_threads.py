"""Thread-safety of :meth:`ExperimentPool.run_many`.

The experiment service drives one pool from several job-worker threads.
The memo and store lookup runs without the pool's lock; the lock covers
only the compute phase.  So concurrent callers must (a) all get correct,
complete results, (b) read telemetry that describes *their* batch, (c)
finish a batch that needs no computation while another thread holds the
lock, and (d) never compute a spec twice, even when another thread
resolves it between this caller's lookup and its lock.
"""

import threading

import pytest

from repro.cache.config import CacheConfig
from repro.exec.experiments import register_runner, unregister_runner
from repro.exec.keys import ExperimentSpec
from repro.exec.pool import ExperimentPool, PoolTelemetry
from repro.exec.store import ResultStore

SCALE = 0.05
SEED = 1991


class _ThreadStats:
    kind = "threadtoy"

    def __init__(self, value=0):
        self.value = value

    def to_dict(self):
        return {"value": self.value}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def __eq__(self, other):
        return isinstance(other, _ThreadStats) and other.value == self.value


def _run_threadtoy(specs, trace):
    stats = [_ThreadStats(value=len(trace) + spec.config.size) for spec in specs]
    return stats, {}


@pytest.fixture()
def toy_kind():
    register_runner(
        "threadtoy",
        _run_threadtoy,
        _ThreadStats,
        engine_version="1",
        config_type=CacheConfig,
    )
    yield
    unregister_runner("threadtoy")


def _specs(seeds):
    # Seeds carry the identity (sizes must be powers of two); the runner's
    # output only depends on the trace and config, so overlapping specs
    # must agree bit-for-bit across batches.
    return [
        ExperimentSpec(
            "threadtoy", "ccom", SCALE, seed, CacheConfig(size=1024)
        )
        for seed in seeds
    ]


class TestConcurrentRunMany:
    def test_overlapping_batches_from_many_threads(self, tmp_path, toy_kind):
        pool = ExperimentPool(store=ResultStore(tmp_path), jobs=1)
        # Eight threads, overlapping grids: every spec appears in several
        # batches, so unserialised telemetry/callback state would race.
        grids = [_specs(range(1, 7 + offset)) for offset in range(8)]
        results = [None] * len(grids)
        errors = []

        def worker(index):
            try:
                results[index] = pool.run_many(grids[index])
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(grids))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        reference = {}
        for grid, batch in zip(grids, results):
            assert batch is not None
            for spec in grid:
                stats = batch[spec]
                assert isinstance(stats, _ThreadStats)
                assert stats.value > spec.config.size  # trace refs added in
                # Every batch that resolved this spec agrees bit-for-bit.
                assert reference.setdefault(spec, stats) == stats

    def test_locked_telemetry_snapshot_is_atomic(self, tmp_path, toy_kind):
        pool = ExperimentPool(store=ResultStore(tmp_path), jobs=1)
        snapshots = []
        barrier = threading.Barrier(4)

        def worker(offset):
            barrier.wait()
            batch = _specs(range(100 + offset * 5, 100 + offset * 5 + 5))
            # No lock held: telemetry is per thread, so other threads'
            # batches finishing in between cannot overwrite this one's.
            pool.run_many(batch)
            snapshots.append(PoolTelemetry.from_dict(pool.telemetry.to_dict()))

        threads = [
            threading.Thread(target=worker, args=(offset,)) for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(snapshots) == 4
        for snapshot in snapshots:
            # Each snapshot describes exactly its own 5-spec batch.
            assert snapshot.requested == 5
            assert snapshot.deduplicated == 5
            assert (
                snapshot.computed + snapshot.store_hits + snapshot.memory_hits
                == 5
            )


_GATE = threading.Event()
_AT_GATE = threading.Event()
_COMPUTED = []


def _run_gated(specs, trace):
    # jobs=1 pools compute inline in the calling thread.
    _AT_GATE.set()
    assert _GATE.wait(timeout=30), "test gate never opened"
    _COMPUTED.extend(specs)
    return [_ThreadStats(value=len(trace) + spec.seed) for spec in specs], {}


@pytest.fixture()
def gated_kind():
    _GATE.clear()
    _AT_GATE.clear()
    _COMPUTED.clear()
    register_runner(
        "threadtoy",
        _run_gated,
        _ThreadStats,
        engine_version="1",
        config_type=CacheConfig,
    )
    yield
    _GATE.set()
    unregister_runner("threadtoy")


class TestLockCoversOnlyCompute:
    def test_cached_batch_does_not_wait_on_the_lock(self, tmp_path, gated_kind):
        store = ResultStore(tmp_path)
        pool = ExperimentPool(store=store, jobs=1)
        cached = _specs([1, 2])
        stored = _specs([3])
        memo = {spec: _ThreadStats(value=spec.seed) for spec in cached}
        for spec in stored:
            store.put(spec, _ThreadStats(value=spec.seed))

        # Another batch holds the lock, computing at the closed gate.
        computing = threading.Thread(target=pool.run_many, args=(_specs([4]),))
        computing.start()
        assert _AT_GATE.wait(timeout=10)

        outcomes = {}

        def cached_batch():
            outcomes["results"] = pool.run_many(cached + stored, memo=memo)
            outcomes["telemetry"] = pool.telemetry

        thread = threading.Thread(target=cached_batch)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "cached batch waited on the lock"
        assert _COMPUTED == []
        _GATE.set()
        computing.join(timeout=30)
        assert not computing.is_alive()
        assert set(outcomes["results"]) == set(cached + stored)
        telemetry = outcomes["telemetry"]
        assert telemetry.memory_hits == 2 and telemetry.store_hits == 1
        assert telemetry.computed == 0

    def test_spec_resolved_after_lookup_is_served_from_memo(self, gated_kind):
        pool = ExperimentPool(store=None, jobs=1)
        memo = {}
        spec = _specs([1])[0]
        outcomes = {}

        def first():
            outcomes["first"] = pool.run_many([spec], memo=memo)[spec]

        owner = threading.Thread(target=first)
        owner.start()
        assert _AT_GATE.wait(timeout=10)  # owner holds the lock, mid-compute

        looked_up = threading.Event()
        lookup = pool.lookup

        def spied_lookup(*args, **kwargs):
            found = lookup(*args, **kwargs)
            looked_up.set()
            return found

        pool.lookup = spied_lookup

        def second():
            outcomes["events"] = []
            outcomes["second"] = pool.run_many(
                [spec], memo=memo, callback=outcomes["events"].append
            )[spec]
            outcomes["telemetry"] = pool.telemetry

        follower = threading.Thread(target=second)
        follower.start()
        # The follower's lookup misses (nothing is resolved yet); only
        # then does the owner finish and fill the memo.
        assert looked_up.wait(timeout=10)
        _GATE.set()
        owner.join(timeout=30)
        follower.join(timeout=30)

        assert _COMPUTED == [spec]  # exactly once
        assert outcomes["second"] == outcomes["first"]
        telemetry = outcomes["telemetry"]
        assert telemetry.memory_hits == 1 and telemetry.computed == 0
        assert [event.source for event in outcomes["events"]] == ["coalesced"]
