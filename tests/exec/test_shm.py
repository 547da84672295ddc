"""Shared-memory trace transport: zero-copy, memoized, leak-free."""

import dataclasses

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.core.runner import experiment_key
from repro.exec import shm
from repro.exec.pool import ExperimentPool, _execute_shared
from repro.trace.events import READ, WRITE, MemRef
from repro.trace.trace import ARRAY_DTYPES, Trace


@pytest.fixture()
def published(tiny_trace):
    shared = shm.export_trace(tiny_trace)
    yield shared
    shared.close()
    shared.unlink()


class TestRoundTrip:
    def test_layout_constant_matches_dtypes(self):
        assert shm.BYTES_PER_REF == sum(
            np.dtype(dtype).itemsize for _, dtype in ARRAY_DTYPES
        )

    def test_attach_reproduces_trace(self, tiny_trace, published):
        attached = shm.attach_trace(published.handle)
        assert attached.name == tiny_trace.name
        assert attached.addresses == tiny_trace.addresses
        assert attached.sizes == tiny_trace.sizes
        assert attached.kinds == tiny_trace.kinds
        assert attached.icounts == tiny_trace.icounts

    def test_attach_is_memoized_per_process(self, published):
        first = shm.attach_trace(published.handle)
        assert shm.attach_trace(published.handle) is first

    def test_attached_arrays_are_read_only(self, published):
        attached = shm.attach_trace(published.handle)
        with pytest.raises(ValueError):
            attached.address_array[0] = 0

    def test_handle_is_picklable(self, published):
        import pickle

        clone = pickle.loads(pickle.dumps(published.handle))
        assert clone == published.handle

    def test_empty_trace(self):
        shared = shm.export_trace(Trace([], [], [], [], name="empty"))
        try:
            assert len(shm.attach_trace(shared.handle)) == 0
        finally:
            shared.close()
            shared.unlink()


class TestWorkerExecution:
    def test_execute_shared_matches_direct(self, published, tiny_trace):
        key = experiment_key(
            "cache", "unused", CacheConfig(size=256, line_size=16), 1.0, 0
        )
        stats, _, checksum, _ = _execute_shared(key, published.handle)
        assert checksum is None  # no fault plan: integrity envelope is off
        from repro.cache.fastsim import simulate_trace

        expected = simulate_trace(tiny_trace, key.config, flush=True)
        assert dataclasses.asdict(stats) == dataclasses.asdict(expected)

    def test_execute_shared_falls_back_on_dead_page(self):
        # A page that no longer exists: the worker regenerates the trace
        # from the workload generator instead of failing the run.
        handle = shm.SharedTraceHandle("psm_repro_gone", 10, "ccom")
        key = experiment_key(
            "cache", "ccom", CacheConfig(size=256, line_size=16), 0.05, 1991
        )
        stats, _, _, _ = _execute_shared(key, handle)
        from repro.exec.pool import _execute

        expected, _, _, _ = _execute(key)
        assert dataclasses.asdict(stats) == dataclasses.asdict(expected)


class TestPoolIntegration:
    def test_parallel_results_bit_identical_to_serial(self):
        keys = [
            experiment_key(
                "cache",
                "grr",
                CacheConfig(size=1024, line_size=line_size),
                0.05,
                1991,
            )
            for line_size in (4, 8, 16, 32)
        ]
        serial = ExperimentPool(jobs=1).run_many(keys)
        parallel = ExperimentPool(jobs=2).run_many(keys)
        assert list(parallel) == list(serial)
        for key in serial:
            assert dataclasses.asdict(parallel[key]) == dataclasses.asdict(serial[key])

    def test_export_traces_dedupes_by_identity(self):
        keys = [
            experiment_key(
                "cache", workload, CacheConfig(size=1024, line_size=line), 0.05, 1991
            )
            for workload, line in (("grr", 4), ("grr", 8), ("ccom", 4))
        ]
        exported = ExperimentPool._export_traces(keys)
        try:
            assert set(exported) == {("grr", 0.05, 1991), ("ccom", 0.05, 1991)}
        finally:
            for shared in exported.values():
                shared.close()
                shared.unlink()
