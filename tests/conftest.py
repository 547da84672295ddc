"""Shared fixtures for the test suite.

Traces are expensive to generate, so the scaled-down corpus used by
integration-style tests is session-scoped; unit tests build tiny traces
by hand instead.
"""

import gc
import weakref

import pytest

from repro.cache import vecsim
from repro.trace.corpus import BENCHMARK_NAMES, load
from repro.trace.events import READ, WRITE, MemRef
from repro.trace.trace import Trace

#: Scale used by tests that run real workloads: ~15-40k refs each.
TEST_SCALE = 0.12


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_store(tmp_path_factory):
    """Point the persistent result store at a session-scoped tmp dir.

    Tests must neither read stale results from nor pollute the user's
    ``~/.cache/repro``; within the session the store still behaves
    normally, so the suite exercises the real memory -> disk -> compute
    path.
    """
    import os

    from repro.core import runner

    root = tmp_path_factory.mktemp("result-store")
    old = os.environ.get("REPRO_RESULT_DIR")
    os.environ["REPRO_RESULT_DIR"] = str(root)
    runner.reset_store()
    yield
    if old is None:
        os.environ.pop("REPRO_RESULT_DIR", None)
    else:
        os.environ["REPRO_RESULT_DIR"] = old
    runner.reset_store()


@pytest.fixture(scope="session")
def small_corpus():
    """The six benchmarks at test scale, keyed by name."""
    return {name: load(name, scale=TEST_SCALE) for name in BENCHMARK_NAMES}


@pytest.fixture()
def tiny_trace():
    """A hand-written trace exercising reads, writes and both sizes."""
    refs = [
        MemRef(0x1000, 4, READ),
        MemRef(0x1004, 4, WRITE),
        MemRef(0x1008, 8, WRITE, icount=3),
        MemRef(0x2000, 4, READ, icount=2),
        MemRef(0x1000, 4, WRITE),
    ]
    return Trace.from_refs(refs, name="tiny")


def make_trace(ops, name="test"):
    """Build a trace from compact (kind, address, size) tuples.

    ``kind`` is "r" or "w"; ``size`` defaults to 4.
    """
    refs = []
    for op in ops:
        kind = READ if op[0] == "r" else WRITE
        address = op[1]
        size = op[2] if len(op) > 2 else 4
        refs.append(MemRef(address, size, kind))
    return Trace.from_refs(refs, name=name)


class PlanRecorder:
    """What vecsim built while a test ran.

    ``plans`` lists ``(trace, line_size)`` per trace plan; ``arrays``
    holds weak references to one trace-length array of every plan and
    set-order stream (both use ``__slots__`` without ``__weakref__``, so
    their arrays stand in for them).  ``live_streams`` gives, per stream
    built, how many streams' arrays were alive just after it was built
    (itself included).
    """

    def __init__(self):
        self.plans = []
        self.arrays = []
        self.streams = []
        self.live_streams = []

    def alive(self):
        return [ref for ref in self.arrays if ref() is not None]


@pytest.fixture()
def built_plans(monkeypatch):
    """A :class:`PlanRecorder` fed by every vecsim plan and stream built
    during the test (rdsim's ladder profiles build theirs through the
    same class).  The cyclic collector is off for the test, so an array
    that is still alive afterwards is referenced, not merely uncollected.
    """
    recorder = PlanRecorder()
    plan_init = vecsim._TracePlan.__init__
    stream_init = vecsim._SegmentStream.__init__

    def record_plan(self, trace, line_size):
        plan_init(self, trace, line_size)
        recorder.plans.append((trace, line_size))
        recorder.arrays.append(weakref.ref(self.line_number))

    def record_stream(self, plan, num_sets):
        stream_init(self, plan, num_sets)
        recorder.arrays.append(weakref.ref(self.tag))
        recorder.streams.append(weakref.ref(self.tag))
        recorder.live_streams.append(
            sum(ref() is not None for ref in recorder.streams)
        )

    monkeypatch.setattr(vecsim._TracePlan, "__init__", record_plan)
    monkeypatch.setattr(vecsim._SegmentStream, "__init__", record_stream)
    gc.disable()
    try:
        yield recorder
    finally:
        gc.enable()
