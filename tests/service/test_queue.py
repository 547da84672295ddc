"""Job queue semantics: bounds, priority, fairness, and the job event log."""

import threading
import time

import pytest

from repro.buffers.write_cache import WriteCacheConfig
from repro.exec.keys import ExperimentSpec
from repro.service.protocol import JobRequest
from repro.service.queue import (
    Job,
    JobQueue,
    QueueFull,
    ServiceDraining,
)


def _job(token="t", priority=0):
    spec = ExperimentSpec("write_cache", "ccom", 0.05, 7, WriteCacheConfig())
    return Job(JobRequest(specs=(spec,), priority=priority, token=token))


class TestJobQueue:
    def test_fifo_within_one_token(self):
        queue = JobQueue(depth=8)
        jobs = [_job() for _ in range(3)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop(0.1) for _ in range(3)] == jobs

    def test_depth_bound_raises_queue_full(self):
        queue = JobQueue(depth=2)
        queue.push(_job())
        queue.push(_job())
        with pytest.raises(QueueFull):
            queue.push(_job())
        # Popping frees the slot again.
        assert queue.pop(0.1) is not None
        queue.push(_job())

    def test_higher_priority_pops_first(self):
        queue = JobQueue(depth=8)
        low, high = _job(priority=0), _job(priority=5)
        queue.push(low)
        queue.push(high)
        assert queue.pop(0.1) is high
        assert queue.pop(0.1) is low

    def test_round_robin_across_tokens_at_equal_priority(self):
        queue = JobQueue(depth=16)
        chatty = [_job(token="chatty") for _ in range(4)]
        polite = [_job(token="polite") for _ in range(2)]
        for job in chatty:
            queue.push(job)
        for job in polite:
            queue.push(job)
        order = [queue.pop(0.1).token for _ in range(6)]
        # Tokens alternate while both hold jobs; the chatty tenant's
        # backlog never starves the polite one.
        assert order == ["chatty", "polite", "chatty", "polite", "chatty", "chatty"]

    def test_pop_times_out_empty(self):
        assert JobQueue(depth=2).pop(timeout=0.05) is None

    def test_close_refuses_pushes_but_drains_remainder(self):
        queue = JobQueue(depth=4)
        queued = _job()
        queue.push(queued)
        queue.close()
        with pytest.raises(ServiceDraining):
            queue.push(_job())
        assert queue.pop(0.1) is queued
        assert queue.pop(0.1) is None  # closed and empty


class TestJobEvents:
    @pytest.mark.parametrize(
        "end, state",
        [
            (lambda job: job.finish([]), "done"),
            (lambda job: job.fail(RuntimeError("boom")), "failed"),
        ],
        ids=["finish", "fail"],
    )
    def test_blocked_reader_always_gets_the_terminal_event(self, end, state):
        job = _job()
        job.mark_running()
        start = len(job.wait_events(0, 0.0)[0])
        seen = {}

        def reader():
            seen["events"], seen["finished"] = job.wait_events(start, 10.0)

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)  # let the reader block across the transition
        end(job)
        thread.join(10.0)
        assert not thread.is_alive()
        assert seen["finished"] is True
        assert [event["state"] for event in seen["events"]] == [state]
        assert seen["events"][-1]["type"] == "job"

    def test_log_opens_queued_then_running(self):
        job = _job()
        job.mark_running()
        events, finished = job.wait_events(0, 0.0)
        assert [event["state"] for event in events] == ["queued", "running"]
        assert not finished
