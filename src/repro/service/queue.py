"""Job queue, job state and service telemetry.

Two concerns the HTTP layer should not have to think about live here:

- :class:`Job` — one accepted submission's state machine
  (``queued -> running -> done | failed``) with a monotonically growing,
  condition-signalled event log that any number of stream readers can
  tail concurrently;
- :class:`JobQueue` — a *bounded* priority queue (full = HTTP 429
  back-pressure) that serves the highest priority first and, within one
  priority level, round-robins across client tokens so one chatty tenant
  cannot starve the rest.

Every counter the service reports rolls up in
:class:`ServiceTelemetry`; ``coalesced`` is the proof that overlapping
submissions shared one computation (the pool reports a spec another job
computed while this one waited as a ``coalesced`` run event).
"""

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.serde import CounterSerde
from repro.exec.keys import ExperimentSpec
from repro.exec.pool import PoolTelemetry
from repro.service.protocol import JobRequest

#: Default bound on queued (accepted but not yet running) jobs.
DEFAULT_QUEUE_DEPTH = 64

#: Terminal job states.
FINISHED_STATES = ("done", "failed")


class QueueFull(RuntimeError):
    """The job queue is at its depth bound (HTTP 429)."""


class ServiceDraining(RuntimeError):
    """The service is draining and accepts no new jobs (HTTP 503)."""


@dataclass
class ServiceTelemetry(CounterSerde):
    """Service-lifetime counters (JSON-safe via ``to_dict``)."""

    submitted: int = 0  #: jobs accepted into the queue
    completed: int = 0  #: jobs that reached "done"
    failed: int = 0  #: jobs that reached "failed"
    rejected_full: int = 0  #: submissions bounced with 429 (queue full)
    rejected_draining: int = 0  #: submissions bounced with 503 (draining)
    coalesced: int = 0  #: specs served by joining another job's computation


class Job:
    """One accepted submission and everything observable about it."""

    _ids = iter(range(1, 10**9))
    _ids_lock = threading.Lock()

    def __init__(self, request: JobRequest) -> None:
        with Job._ids_lock:
            sequence = next(Job._ids)
        self.id = f"job-{sequence:06d}"
        self.specs: List[ExperimentSpec] = list(request.specs)
        self.requested = request.requested
        self.priority = request.priority
        self.token = request.token
        self.state = "queued"
        self.error: Optional[str] = None
        #: Results in spec order once done (list of stats dataclasses).
        self.results: Optional[List[object]] = None
        #: Pool counters for this job's batch.
        self.telemetry = PoolTelemetry()
        #: Specs another job computed while this one waited on the pool.
        self.coalesced = 0
        self.created = time.time()
        self.finished: Optional[float] = None
        self._events: List[dict] = [{"type": "job", "id": self.id, "state": "queued"}]
        self._cond = threading.Condition()

    # -- event log -----------------------------------------------------------

    def add_event(self, event: dict) -> None:
        """Append one wire-format event and wake every stream reader."""
        with self._cond:
            self._events.append(event)
            self._cond.notify_all()

    def wait_events(self, start: int, timeout: float) -> Tuple[List[dict], bool]:
        """Events from index ``start`` on, blocking up to ``timeout``.

        Returns ``(new_events, finished)``; an empty list with
        ``finished=False`` means the timeout elapsed (stream keepalive).
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if len(self._events) > start:
                    return list(self._events[start:]), self.state in FINISHED_STATES
                if self.state in FINISHED_STATES:
                    return [], True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False
                self._cond.wait(remaining)

    # -- state transitions ---------------------------------------------------
    #
    # Each transition changes the state and logs its ``job`` event in one
    # critical section, so a stream reader that sees a terminal state has
    # always been handed the terminal event too.

    def _enter(self, state: str, **fields) -> None:
        """Switch to ``state`` and log its event (caller holds ``_cond``)."""
        self.state = state
        if state in FINISHED_STATES:
            self.finished = time.time()
        self._events.append({"type": "job", "id": self.id, "state": state, **fields})
        self._cond.notify_all()

    def mark_running(self) -> None:
        with self._cond:
            self._enter("running", specs=len(self.specs))

    def finish(self, results: List[object]) -> None:
        with self._cond:
            self.results = results
            self._enter(
                "done", coalesced=self.coalesced, telemetry=self.telemetry.to_dict()
            )

    def fail(self, error: BaseException) -> None:
        with self._cond:
            self.error = f"{type(error).__name__}: {error}"
            self._enter("failed", error=self.error)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (True) or times out."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self.state not in FINISHED_STATES:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def summary(self) -> dict:
        """The job as ``GET /v1/jobs`` reports it (no results payload)."""
        return {
            "id": self.id,
            "state": self.state,
            "specs": len(self.specs),
            "requested": self.requested,
            "priority": self.priority,
            "token": self.token,
            "coalesced": self.coalesced,
            "error": self.error,
            "created": self.created,
            "finished": self.finished,
        }


class JobQueue:
    """Bounded priority queue, fair across client tokens.

    ``pop`` serves the numerically highest priority first; within one
    priority level, tokens take strict turns (round-robin), so at equal
    priority a tenant that queued forty jobs and a tenant that queued one
    alternate instead of the forty running first.
    """

    def __init__(self, depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        self.depth = max(1, depth)
        self._cond = threading.Condition()
        #: priority -> (token -> deque of jobs); OrderedDict preserves the
        #: token arrival order that seeds the round-robin rotation.
        self._levels: Dict[int, "OrderedDict[str, deque]"] = {}
        #: priority -> rotation of tokens still holding queued jobs.
        self._rotations: Dict[int, deque] = {}
        self._size = 0
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return self._size

    def push(self, job: Job) -> None:
        """Enqueue one job; raises :class:`QueueFull` at the depth bound."""
        with self._cond:
            if self._closed:
                raise ServiceDraining("job queue is closed")
            if self._size >= self.depth:
                raise QueueFull(
                    f"job queue is full ({self._size}/{self.depth} queued)"
                )
            level = self._levels.setdefault(job.priority, OrderedDict())
            if job.token not in level:
                level[job.token] = deque()
                self._rotations.setdefault(job.priority, deque()).append(job.token)
            level[job.token].append(job)
            self._size += 1
            self._cond.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Dequeue the next job fairly; ``None`` on timeout or closed-empty."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._size:
                if self._closed:
                    return None
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            priority = max(
                level_priority
                for level_priority, level in self._levels.items()
                if level
            )
            rotation = self._rotations[priority]
            level = self._levels[priority]
            token = rotation.popleft()
            job = level[token].popleft()
            self._size -= 1
            # The token goes to the back of the rotation only while it
            # still holds jobs; it re-enters on its next push otherwise.
            if level[token]:
                rotation.append(token)
            else:
                del level[token]
            if not level:
                del self._levels[priority]
                del self._rotations[priority]
            return job

    def close(self) -> None:
        """Refuse further pushes and wake blocked poppers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
