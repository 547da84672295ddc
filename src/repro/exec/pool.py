"""Parallel experiment execution with dedup, persistence and telemetry.

:class:`ExperimentPool` takes a batch of
:class:`~repro.exec.keys.ExperimentSpec` requests — of any mix of
registered kinds — and resolves each through a three-level lookup: an
in-memory memo (shared with :mod:`repro.core.runner`), the on-disk
:class:`~repro.exec.store.ResultStore`, and finally computation via the
kind's registered runner (see :mod:`repro.exec.experiments`) — inline for
``jobs=1``, or fanned out across a ``ProcessPoolExecutor`` for
``jobs>1``.  Duplicate specs are collapsed before any work is scheduled,
freshly computed results are persisted as they stream back, and every
resolution emits a :class:`RunEvent` through the callback the caller
passes to :meth:`~ExperimentPool.run_many` (see :func:`verbose_reporter`
for the ``--verbose`` CLI hook).  The memo and store tiers
(:meth:`ExperimentPool.lookup`) run without the pool lock, so a batch
that needs no computation never waits on one that does; the compute
phase runs under the lock, after a second memo check, so concurrent
callers compute each spec exactly once.

Traces travel to workers as zero-copy shared-memory pages
(:mod:`repro.exec.shm`): the parent builds each distinct trace once and
workers map the page instead of re-running the workload generator.
Because pages are keyed by (workload, scale, seed), a mixed-kind batch
over the same workload ships each trace exactly once, whatever kinds
consume it.  When shared memory is unavailable, workers fall back to
regenerating from the deterministic generators — either way parallel
results are bit-identical to serial execution, which the test suite
enforces per kind.

Every kind's runner takes a list of specs over one trace (see
:mod:`repro.exec.experiments`), so every task is such a list, run
through :func:`_execute_batch`: pending misses that agree on ``(kind,
workload, scale, seed, flush)`` travel to a worker as one task (a lone
spec is a task of one), and a kernel that can (``cache`` via
``repro.cache.fastsim.simulate_trace_batch_info``, ``system`` via
``repro.hierarchy.hiersim.simulate_hierarchy_batch_info``) shares the
trace-side passes across the whole configuration grid.  Results stay
per-spec — each is individually content-addressed, persisted and
reported through its own :class:`RunEvent`.

Failure semantics (see "Failure semantics" in ``docs/orchestration.md``):
a failed task is retried with exponential backoff and deterministic
jitter up to ``retries`` times; a task running past ``task_timeout``
seconds is abandoned and the worker pool rebuilt; a hard worker death
(``BrokenProcessPool``) rebuilds the pool and requeues the in-flight
work; and a failing task of two or more specs is bisected so one
poisoned spec cannot lose its siblings' grid.  When per-run retries are
exhausted the spec is executed serially inline in the parent as a last
resort, and only an inline failure finally propagates.  Every recovery is counted in
:class:`PoolTelemetry` (``retries``/``timeouts``/``pool_rebuilds``/
``degraded_runs``) and reported through ``retry``/``timeout``
:class:`RunEvent` entries carrying attempt numbers.  The deterministic
fault-injection framework driving the chaos suite lives in
:mod:`repro.exec.faults`.
"""

import heapq
import math
import os
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.serde import CounterSerde
from repro.exec import faults as faults_module
from repro.exec.experiments import get_kind
from repro.exec.keys import ExperimentSpec
from repro.exec.store import ResultStore

#: Environment variable setting the default worker count.
ENV_JOBS = "REPRO_JOBS"

#: Environment variable setting the default per-task retry budget.
ENV_RETRIES = "REPRO_RETRIES"

#: Environment variable setting the default per-task deadline (seconds).
ENV_TASK_TIMEOUT = "REPRO_TASK_TIMEOUT"

#: Fallback retry budget when neither the CLI nor the environment says.
DEFAULT_RETRIES = 2

#: Base backoff delay (seconds) before a retry; doubles per attempt with
#: deterministic jitter (see :func:`repro.exec.faults.retry_delay`).
DEFAULT_BACKOFF = 0.05


#: Process-wide override set by ``--jobs`` CLI flags (None = use $REPRO_JOBS).
_default_jobs_override: Optional[int] = None

#: Sentinel distinguishing "no override" from an explicit ``None`` override.
_UNSET = object()

#: Process-wide overrides set by ``--retries``/``--task-timeout`` CLI flags.
_default_retries_override = _UNSET
_default_timeout_override = _UNSET


def set_default_jobs(jobs: Optional[int]) -> None:
    """Override the default worker count for this process (0 = all cores)."""
    global _default_jobs_override
    _default_jobs_override = jobs


def env_number(name: str, parse: Callable[[str], float]):
    """``parse($name)``, or ``None`` when the variable is unset or empty.

    A value ``parse`` rejects raises :class:`ConfigurationError` naming
    the variable, never a bare ``ValueError``.
    """
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return parse(raw)
    except ValueError:
        raise ConfigurationError(
            f"${name}={raw!r} is not a valid {parse.__name__}"
        ) from None


def default_jobs() -> int:
    """Worker count: CLI override, else ``$REPRO_JOBS`` (0 = all cores), else 1."""
    if _default_jobs_override is not None:
        jobs = _default_jobs_override
    else:
        jobs = env_number(ENV_JOBS, int)
        if jobs is None:
            return 1
    return os.cpu_count() or 1 if jobs == 0 else max(1, jobs)


def set_default_fault_policy(retries=_UNSET, task_timeout=_UNSET) -> None:
    """Override the process defaults for ``--retries``/``--task-timeout``.

    Arguments left at the sentinel keep their current override; passing
    ``None`` explicitly restores resolution from the environment.
    """
    global _default_retries_override, _default_timeout_override
    if retries is not _UNSET:
        _default_retries_override = _UNSET if retries is None else retries
    if task_timeout is not _UNSET:
        _default_timeout_override = _UNSET if task_timeout is None else task_timeout


def default_retries() -> int:
    """Per-task retry budget: CLI override, else ``$REPRO_RETRIES``, else 2."""
    if _default_retries_override is not _UNSET:
        return max(0, int(_default_retries_override))
    retries = env_number(ENV_RETRIES, int)
    return DEFAULT_RETRIES if retries is None else max(0, retries)


def _task_deadline(value: Optional[float], source: str) -> Optional[float]:
    """``value`` seconds as a task deadline; None means wait forever.

    Unset, zero, negative and infinite values all mean no deadline.  NaN,
    or a finite value past the longest wait a lock accepts
    (``threading.TIMEOUT_MAX``), raises :class:`ConfigurationError`
    naming ``source``.
    """
    if value is None:
        return None
    value = float(value)
    if math.isnan(value) or threading.TIMEOUT_MAX < value < math.inf:
        raise ConfigurationError(
            f"{source}={value!r} is not a task timeout: give seconds up to "
            f"{threading.TIMEOUT_MAX:.0f}, or inf for none"
        )
    return value if 0 < value < math.inf else None


def default_task_timeout() -> Optional[float]:
    """Per-task deadline in seconds (None = wait forever, the default)."""
    if _default_timeout_override is not _UNSET:
        return _task_deadline(_default_timeout_override, "--task-timeout")
    return _task_deadline(
        env_number(ENV_TASK_TIMEOUT, float), f"${ENV_TASK_TIMEOUT}"
    )


@dataclass(frozen=True)
class RunEvent:
    """One resolution or recovery step, reported through the callback.

    ``source`` is ``"memory"``/``"store"``/``"computed"``/``"coalesced"``
    for resolutions (these advance ``completed``; ``coalesced`` marks a
    spec another caller computed while this batch waited on the pool
    lock) and ``"retry"``/``"timeout"`` for recoveries (these do not — a
    retried run is never reported as two completions).  ``attempt`` is
    the 1-based try number the event refers to: the failed try for a
    recovery event, the successful try for a resolution.  ``degraded``
    marks work resolved through a degraded path (a bisected batch half or
    the serial-inline fallback).
    """

    source: str  #: "memory", "store", "computed", "coalesced", "retry", "timeout"
    key: ExperimentSpec
    seconds: float  #: simulation wall-time (0 for memory/store hits)
    completed: int  #: runs resolved so far, this batch
    total: int  #: deduplicated batch size
    attempt: int = 1  #: 1-based try number this event refers to
    degraded: bool = False  #: resolved via bisected-half or inline fallback

    def to_dict(self) -> dict:
        """JSON-safe payload (the spec nests via its own serde)."""
        return {
            "source": self.source,
            "key": self.key.to_dict(),
            "seconds": self.seconds,
            "completed": self.completed,
            "total": self.total,
            "attempt": self.attempt,
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunEvent":
        """Inverse of :meth:`to_dict`; unknown keys raise, missing default."""
        known = {
            "source", "key", "seconds", "completed", "total", "attempt",
            "degraded",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown RunEvent fields: {sorted(unknown)}")
        return cls(
            source=str(payload["source"]),
            key=ExperimentSpec.from_dict(payload["key"]),
            seconds=float(payload["seconds"]),
            completed=int(payload["completed"]),
            total=int(payload["total"]),
            attempt=int(payload.get("attempt", 1)),
            degraded=bool(payload.get("degraded", False)),
        )


@dataclass
class PoolTelemetry(CounterSerde):
    """Aggregate counters for one :meth:`ExperimentPool.run_many` batch.

    Flat counters, so JSON round-trips come free via
    :class:`~repro.common.serde.CounterSerde` (``to_dict``/``from_dict``);
    the experiment service ships these over the wire per job.
    """

    requested: int = 0  #: keys passed in, duplicates included
    deduplicated: int = 0  #: unique keys actually resolved
    memory_hits: int = 0
    store_hits: int = 0
    computed: int = 0
    sim_seconds: float = 0.0  #: summed per-run simulation wall-time
    wall_seconds: float = 0.0  #: end-to-end batch wall-time
    batches: int = 0  #: batched tasks dispatched (groups of >= 2 runs)
    batched_runs: int = 0  #: runs resolved through a batched task
    retries: int = 0  #: failed tries that were retried (incl. persist retries)
    timeouts: int = 0  #: tasks abandoned past their deadline
    pool_rebuilds: int = 0  #: worker pools torn down and recreated
    degraded_runs: int = 0  #: runs resolved via bisected halves or inline
    profiled_runs: int = 0  #: runs served from a reuse-distance ladder profile
    profile_passes: int = 0  #: profiling passes paid (one per ladder line size)
    hier_vector_runs: int = 0  #: hierarchy runs vectorized level-by-level

    @property
    def runs_per_batch(self) -> float:
        """Mean grid size per batched task (0.0 when nothing batched)."""
        return self.batched_runs / self.batches if self.batches else 0.0

    def add(self, other: "PoolTelemetry") -> None:
        """Fold another batch's counters into this one (every field)."""
        for counter in fields(self):
            name = counter.name
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def line(self) -> str:
        """Stable machine-greppable summary (CI asserts on ``computed=``)."""
        return (
            f"requested={self.requested} deduplicated={self.deduplicated} "
            f"memory={self.memory_hits} store={self.store_hits} "
            f"computed={self.computed} sim_s={self.sim_seconds:.2f} "
            f"wall_s={self.wall_seconds:.2f} batches={self.batches} "
            f"batched_runs={self.batched_runs} "
            f"runs_per_batch={self.runs_per_batch:.1f} "
            f"retries={self.retries} timeouts={self.timeouts} "
            f"pool_rebuilds={self.pool_rebuilds} "
            f"degraded_runs={self.degraded_runs} "
            f"profiled_runs={self.profiled_runs} "
            f"profile_passes={self.profile_passes} "
            f"hier_vector_runs={self.hier_vector_runs}"
        )


#: Process-wide running total across every batch (any pool instance).
#: Lets multi-batch commands (``repro figures`` renders several figures,
#: each resolving its own grid) report one summary line CI can grep.
_aggregate = PoolTelemetry()

#: Guards ``_aggregate``: batches that resolve without computing finish
#: outside the pool lock, so several threads may fold in at once.
_aggregate_lock = threading.Lock()


def aggregate_telemetry() -> PoolTelemetry:
    """The process-wide telemetry total (all batches since last reset)."""
    return _aggregate


def reset_aggregate_telemetry() -> PoolTelemetry:
    """Zero the process-wide total; returns the new (empty) instance."""
    global _aggregate
    with _aggregate_lock:
        _aggregate = PoolTelemetry()
    return _aggregate


class _Task:
    """One schedulable unit of pending work: a list of same-trace specs.

    ``degraded`` marks tasks produced by the degradation ladder (bisected
    halves, inline fallbacks); their resolutions count in
    ``PoolTelemetry.degraded_runs``.  ``inline`` forces execution in the
    parent process — the last rung of the ladder.
    """

    __slots__ = ("specs", "degraded", "inline")

    def __init__(self, specs, degraded=False, inline=False):
        self.specs = list(specs)
        self.degraded = degraded
        self.inline = inline

    def as_inline(self) -> "_Task":
        return _Task(self.specs, degraded=True, inline=True)


def _execute_batch(specs, handle, attempts=None, plan=None) -> Tuple[list, float, Optional[list], dict]:
    """Run a list of one or more same-trace specs through their kind's
    runner; the only task entry point, used inline and in workers.

    ``handle`` is an optional shared-memory trace handle; None, or a page
    that cannot be mapped or fails validation, means regenerate the trace
    in-process (bit-identical, only slower).  ``attempts`` aligns per-spec
    attempt numbers with ``specs`` for fault decisions.  Returns the
    per-spec stats list in spec order, the wall-time of the whole runner
    call, per-spec integrity checksums when a fault plan is active (None
    otherwise), and the kind's dispatch counters — a plain dict so the
    tuple pickles cleanly back from worker processes.
    """
    from repro.trace.corpus import load

    kind = get_kind(specs[0].kind)
    if plan is not None:
        if attempts is None:
            attempts = [0] * len(specs)
        for spec, attempt in zip(specs, attempts):
            faults_module.fire_execution_fault(plan, spec, attempt)
    trace = None
    if handle is not None:
        from repro.exec.shm import attach_trace

        try:
            trace = attach_trace(handle)
        except (OSError, ValueError):
            pass
    if trace is None:
        spec = specs[0]
        trace = load(spec.workload, scale=spec.scale, seed=spec.seed)
    started = time.perf_counter()
    stats_list, counters = kind.runner(specs, trace)
    stats_list = list(stats_list)
    seconds = time.perf_counter() - started
    if len(stats_list) != len(specs):
        raise RuntimeError(
            f"runner for kind {kind.name!r} returned "
            f"{len(stats_list)} results for {len(specs)} specs"
        )
    checksums = None
    if plan is not None:
        checksums = [faults_module.result_checksum(stats) for stats in stats_list]
        stats_list = [
            faults_module.corrupt_result(plan, spec, attempt, stats)
            for spec, attempt, stats in zip(specs, attempts, stats_list)
        ]
    return stats_list, seconds, checksums, counters


# Aliases only: the frozen perfbench span hook wraps these names.
_execute = _execute_shared = _execute_batch


def _abandon_executor(executor) -> None:
    """Tear an executor down without waiting on stuck or dead workers.

    The worker list must be captured *before* ``shutdown`` — CPython
    clears ``_processes`` even with ``wait=False``, and a stalled worker
    that never gets its SIGTERM outlives the sweep and blocks interpreter
    exit behind the executor's non-daemon management thread.
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
        except Exception:
            pass


def verbose_reporter(stream=None) -> Callable[[RunEvent], None]:
    """A callback printing one progress line per resolution or recovery.

    Retries and timeouts print as their own labelled lines carrying the
    attempt number that failed — a retried run is never shown as two
    anonymous completions — and its eventual resolution notes the attempt
    that succeeded plus a ``[degraded]`` marker when it came through a
    bisected batch half or the serial-inline fallback.
    """

    def report(event: RunEvent) -> None:
        out = stream if stream is not None else sys.stderr
        label = {
            "memory": "memo ",
            "store": "store",
            "computed": "sim  ",
            "coalesced": "share",
            "retry": "retry",
            "timeout": "stall",
        }[event.source]
        timing = f" ({event.seconds:.2f}s)" if event.source == "computed" else ""
        if event.source in ("retry", "timeout"):
            suffix = f" (attempt {event.attempt} failed)"
        elif event.attempt > 1:
            suffix = f" (attempt {event.attempt})"
        else:
            suffix = ""
        if event.degraded:
            suffix += " [degraded]"
        print(
            f"[{event.completed}/{event.total}] {label} "
            f"{event.key.describe()}{timing}{suffix}",
            file=out,
        )

    return report


def _emit(
    callback, source, key, seconds, completed, total, attempt=1, degraded=False
) -> None:
    if callback is not None:
        callback(RunEvent(source, key, seconds, completed, total, attempt, degraded))


class ExperimentPool:
    """Batch runner: memory -> disk -> compute, optionally in parallel."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
        backoff: Optional[float] = None,
        faults=None,
    ) -> None:
        self.store = store
        self.jobs = max(1, jobs)
        self.retries = default_retries() if retries is None else max(0, retries)
        self.task_timeout = (
            default_task_timeout()
            if task_timeout is None
            else _task_deadline(task_timeout, "task_timeout")
        )
        self.backoff = DEFAULT_BACKOFF if backoff is None else max(0.0, backoff)
        self.faults = faults_module.active_plan() if faults is None else faults
        # An explicit plan handed to the pool also drives torn-write
        # injection in its store (an env-activated plan reaches the store
        # on its own through faults.active_plan()).
        if store is not None and faults is not None:
            store.faults = faults
        # Per-thread slot for the telemetry of the thread's latest batch.
        self._last = threading.local()
        # Serializes the compute phase of run_many(): concurrent callers
        # (the experiment service's job workers) queue here for worker
        # processes, never for memo or store reads.
        self._lock = threading.Lock()

    @property
    def telemetry(self) -> PoolTelemetry:
        """Counters of the latest batch the *calling thread* finished.

        Per thread, so a thread always reads its own batch even while
        other threads' batches finish around it.
        """
        telemetry = getattr(self._last, "telemetry", None)
        return PoolTelemetry() if telemetry is None else telemetry

    @staticmethod
    def _export_traces(pending):
        """Build each distinct pending trace once and publish it in shared
        memory; ``{}`` (falling back to in-worker regeneration) if the
        platform refuses shared memory."""
        from repro.exec.shm import export_trace
        from repro.trace.corpus import load

        exported = {}
        try:
            for spec in pending:
                identity = (spec.workload, spec.scale, spec.seed)
                if identity not in exported:
                    exported[identity] = export_trace(
                        load(spec.workload, scale=spec.scale, seed=spec.seed)
                    )
        except OSError:
            for shared in exported.values():
                shared.close()
                shared.unlink()
            return {}
        return exported

    def _plan_batches(self, pending):
        """Group pending misses into tasks, first-seen order.

        Specs group by ``(kind, workload, scale, seed, flush)`` —
        everything a runner is allowed to assume is shared.  Each group,
        a lone spec included, is one task.
        """
        groups: Dict[tuple, list] = {}
        for spec in pending:
            identity = (spec.kind, spec.workload, spec.scale, spec.seed, spec.flush)
            groups.setdefault(identity, []).append(spec)
        return list(groups.values())

    def _persist(self, key: ExperimentSpec, stats, telemetry) -> bool:
        """Persist one result, retrying a failed write once.

        A store write that keeps failing (disk full, torn-write fault
        still firing) degrades gracefully: the in-memory result is still
        returned and a warm rerun simply recomputes the record.
        """
        try:
            self.store.put(key, stats)
            return True
        except Exception:
            telemetry.retries += 1
        try:
            self.store.put(key, stats)
            return True
        except Exception:
            telemetry.degraded_runs += 1
            return False

    def lookup(
        self,
        keys: Iterable[ExperimentSpec],
        memo: Optional[Dict[ExperimentSpec, object]] = None,
        callback: Optional[Callable[[RunEvent], None]] = None,
    ) -> Tuple[Dict[ExperimentSpec, object], List[ExperimentSpec], PoolTelemetry]:
        """Resolve what is already known, without taking the pool lock.

        Deduplicates ``keys``, serves each from ``memo`` and then from the
        store (a store hit is copied into ``memo``), and reports every hit
        through ``callback`` as a ``memory``/``store`` :class:`RunEvent`.
        Returns ``(results, pending, telemetry)``: the hits, the specs left
        to compute in first-seen order, and a :class:`PoolTelemetry` with
        ``requested``, ``deduplicated``, ``memory_hits`` and
        ``store_hits`` filled in.

        Safe from many threads while another computes: memo reads and
        writes are single dict operations, and the store counts its reads
        under its own lock.
        """
        requested = list(keys)
        # Validate every kind up front: an unknown kind should fail the
        # batch loudly, not die inside a worker process.
        for spec in requested:
            get_kind(spec.kind)
        unique = list(dict.fromkeys(requested))
        telemetry = PoolTelemetry(requested=len(requested), deduplicated=len(unique))
        results: Dict[ExperimentSpec, object] = {}
        pending = []
        for key in unique:
            stats = memo.get(key) if memo is not None else None
            if stats is not None:
                telemetry.memory_hits += 1
                source = "memory"
            else:
                stats = self.store.get(key) if self.store is not None else None
                if stats is None:
                    pending.append(key)
                    continue
                if memo is not None:
                    memo[key] = stats
                telemetry.store_hits += 1
                source = "store"
            results[key] = stats
            _emit(callback, source, key, 0.0, len(results), len(unique))
        return results, pending, telemetry

    def run_many(
        self,
        keys: Iterable[ExperimentSpec],
        memo: Optional[Dict[ExperimentSpec, object]] = None,
        callback: Optional[Callable[[RunEvent], None]] = None,
    ) -> Dict[ExperimentSpec, object]:
        """Resolve every spec; returns results in first-seen spec order.

        ``memo`` is consulted first and updated in place (the runner passes
        its per-process cache, so a later batch over the same specs is
        served without touching the store).  ``callback`` receives one
        :class:`RunEvent` per resolution or recovery of this batch.
        Telemetry covers exactly this batch and is read back through
        :attr:`telemetry` on the calling thread; the process-wide
        :func:`aggregate_telemetry` accumulates across batches.

        Thread-safe: :meth:`lookup` runs without the lock, and only a batch
        with specs left to compute takes it, so a batch served wholly from
        memo or store never waits on another thread's computation.  Under
        the lock the memo is checked again, because another thread may
        have computed a pending spec in between; such a spec counts as a
        memory hit and is reported as ``coalesced``.  That check keeps
        computation exactly-once.
        """
        started = time.perf_counter()
        requested = list(keys)
        results, pending, telemetry = self.lookup(requested, memo, callback)
        if pending:
            with self._lock:
                total = telemetry.deduplicated
                missing = []
                for key in pending:
                    stats = memo.get(key) if memo is not None else None
                    if stats is None:
                        missing.append(key)
                        continue
                    results[key] = stats
                    telemetry.memory_hits += 1
                    _emit(callback, "coalesced", key, 0.0, len(results), total)
                if missing:
                    self._resolve_pending(missing, results, memo, telemetry, callback)
        telemetry.wall_seconds = time.perf_counter() - started
        self._last.telemetry = telemetry
        with _aggregate_lock:
            _aggregate.add(telemetry)
        if pending:  # computed specs joined after the hits: first-seen order
            results = {key: results[key] for key in dict.fromkeys(requested)}
        return results

    # -- pending execution --------------------------------------------------

    def _resolve_pending(self, pending, results, memo, telemetry, callback):
        """Compute every pending spec, surviving worker loss and faults."""
        plan = self.faults
        total = telemetry.deduplicated
        counter = _Counter(total - len(pending))
        attempts: Dict[ExperimentSpec, int] = {key: 0 for key in pending}

        def resolve(key, stats, seconds, task=None):
            results[key] = stats
            if memo is not None:
                memo[key] = stats
            if self.store is not None:
                self._persist(key, stats, telemetry)
            telemetry.computed += 1
            telemetry.sim_seconds += seconds
            if task is not None and task.degraded:
                telemetry.degraded_runs += 1
            counter.value += 1
            _emit(
                callback,
                "computed",
                key,
                seconds,
                counter.value,
                total,
                attempt=attempts.get(key, 0) + 1,
                degraded=bool(task is not None and task.degraded),
            )

        def count(counters):
            if counters:
                telemetry.profiled_runs += int(counters.get("profiled_runs", 0))
                telemetry.profile_passes += int(counters.get("profile_passes", 0))
                telemetry.hier_vector_runs += int(
                    counters.get("hier_vector_runs", 0)
                )

        def deliver(task, payload):
            """Verify a task's payload and resolve it; raises on corruption."""
            stats_list, seconds, checksums, counters = payload
            if checksums is not None:
                for spec, stats, checksum in zip(task.specs, stats_list, checksums):
                    faults_module.verify_result(spec, stats, checksum)
            if len(task.specs) > 1:
                telemetry.batches += 1
                telemetry.batched_runs += len(task.specs)
            count(counters)
            # The runner call is one timed unit; attribute its wall-time
            # evenly so per-run sim_seconds still sum to engine time.
            share = seconds / len(task.specs)
            for spec, stats in zip(task.specs, stats_list):
                resolve(spec, stats, share, task)

        def execute_inline(task):
            return _execute_batch(
                task.specs, None, [attempts[spec] for spec in task.specs], plan
            )

        def emit_failures(task, source):
            for spec in task.specs:
                attempts[spec] += 1
                _emit(
                    callback,
                    source,
                    spec,
                    0.0,
                    counter.value,
                    total,
                    attempt=attempts[spec],
                    degraded=task.degraded,
                )

        def bisect(task):
            mid = (len(task.specs) + 1) // 2
            return [
                _Task(chunk, degraded=True)
                for chunk in (task.specs[:mid], task.specs[mid:])
            ]

        def followups_for(task, error, kind, inline_tier):
            """The degradation ladder: what to schedule after a failure.

            ``kind`` is ``"error"`` (the task itself raised — attributable,
            so batches bisect immediately), ``"timeout"`` (attributable:
            the task stalled) or ``"broken"`` (a worker died; not
            attributable to this task, so it retries whole until its
            budget runs out).  Returns ``(tasks, delay_seconds)``; raises
            ``error`` when the ladder is exhausted.
            """
            if kind == "timeout":
                telemetry.timeouts += 1
            else:
                telemetry.retries += 1
            emit_failures(task, "timeout" if kind == "timeout" else "retry")
            attributable = kind in ("error", "timeout")
            if attributable and len(task.specs) > 1:
                return bisect(task), 0.0
            worst = max(attempts[spec] for spec in task.specs)
            if worst <= self.retries:
                delay = faults_module.retry_delay(
                    task.specs[0],
                    worst,
                    self.backoff,
                    seed=plan.seed if plan is not None else 0,
                )
                return [task], delay
            if len(task.specs) > 1:
                return bisect(task), 0.0
            if inline_tier and not task.inline:
                return [task.as_inline()], 0.0
            raise error

        tasks = [_Task(specs) for specs in self._plan_batches(pending)]

        if self.jobs == 1 or len(tasks) == 1:
            self._run_serial(tasks, deliver, execute_inline, followups_for)
        else:
            self._run_parallel(
                tasks, pending, attempts, plan, telemetry,
                deliver, execute_inline, followups_for,
            )

    def _run_serial(self, tasks, deliver, execute_inline, followups_for):
        """Inline execution with the same retry/degradation ladder.

        Worker-only faults (hard exits, stalls) never fire in the parent,
        and per-task deadlines cannot be enforced without a worker to
        abandon, so serial recovery covers raises, corrupt results and
        torn store writes.  An exhausted ladder raises the final error.
        """
        queue = deque(tasks)
        while queue:
            task = queue.popleft()
            try:
                deliver(task, execute_inline(task))
            except Exception as error:
                replacements, delay = followups_for(
                    task, error, "error", inline_tier=False
                )
                if delay:
                    time.sleep(delay)
                for replacement in reversed(replacements):
                    queue.appendleft(replacement)

    def _run_parallel(
        self, tasks, pending, attempts, plan, telemetry,
        deliver, execute_inline, followups_for,
    ):
        """The fan-out scheduler: submit, watch deadlines, survive crashes."""
        workers = min(self.jobs, len(tasks))
        rebuild_limit = max(8, 4 * (self.retries + 1))
        exported = self._export_traces(pending)
        ready = deque(tasks)
        delayed: List[tuple] = []  # heap of (due, seq, task)
        running: Dict[object, tuple] = {}  # future -> (task, deadline)
        seq = 0
        executor = None

        def schedule(replacements, delay):
            nonlocal seq
            if delay:
                due = time.monotonic() + delay
                for replacement in replacements:
                    seq += 1
                    heapq.heappush(delayed, (due, seq, replacement))
            else:
                ready.extend(replacements)

        def rebuild():
            nonlocal executor
            telemetry.pool_rebuilds += 1
            if telemetry.pool_rebuilds > rebuild_limit:
                raise RuntimeError(
                    f"worker pool rebuilt more than {rebuild_limit} times; "
                    "giving up on this batch"
                )
            if executor is not None:
                _abandon_executor(executor)
            executor = ProcessPoolExecutor(max_workers=workers)

        def submit(task):
            nonlocal executor
            if task.inline:
                # Last rung of the ladder: compute in the parent, now.
                try:
                    deliver(task, execute_inline(task))
                except Exception as error:
                    schedule(
                        *followups_for(task, error, "error", inline_tier=False)
                    )
                return
            head = task.specs[0]
            shared = exported.get((head.workload, head.scale, head.seed))
            handle = shared.handle if shared is not None else None
            for _ in range(2):
                try:
                    # Submitted under its def name: a wrapped function
                    # pickles by qualified name, which an alias breaks.
                    future = executor.submit(
                        _execute_batch,
                        task.specs,
                        handle,
                        [attempts[spec] for spec in task.specs],
                        plan,
                    )
                    break
                except BrokenProcessPool:
                    rebuild()
            else:  # pragma: no cover - second rebuild also failed
                raise BrokenProcessPool("cannot submit to a rebuilt worker pool")
            deadline = (
                time.monotonic() + self.task_timeout if self.task_timeout else None
            )
            running[future] = (task, deadline)

        try:
            executor = ProcessPoolExecutor(max_workers=workers)
            while ready or delayed or running:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    ready.append(heapq.heappop(delayed)[2])
                while ready:
                    submit(ready.popleft())
                if not running:
                    if delayed:
                        pause = delayed[0][0] - time.monotonic()
                        if pause > 0:
                            time.sleep(pause)
                    continue

                wake_at = [due for due, _, _ in delayed[:1]]
                wake_at += [
                    deadline
                    for _, deadline in running.values()
                    if deadline is not None
                ]
                wait_timeout = (
                    max(0.0, min(wake_at) - time.monotonic()) if wake_at else None
                )
                done, _ = wait(
                    list(running), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )

                broken = False
                for future in done:
                    task, _ = running.pop(future)
                    error = future.exception()
                    if error is None:
                        try:
                            deliver(task, future.result())
                        except Exception as verify_error:
                            schedule(
                                *followups_for(
                                    task, verify_error, "error", inline_tier=True
                                )
                            )
                    elif isinstance(error, BrokenProcessPool):
                        broken = True
                        schedule(
                            *followups_for(task, error, "broken", inline_tier=True)
                        )
                    else:
                        schedule(
                            *followups_for(task, error, "error", inline_tier=True)
                        )

                if broken:
                    # The executor is dead; every in-flight task dies with
                    # it.  Requeue them all through the ladder and start a
                    # fresh pool.
                    for future, (task, _) in list(running.items()):
                        schedule(
                            *followups_for(
                                task,
                                BrokenProcessPool(
                                    "worker pool died with this task in flight"
                                ),
                                "broken",
                                inline_tier=True,
                            )
                        )
                    running.clear()
                    rebuild()
                    continue

                now = time.monotonic()
                expired = [
                    future
                    for future, (_, deadline) in running.items()
                    if deadline is not None and deadline <= now
                ]
                if expired:
                    for future in expired:
                        task, _ = running.pop(future)
                        timeout_error = TimeoutError(
                            f"task exceeded its {self.task_timeout:.1f}s deadline"
                        )
                        schedule(
                            *followups_for(
                                task, timeout_error, "timeout", inline_tier=True
                            )
                        )
                    # A stalled worker cannot be cancelled individually;
                    # abandon the pool and requeue the innocent in-flight
                    # work without an attempt penalty.
                    for future, (task, _) in list(running.items()):
                        ready.append(task)
                    running.clear()
                    rebuild()
        finally:
            if executor is not None:
                _abandon_executor(executor)
            # Workers are gone (or being torn down), so the pages have no
            # consumers left and can be destroyed.
            for shared in exported.values():
                shared.close()
                shared.unlink()


class _Counter:
    """A tiny mutable int box shared between run_many and its scheduler."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value
