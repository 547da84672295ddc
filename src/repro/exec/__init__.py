"""Experiment orchestration: parallel execution and persistent results.

The figure and benchmark sweeps all reduce to batches of experiment
requests — an experiment *kind* (which simulator family), a workload with
scale and seed, and a kind-specific configuration.  This package turns
those batches into a pipeline:

- :mod:`repro.exec.experiments` — the kind registry: each simulator
  family registers a runner, a stats type and an engine version under a
  stable kind tag (:func:`register_runner`);
- :mod:`repro.exec.keys` — :class:`ExperimentSpec`, the content-addressed
  identity of one run (the kind's engine version is part of the hash, so
  engine changes invalidate that kind's results only); :func:`RunKey`
  builds the cache-kind spec;
- :mod:`repro.exec.store` — :class:`ResultStore`, an atomic,
  corruption-tolerant on-disk map from specs to their kind's stats;
- :mod:`repro.exec.pool` — :class:`ExperimentPool`, a deduplicating
  memory -> disk -> compute batch runner with optional process-pool
  fan-out, per-run telemetry and fault tolerance (retries with backoff,
  per-task deadlines, pool rebuilds, batch bisection); mixed-kind
  batches share trace shipment;
- :mod:`repro.exec.faults` — deterministic fault injection
  (:class:`FaultPlan`) driving the chaos test suite; inert in
  production.

:mod:`repro.core.runner` builds its ``resolve`` API on top — one
:meth:`ExperimentPool.run_many` batch per grid — so callers rarely touch
this package directly.
"""

from repro.exec.experiments import (
    ExperimentKind,
    UnknownExperimentKind,
    engine_version_for,
    get_kind,
    register_runner,
    registered_kinds,
    unregister_runner,
)
from repro.exec.faults import (
    ENV_FAULT_PLAN,
    FaultPlan,
    FaultRule,
    InjectedFault,
    ResultIntegrityError,
    active_plan,
    set_active_plan,
)
from repro.exec.keys import ExperimentSpec, RunKey
from repro.exec.pool import (
    ENV_JOBS,
    ENV_RETRIES,
    ENV_TASK_TIMEOUT,
    ExperimentPool,
    PoolTelemetry,
    RunEvent,
    aggregate_telemetry,
    default_jobs,
    default_retries,
    default_task_timeout,
    reset_aggregate_telemetry,
    set_default_fault_policy,
    set_default_jobs,
    verbose_reporter,
)
from repro.exec.store import (
    ENV_RESULT_DIR,
    ResultStore,
    StoreTelemetry,
    default_store_root,
    open_default_store,
)

__all__ = [
    "ExperimentKind",
    "ExperimentSpec",
    "RunKey",
    "UnknownExperimentKind",
    "engine_version_for",
    "get_kind",
    "register_runner",
    "registered_kinds",
    "unregister_runner",
    "ExperimentPool",
    "PoolTelemetry",
    "RunEvent",
    "aggregate_telemetry",
    "reset_aggregate_telemetry",
    "default_jobs",
    "set_default_jobs",
    "default_retries",
    "default_task_timeout",
    "set_default_fault_policy",
    "verbose_reporter",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "ResultIntegrityError",
    "active_plan",
    "set_active_plan",
    "ResultStore",
    "StoreTelemetry",
    "default_store_root",
    "open_default_store",
    "ENV_JOBS",
    "ENV_RETRIES",
    "ENV_TASK_TIMEOUT",
    "ENV_FAULT_PLAN",
    "ENV_RESULT_DIR",
]
