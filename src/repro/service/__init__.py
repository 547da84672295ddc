"""Long-running experiment service over the pool and the store.

The orchestration stack (:class:`~repro.exec.pool.ExperimentPool` +
:class:`~repro.exec.store.ResultStore`) is a per-process library: every
consumer pays pool spin-up, and identical sweeps submitted by two
concurrent clients each simulate the full grid because dedup only
happens *inside* one pool.  This package puts a persistent HTTP/JSON
server in front of both, so many clients share one warm pool, one store
and one in-flight computation per spec:

- :mod:`repro.service.protocol` — the wire formats: job requests
  (explicit spec lists or kind/workload-grid/config-grid sweeps, reusing
  :class:`~repro.exec.keys.ExperimentSpec` serde) and job payloads;
- :mod:`repro.service.queue` — the bounded priority job queue with
  round-robin fairness across client tokens, and the job state machine;
- :mod:`repro.service.app` — :class:`ExperimentService` (job workers
  that each resolve a job as one pool batch, so overlapping submissions
  compute each spec once under the pool lock and the waiting job counts
  the spec as ``coalesced``) plus the stdlib ``ThreadingHTTPServer`` front end
  (submit with 429 back-pressure, NDJSON event streams, result and
  store-catalog endpoints, graceful drain);
- :mod:`repro.service.client` — :class:`ServiceClient`, the thin
  ``urllib``-based client the ``repro submit``/``jobs``/``watch`` CLI
  subcommands use.

Everything is standard library only (``http.server`` + ``json``); start
a server with ``python -m repro serve`` (see ``docs/service.md``).
"""

from repro.service.app import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ENV_SERVE_HOST,
    ENV_SERVE_PORT,
    ExperimentService,
    ServiceServer,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    JobRequest,
    ProtocolError,
    parse_job_request,
)
from repro.service.queue import (
    Job,
    JobQueue,
    QueueFull,
    ServiceDraining,
    ServiceTelemetry,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ENV_SERVE_HOST",
    "ENV_SERVE_PORT",
    "ExperimentService",
    "ServiceServer",
    "ServiceClient",
    "ServiceError",
    "PROTOCOL_VERSION",
    "JobRequest",
    "ProtocolError",
    "parse_job_request",
    "Job",
    "JobQueue",
    "QueueFull",
    "ServiceDraining",
    "ServiceTelemetry",
]
