"""The experiment service: job workers over one warm pool and store.

:class:`ExperimentService` is the heart — a fixed crew of worker threads
pulling jobs off the bounded fair queue (:mod:`repro.service.queue`) and
resolving each as one :meth:`~repro.exec.pool.ExperimentPool.run_many`
call on the shared pool (memory -> disk -> compute, fanned out across
worker processes).  The pool's memo and store lookup takes no lock, so
cached specs never queue behind another job's computation.  Its compute
phase runs under the pool lock after a second memo check, so a spec an
overlapping job computed while this one waited resolves from the memo
instead of recomputing (a ``coalesced`` event and telemetry count).
Results are bit-identical to a local run — the service adds routing,
never math.

:class:`ServiceServer` is the stdlib HTTP front end
(``http.server.ThreadingHTTPServer``; one thread per connection, safe
because every handler either answers from locked state or tails a job's
condition-signalled event log):

====================================  =====================================
``POST /v1/jobs``                     submit (202; 400 bad payload; 429
                                      queue full; 503 draining)
``GET /v1/jobs``                      job summaries, newest last
``GET /v1/jobs/{id}``                 one job's summary
``GET /v1/jobs/{id}/events``          newline-delimited JSON event stream
                                      (``?from=N`` resumes mid-log)
``GET /v1/jobs/{id}/result``          specs + stats + telemetry once done
``GET /v1/store/stats``               the store summary, as JSON
``GET /v1/runs[?kind=...]``           store catalog (digest/kind/key rows)
``POST /v1/traces[?format=&name=]``   ingest the raw request body into the
                                      trace catalog (201; 400 malformed
                                      trace; 404 store disabled)
``GET /v1/traces``                    catalogued traces, newest first
``GET /v1/traces/{hash}``             one catalog record (prefix ok)
``DELETE /v1/traces/{hash}``          drop a catalog entry
``GET /v1/health``                    liveness + drain state
``GET /v1/telemetry``                 service counters incl. ``coalesced``
====================================  =====================================

Catalogued traces run through the normal job API as ``ingested:<hash>``
workload names (see docs/workloads.md), deduplicating by content hash
like every other spec.

Graceful drain: :meth:`ExperimentService.begin_drain` flips submissions
to 503 while in-flight *and already-queued* jobs run to completion and
persist; :meth:`drain` blocks until the last accepted job is terminal,
then stops the workers.  ``repro serve`` wires SIGTERM/SIGINT to exactly
that, so a service under a process manager exits 0 with a healthy store.
"""

import json
import os
import threading
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional
from urllib.parse import parse_qs, urlparse

from repro.common.errors import ConfigurationError
from repro.exec.keys import ExperimentSpec
from repro.exec.pool import ExperimentPool, RunEvent, default_jobs, env_number
from repro.exec.store import ResultStore, open_default_store
from repro.service.protocol import (
    PROTOCOL_VERSION,
    JobRequest,
    ProtocolError,
    parse_job_request,
)
from repro.service.queue import (
    DEFAULT_QUEUE_DEPTH,
    Job,
    JobQueue,
    QueueFull,
    ServiceDraining,
    ServiceTelemetry,
)

#: Environment variables giving ``repro serve`` (and the client CLI
#: subcommands) their default bind address.
ENV_SERVE_HOST = "REPRO_SERVE_HOST"
ENV_SERVE_PORT = "REPRO_SERVE_PORT"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

#: Seconds between keepalive lines on an otherwise idle event stream.
STREAM_KEEPALIVE = 5.0

#: Finished jobs kept for ``GET /v1/jobs``; oldest are forgotten first.
JOB_HISTORY_LIMIT = 512


def default_host() -> str:
    """Bind/connect host: ``$REPRO_SERVE_HOST`` or ``127.0.0.1``."""
    return os.environ.get(ENV_SERVE_HOST) or DEFAULT_HOST


def default_port() -> int:
    """Bind/connect port: ``$REPRO_SERVE_PORT`` or ``8321``."""
    port = env_number(ENV_SERVE_PORT, int)
    if port is None:
        return DEFAULT_PORT
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"${ENV_SERVE_PORT}={port} is outside 0-65535")
    return port


class ExperimentService:
    """One warm pool + one store + a crew of job workers, shared by all."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: Optional[int] = None,
        workers: int = 2,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
    ) -> None:
        self.store = open_default_store() if store is None else store
        self.pool = ExperimentPool(
            store=self.store, jobs=default_jobs() if jobs is None else jobs
        )
        #: Cross-job in-memory result cache (the pool's first lookup tier).
        self.memo: Dict[ExperimentSpec, object] = {}
        self.queue = JobQueue(queue_depth)
        self.telemetry = ServiceTelemetry()
        self._telemetry_lock = threading.Lock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._jobs_lock = threading.Lock()
        self._draining = threading.Event()
        self._stopping = False
        self._threads: List[threading.Thread] = []
        self._worker_count = max(1, workers)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the job worker threads (idempotent)."""
        if self._threads:
            return
        for index in range(self._worker_count):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop accepting jobs; everything already accepted still runs."""
        self._draining.set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Drain gracefully: 503 new jobs, finish accepted ones, stop.

        Returns ``True`` when every accepted job reached a terminal state
        within ``timeout`` (``None`` = wait forever).
        """
        self.begin_drain()
        with self._jobs_lock:
            accepted = list(self._jobs.values())
        finished = all(job.wait(timeout) for job in accepted)
        self.stop()
        return finished

    def stop(self) -> None:
        """Stop the workers after they finish what they already hold."""
        self._stopping = True
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []

    # -- submission ----------------------------------------------------------

    def submit(self, request: JobRequest) -> Job:
        """Accept one job into the queue (or raise the back-pressure error)."""
        if self._draining.is_set() or self._stopping:
            with self._telemetry_lock:
                self.telemetry.rejected_draining += 1
            raise ServiceDraining("service is draining; resubmit elsewhere")
        job = Job(request)
        try:
            self.queue.push(job)
        except QueueFull:
            with self._telemetry_lock:
                self.telemetry.rejected_full += 1
            raise
        except ServiceDraining:
            with self._telemetry_lock:
                self.telemetry.rejected_draining += 1
            raise
        with self._jobs_lock:
            self._jobs[job.id] = job
            self._trim_history()
        with self._telemetry_lock:
            self.telemetry.submitted += 1
        return job

    def job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._jobs_lock:
            return list(self._jobs.values())

    def _trim_history(self) -> None:
        """Forget the oldest finished jobs past the history bound."""
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job.state in ("done", "failed")
        ]
        for job_id in finished[: max(0, len(finished) - JOB_HISTORY_LIMIT)]:
            del self._jobs[job_id]

    # -- execution -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop(timeout=0.2)
            if job is None:
                if self._stopping:
                    return
                continue
            try:
                results = self._run_job(job)
            except BaseException as error:  # never kill a worker thread
                with self._telemetry_lock:
                    self.telemetry.failed += 1
                job.fail(error)
            else:
                with self._telemetry_lock:
                    self.telemetry.completed += 1
                job.finish(results)

    def _run_batch(self, job: Job, specs: List[ExperimentSpec], reporter):
        """Resolve ``specs`` for ``job`` in one pool batch; folds its
        telemetry in."""
        results = self.pool.run_many(specs, memo=self.memo, callback=reporter)
        job.telemetry.add(self.pool.telemetry)
        return results

    def _run_job(self, job: Job) -> List[object]:
        """Run ``job``'s batch; its results in spec order."""
        job.mark_running()

        def reporter(event: RunEvent) -> None:
            if event.source == "coalesced":
                job.coalesced += 1
                with self._telemetry_lock:
                    self.telemetry.coalesced += 1
            job.add_event({"type": "run", **event.to_dict()})

        results = self._run_batch(job, job.specs, reporter)
        return [results[spec] for spec in job.specs]

    @property
    def catalog(self):
        """The trace catalog under the store root; ``None`` when the
        store is disabled (catalogued traces need persistence)."""
        if self.store is None:
            return None
        from repro.trace.catalog import CATALOG_DIRNAME, TraceCatalog

        return TraceCatalog(self.store.root / CATALOG_DIRNAME)

    # -- reporting -----------------------------------------------------------

    def telemetry_snapshot(self) -> dict:
        """Service counters plus queue/job gauges (the ``/v1/telemetry`` body)."""
        from repro.exec.pool import aggregate_telemetry

        with self._telemetry_lock:
            counters = self.telemetry.to_dict()
        states: Dict[str, int] = {}
        for job in self.jobs():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "protocol": PROTOCOL_VERSION,
            "service": counters,
            # Process-wide pool counters: every batch this service ran,
            # including profiled_runs/profile_passes from size-ladder
            # collapses (per-job slices live in each job's result body).
            "pool": aggregate_telemetry().to_dict(),
            "queue_depth": len(self.queue),
            "queue_bound": self.queue.depth,
            "jobs_by_state": dict(sorted(states.items())),
            "draining": self.draining,
        }

    def result_payload(self, job: Job) -> dict:
        """The ``GET /v1/jobs/{id}/result`` body for a finished job."""
        payload = job.summary()
        payload["protocol"] = PROTOCOL_VERSION
        if job.state == "done" and job.results is not None:
            payload["specs"] = [spec.to_dict() for spec in job.specs]
            payload["results"] = [stats.to_dict() for stats in job.results]
            payload["telemetry"] = job.telemetry.to_dict()
        return payload


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the bound :class:`ExperimentService`."""

    server_version = f"repro-serve/{PROTOCOL_VERSION}"

    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # -- plumbing ------------------------------------------------------------

    def _send_json(self, status: int, payload: dict, headers=()) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _content_length(self) -> int:
        """The request's ``Content-Length`` (0 when absent).

        Anything but a non-negative decimal integer raises
        :class:`ProtocolError`: a negative length would make
        ``rfile.read`` block until the client hangs up.
        """
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise ProtocolError(f"bad Content-Length header: {raw!r}")
        return int(raw)

    def _read_body(self) -> object:
        length = self._content_length()
        raw = self.rfile.read(length) if length else b""
        try:
            return json.loads(raw.decode("utf-8")) if raw else None
        except (ValueError, UnicodeDecodeError) as error:
            raise ProtocolError(f"request body is not JSON: {error}") from error

    # -- routes --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        if parsed.path == "/v1/traces":
            query = {
                name: values[-1]
                for name, values in parse_qs(parsed.query).items()
            }
            self._trace_add(query)
            return
        if parsed.path != "/v1/jobs":
            self._send_json(404, {"error": f"no such endpoint: {parsed.path}"})
            return
        try:
            request = parse_job_request(self._read_body())
            job = self.service.submit(request)
        except ProtocolError as error:
            self._send_json(400, {"error": str(error)})
        except QueueFull as error:
            self._send_json(429, {"error": str(error)}, headers=[("Retry-After", "1")])
        except ServiceDraining as error:
            self._send_json(503, {"error": str(error)})
        else:
            self._send_json(
                202,
                {
                    "protocol": PROTOCOL_VERSION,
                    "id": job.id,
                    "state": job.state,
                    "specs": len(job.specs),
                    "requested": job.requested,
                },
            )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        query = {
            name: values[-1] for name, values in parse_qs(parsed.query).items()
        }
        parts = [part for part in parsed.path.split("/") if part]
        if parts == ["v1", "health"]:
            self._send_json(
                200,
                {
                    "status": "draining" if self.service.draining else "ok",
                    "protocol": PROTOCOL_VERSION,
                },
            )
        elif parts == ["v1", "telemetry"]:
            self._send_json(200, self.service.telemetry_snapshot())
        elif parts == ["v1", "jobs"]:
            self._send_json(
                200, {"jobs": [job.summary() for job in self.service.jobs()]}
            )
        elif parts[:2] == ["v1", "jobs"] and len(parts) in (3, 4):
            self._job_route(parts, query)
        elif parts == ["v1", "store", "stats"]:
            self._store_stats()
        elif parts == ["v1", "runs"]:
            self._store_runs(query.get("kind"))
        elif parts == ["v1", "traces"]:
            catalog = self.service.catalog
            if catalog is None:
                self._send_json(404, {"error": "result store is disabled"})
                return
            records = catalog.ls()
            self._send_json(200, {"traces": records, "count": len(records)})
        elif parts[:2] == ["v1", "traces"] and len(parts) == 3:
            self._trace_get(parts[2])
        else:
            self._send_json(404, {"error": f"no such endpoint: {parsed.path}"})

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parts[:2] != ["v1", "traces"] or len(parts) != 3:
            self._send_json(404, {"error": f"no such endpoint: {parsed.path}"})
            return
        catalog = self.service.catalog
        if catalog is None:
            self._send_json(404, {"error": "result store is disabled"})
            return
        from repro.common.errors import ReproError

        try:
            digest = catalog.resolve(parts[2])
        except ReproError as error:
            self._send_json(404, {"error": str(error)})
            return
        catalog.rm(digest)
        self._send_json(200, {"removed": digest})

    def _trace_add(self, query) -> None:
        import io

        from repro.common.errors import ReproError, TraceFormatError

        catalog = self.service.catalog
        if catalog is None:
            self._send_json(404, {"error": "result store is disabled"})
            return
        try:
            length = self._content_length()
        except ProtocolError as error:
            self._send_json(400, {"error": str(error)})
            return
        raw = self.rfile.read(length) if length else b""
        if not raw:
            self._send_json(400, {"error": "empty request body"})
            return
        try:
            access_size = int(query.get("access_size", 4))
            record = catalog.add(
                io.BytesIO(raw),
                format=query.get("format", "auto"),
                name=query.get("name") or "<upload>",
                access_size=access_size,
            )
        except (TraceFormatError, ReproError, ValueError) as error:
            self._send_json(400, {"error": str(error)})
            return
        status = 200 if record.get("duplicate") else 201
        record["workload"] = f"ingested:{record['hash']}"
        self._send_json(status, record)

    def _trace_get(self, digest: str) -> None:
        catalog = self.service.catalog
        if catalog is None:
            self._send_json(404, {"error": "result store is disabled"})
            return
        from repro.common.errors import ReproError

        try:
            record = catalog.get(catalog.resolve(digest))
        except ReproError as error:
            self._send_json(404, {"error": str(error)})
            return
        record["workload"] = f"ingested:{record['hash']}"
        self._send_json(200, record)

    def _job_route(self, parts, query) -> None:
        job = self.service.job(parts[2])
        if job is None:
            self._send_json(404, {"error": f"unknown job: {parts[2]}"})
            return
        if len(parts) == 3:
            self._send_json(200, job.summary())
        elif parts[3] == "result":
            status = 200 if job.state == "done" else 202
            if job.state == "failed":
                status = 200
            self._send_json(status, self.service.result_payload(job))
        elif parts[3] == "events":
            try:
                start = max(0, int(query.get("from", 0)))
            except ValueError:
                self._send_json(400, {"error": "'from' must be an integer"})
                return
            self._stream_events(job, start)
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def _stream_events(self, job: Job, start: int) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        index = start
        try:
            while True:
                events, finished = job.wait_events(index, STREAM_KEEPALIVE)
                for event in events:
                    line = json.dumps(event, separators=(",", ":")) + "\n"
                    self.wfile.write(line.encode("utf-8"))
                index += len(events)
                if not events and not finished:
                    self.wfile.write(b'{"type":"keepalive"}\n')
                self.wfile.flush()
                if finished:
                    return
        except (BrokenPipeError, ConnectionResetError):
            return  # reader went away; the job carries on regardless

    def _store_stats(self) -> None:
        store = self.service.store
        if store is None:
            self._send_json(404, {"error": "result store is disabled"})
            return
        self._send_json(200, store.stats())

    def _store_runs(self, kind: Optional[str]) -> None:
        store = self.service.store
        if store is None:
            self._send_json(404, {"error": "result store is disabled"})
            return
        records = store.records(kind=kind)
        self._send_json(200, {"records": records, "count": len(records)})


class ServiceServer:
    """The threading HTTP server bound to one :class:`ExperimentService`."""

    def __init__(
        self,
        service: ExperimentService,
        host: Optional[str] = None,
        port: Optional[int] = None,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.httpd = ThreadingHTTPServer(
            (host if host is not None else default_host(),
             port if port is not None else default_port()),
            _ServiceHandler,
        )
        self.httpd.daemon_threads = True
        self.httpd.service = service  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start_background(self) -> None:
        """Serve requests on a daemon thread (workers start too)."""
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()

    def shutdown(self) -> None:
        """Stop the HTTP listener (drain the service first, normally)."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
