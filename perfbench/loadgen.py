"""The ``capture-service`` workload: a large capture through ``repro serve``.

One run:

1. writes a seeded synthetic capture (:mod:`capture`) as gzipped text;
2. cold phase, on a fresh service with an empty store: POST the capture
   to ``/v1/traces``; then, from this one process over at most two
   connections,

   - connection A submits four cold grids over ``ingested:<hash>``: a
     size ladder, two line-size x policy grids (8 KB and 32 KB) and a
     two-level hierarchy grid, each followed to its terminal event, each
     next one sent as soon as the jobs B sent against the previous one
     have ended;
   - connection B, once the ladder is running, sends one duplicate of
     it (it coalesces and is done when the ladder is); then, while each
     line-size grid runs, B resubmits the finished ladder open loop at a
     fixed rate, timing each job from its due time to its terminal
     event.  The hierarchy grid, which sets the server's peak memory,
     runs without them: their requests make the cyclic garbage
     collector run at times that differ from run to run, and the peak
     with it;

3. warm phase, repeated: a fresh ``repro serve`` over the populated
   store gets every grid resubmitted and their results fetched, all
   served from the store, and is stopped again; its spawn until
   ``/v1/health`` answers is a set-up sample, its spawn until the last
   result a warm sample.

Latency is read from the NDJSON event stream as events arrive, never by
polling.  Checks: the service's content hash and reference counts equal
the ones computed here from the generated arrays; every cache result
counts exactly the capture's loads and stores; cold and warm results
(and the duplicate's) are identical; warm jobs computed nothing; at the
default seed the result digest equals the one in ``expected.json``.
"""

import http.client
import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

import capture
import layers
from harness import Context, Outcome, Server, children_usage, median, sha256, tail, tree_cpu_seconds

POLICIES = (
    ("write-through", "fetch-on-write"),
    ("write-through", "write-validate"),
    ("write-through", "write-around"),
    ("write-through", "write-invalidate"),
    ("write-back", "fetch-on-write"),
    ("write-back", "write-validate"),
)

#: While a grid runs, every resubmission but the one a job worker holds
#: waits in the service's job queue, whose default bound is 64.  At
#: ``rate``, ``max_jobs`` (per grid) is reached after 8 s, about 1.4
#: times the longest line-size grid measured, and stays under that bound.
SIZES = {
    "full": {"refs": 1 << 21, "rate": 7.0, "max_jobs": 56, "warm_reps": 9},
    "tiny": {"refs": 40_000, "rate": 400.0, "max_jobs": 60, "warm_reps": 2},
}


def _cache(size, line, policy):
    return {"size": size, "line_size": line, "write_hit": policy[0],
            "write_miss": policy[1]}


def grids(workload: str) -> List[dict]:
    """Ladder (profiled), two line x policy (batched) and hierarchy grids."""
    ladder = [_cache(1 << bits, 16, p) for p in POLICIES for bits in range(10, 18)]
    lines = [[_cache(size, line, p) for line in (8, 16, 32, 64, 128) for p in POLICIES]
             for size in (8192, 32768)]
    hierarchy = [
        {"levels": [{"cache": _cache(l1, 16, p)},
                    {"cache": _cache(l2, 64, POLICIES[4])}]}
        for l1 in (4096, 16384) for l2 in (131072, 524288) for p in POLICIES[:3]
    ]
    return [
        {"kind": "cache", "workloads": [workload], "configs": ladder},
        {"kind": "cache", "workloads": [workload], "configs": lines[0]},
        {"kind": "cache", "workloads": [workload], "configs": lines[1]},
        {"kind": "system", "workloads": [workload], "configs": hierarchy},
    ]


class HttpFailure(RuntimeError):
    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


def _request(port, method, path, body=None, content_type="application/json",
             timeout=170.0):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": content_type} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    if response.status >= 400:
        raise HttpFailure(response.status, f"{method} {path}: HTTP {response.status}: "
                          + payload[:200].decode(errors="replace"))
    return json.loads(payload)


@dataclass
class Job:
    """One submitted job and when each of its events arrived."""

    grid: int
    due: float = 0.0
    submit_start: float = 0.0
    submit_end: float = 0.0
    running: Optional[float] = None
    first_run: Optional[float] = None
    terminal: Optional[float] = None
    id: str = ""
    events: int = 0  #: stream events read so far (the resume index)
    final: dict = field(default_factory=dict)


class Client:
    """Submits jobs and follows their NDJSON event streams."""

    def __init__(self, port: int, outcome: Outcome, lock: threading.Lock) -> None:
        self.port = port
        self.outcome = outcome
        self.lock = lock
        self.rejected = 0

    def count(self, ok, problem):
        with self.lock:
            return self.outcome.op(ok, problem)

    def submit(self, payload: dict, job: Job) -> bool:
        job.submit_start = time.perf_counter()
        try:
            response = _request(self.port, "POST", "/v1/jobs", json.dumps(payload).encode())
        except HttpFailure as failure:
            if failure.status in (429, 503):
                self.rejected += 1
            return self.count(False, str(failure))
        job.submit_end = time.perf_counter()
        job.id = response["id"]
        return self.count(True, "")

    def follow(self, job: Job, on_running=None, deadline=None) -> bool:
        """Read the job's event stream until its terminal event (True) or
        until ``deadline`` passes (False; a later call resumes)."""
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=170)
        stream = sock.makefile("rb")
        try:
            sock.sendall(f"GET /v1/jobs/{job.id}/events?from={job.events} "
                         "HTTP/1.0\r\n\r\n".encode())
            status = stream.readline().split()
            if len(status) < 2 or status[1] != b"200":
                raise HttpFailure(int(status[1]) if len(status) > 1 else 0,
                                  f"events of job {job.id}: {status}")
            while stream.readline() not in (b"\r\n", b"\n", b""):
                pass  # response headers
            while job.terminal is None:
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        return False
                    sock.settimeout(remaining)
                try:
                    line = stream.readline()
                except socket.timeout:
                    return False
                if not line:
                    break
                event = json.loads(line)
                now = time.perf_counter()
                kind, state = event.get("type"), event.get("state")
                if kind == "keepalive":
                    continue
                job.events += 1
                if kind == "job" and state == "running" and job.running is None:
                    job.running = now
                    if on_running is not None:
                        on_running()
                elif kind == "run" and job.first_run is None:
                    job.first_run = now
                elif kind == "job" and state in ("done", "failed"):
                    job.terminal = now
                    job.final = event
        finally:
            stream.close()
            sock.close()
        state = job.final.get("state")
        self.count(state == "done", f"job {job.id} ended {state}: {job.final.get('error')}")
        return True

    def run(self, payload: dict, job: Job, on_running=None) -> Job:
        if self.submit(payload, job):
            self.follow(job, on_running)
        return job


@dataclass
class ColdPhase:
    wall_s: float
    cpu_s: float
    post_s: float
    grid_jobs: List[Job]
    warm_jobs: List[Job]
    duplicate: Job
    rejected: int
    peak_rss_mb: List[float]  #: the server's, after the POST and each grid


def cold_phase(ctx: Context, server: Server, outcome: Outcome, payloads,
               capture_path, identity) -> ColdPhase:
    size = SIZES[ctx.size]
    client = Client(server.port, outcome, threading.Lock())
    rng = random.Random(ctx.seed)
    phase = rng.uniform(0.0, 1.0 / size["rate"])
    windows = (1, 2)  # the line-size grids: the open loop meets them
    running = [threading.Event() for _ in payloads]  # each grid's running event
    done_at = [None] * len(payloads)  # when A saw each grid's terminal event
    drained = [threading.Event() for _ in payloads]  # B's jobs against it ended
    grid_jobs = [Job(index) for index in range(len(payloads))]
    warm_jobs: List[Job] = []
    duplicate = Job(0)  # of the ladder, done before the open loop

    cpu_before = tree_cpu_seconds(server.process.pid)
    started = time.perf_counter()
    body = capture_path.read_bytes()
    record = _request(server.port, "POST", "/v1/traces?name=capture", body,
                      "application/octet-stream")
    post_s = time.perf_counter() - started
    outcome.op(True, "")
    peaks = [peak_rss_mb(server.process.pid)]
    workload = record["workload"]
    for payload in payloads:
        payload.update(workloads=[workload], token="grids")
    resubmit = dict(payloads[0], token="resubmit")

    def connection_a():
        # The next grid waits for the resubmissions queued behind the last
        # one: the queue takes client tokens in turns, so a grid sent at
        # once would overtake all but one of them, and how many got
        # through first would depend on a race.
        try:
            for index, (payload, job) in enumerate(zip(payloads, grid_jobs)):
                if index - 1 in windows:
                    drained[index - 1].wait()
                client.run(payload, job, running[index].set)
                done_at[index] = time.perf_counter()
                peaks.append(peak_rss_mb(server.process.pid))
        finally:
            for index, seen in enumerate(done_at):  # ends B's open loop
                done_at[index] = time.perf_counter() if seen is None else seen

    def connection_b():
        # The duplicate holds a job worker until the grid it shares ends,
        # so it runs against the ladder and is over before the open loop:
        # the resubmissions then meet the later grids with the second job
        # worker free.
        running[duplicate.grid].wait()
        client.run(payloads[duplicate.grid], duplicate)
        for index in windows:
            running[index].wait()
            open_loop(index)
            drained[index].set()

    def open_loop(index):
        # Every resubmission goes out at its due time while grid ``index``
        # runs; between due times the oldest unfinished job's stream is
        # read, dropped at the next due time and resumed later from where
        # it stopped.
        due = time.perf_counter() + phase
        sent, waiting = 0, []
        while True:
            now, ended = time.perf_counter(), done_at[index]
            sending = (ended is None or due <= ended) and sent < size["max_jobs"]
            if sending and due <= now:
                job = Job(0, due=due)
                due += 1.0 / size["rate"]
                sent += 1
                warm_jobs.append(job)
                if client.submit(resubmit, job):
                    waiting.append(job)
            elif waiting:
                if client.follow(waiting[0], deadline=due if sending else None):
                    waiting.pop(0)
            elif sending:
                time.sleep(min(due - now, 0.05))
            else:
                return

    def guarded(target):
        def run():
            try:
                target()
            except Exception as error:  # counted, never a silent dead thread
                client.count(False, f"{target.__name__}: {error!r}")
            finally:
                for event in running + drained:  # never leave the other waiting
                    event.set()
        return threading.Thread(target=run)

    threads = [guarded(connection_a), guarded(connection_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    cpu = tree_cpu_seconds(server.process.pid) - cpu_before

    for key in ("hash", "refs", "reads", "writes"):
        outcome.op(record.get(key) == identity[key],
                   f"service reports capture {key}={record.get(key)}, "
                   f"generated {identity[key]}")
    return ColdPhase(wall, cpu, post_s, grid_jobs, warm_jobs, duplicate,
                     client.rejected, peaks)


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set so far (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _results(port, job: Job) -> dict:
    payload = _request(port, "GET", f"/v1/jobs/{job.id}/result")
    return {"specs": payload.get("specs"), "results": payload.get("results")}


def _digest(results: dict) -> str:
    return sha256(json.dumps(results, sort_keys=True).encode())


def cold_digests(ctx, server, outcome, cold: ColdPhase, identity, expected):
    """Digest each cold grid's results; check them against the capture's
    counts, the duplicate's results and (at the pinned seed) expected.json."""
    digests = []
    for job in cold.grid_jobs:
        results = _results(server.port, job)
        outcome.op(results["results"] is not None, f"grid {job.grid} has no result")
        digest = _digest(results)
        if ctx.inject_mismatch and job.grid == 0:
            digest = sha256(digest.encode())
        digests.append(digest)
        for stats in results["results"] or []:
            counted = stats["levels"][0]["cache"] if "levels" in stats else stats
            outcome.op(
                (counted["reads"], counted["writes"]) == (identity["reads"], identity["writes"]),
                f"grid {job.grid}: a result counts {counted['reads']} loads and "
                f"{counted['writes']} stores, the capture has {identity['reads']} "
                f"and {identity['writes']}",
            )
    if cold.duplicate.id:
        outcome.op(_digest(_results(server.port, cold.duplicate)) == digests[cold.duplicate.grid],
                   "the duplicate grid's results differ from the original's")
    combined = sha256("".join(digests).encode())
    outcome.record.update(capture_hash=identity["hash"], results_sha256=combined)
    if ctx.seed == expected.get("seed"):
        outcome.op(identity["hash"] == expected.get("capture_hash"),
                   "capture hash differs from expected.json")
        outcome.op(combined == expected.get("results_sha256"),
                   f"result digest {combined} differs from expected.json")
    return digests


def warm_rep(server, outcome, payloads, digests) -> None:
    """Resubmit every grid and fetch its results; the results must equal
    the cold ones and nothing may be computed."""
    client = Client(server.port, outcome, threading.Lock())
    jobs, results = [], []
    for index, payload in enumerate(payloads):
        jobs.append(client.run(payload, Job(index)))
        results.append(_results(server.port, jobs[-1]))
    for job, result, digest in zip(jobs, results, digests):
        outcome.op(_digest(result) == digest,
                   f"grid {job.grid}: warm results differ from cold")
        computed = job.final.get("telemetry", {}).get("computed")
        outcome.op(computed == 0, f"warm job {job.id} computed {computed} runs")


def _service_layer(cold: ColdPhase, p50_ms: float) -> dict:
    jobs = [job for job in cold.warm_jobs if job.terminal is not None]

    def ms(values):
        values = [value * 1000.0 for value in values if value is not None]
        return median(values) if values else 0.0

    lock_waits = [j.first_run - j.running for j in jobs if j.first_run and j.running]
    lock_wait = ms(lock_waits)
    return {
        # Record only: the one resubmission a free job worker holds waits
        # on pool.lock, the rest wait in the queue behind it.
        "service.lock_wait_max_ms": max(lock_waits, default=0.0) * 1000.0,
        "service.trace_post_s": cold.post_s,
        "service.submit_ms": ms(j.submit_end - j.submit_start for j in jobs),
        "service.queue_wait_ms": ms(j.running - j.submit_end for j in jobs if j.running),
        "service.lock_wait_ms": lock_wait,
        "service.run_ms": ms(j.terminal - j.first_run for j in jobs if j.first_run),
        "service.coalesced": cold.duplicate.final.get("coalesced", 0),
        "service.rejected": cold.rejected,
        "service.generator_late_ms": ms(j.submit_start - j.due for j in jobs),
        "service.lock_share": lock_wait / p50_ms if p50_ms else 0.0,
    }


def run_service(ctx: Context, expected: dict) -> Outcome:
    size = SIZES[ctx.size]
    outcome = Outcome()
    capture_path = ctx.path("capture.txt.gz")
    identity = capture.write_capture(capture_path, ctx.seed, size["refs"])
    outcome.record["capture_refs"] = identity["refs"]

    def serve(store, trace_dir=None):
        server = Server(ctx, store, trace_dir)
        try:
            server.wait_ready()
        except Exception:
            server.stop()
            raise
        return server

    def stop(server):
        code = server.stop()
        outcome.op(code == 0, f"repro serve exited {code} on SIGTERM")

    def warm_restart(trace_dir=None):
        """A fresh service over the populated store answers every grid from
        the store: spawn to health is a set-up sample, spawn to the last
        result a warm sample (as a CLI warm render includes its start)."""
        started = time.perf_counter()
        server = serve(store, trace_dir)
        outcome.record["setup_samples_s"].append(time.perf_counter() - started)
        try:
            warm_rep(server, outcome, payloads, digests)
            walls.append(time.perf_counter() - started)
        finally:
            stop(server)

    store, walls, untraced = ctx.path("store"), [], None
    outcome.record["setup_samples_s"] = []
    stop(serve(ctx.path("store-setup")))  # compiles bytecode, warms the page cache
    if ctx.traced:
        server = serve(ctx.path("store-untraced"))
        try:
            untraced = cold_phase(ctx, server, outcome, grids(""), capture_path, identity)
        finally:
            stop(server)

    trace_dir = ctx.path("spans") if ctx.traced else None
    server = serve(store, trace_dir)
    try:
        payloads = grids("")
        measure_start = ctx.elapsed()
        cold = cold_phase(ctx, server, outcome, payloads, capture_path, identity)
        digests = cold_digests(ctx, server, outcome, cold, identity, expected)
    finally:
        stop(server)
    if ctx.traced:
        warm_restart(trace_dir)
    else:
        while (len(walls) < size["warm_reps"]
               or ctx.elapsed() - measure_start < ctx.seconds):
            warm_restart()

    done = [job for job in cold.warm_jobs if job.terminal is not None]
    latencies = [(job.terminal - job.due) * 1000.0 for job in done]
    p50 = median(latencies) if latencies else 0.0
    outcome.record.update(
        trace_post_s=cold.post_s,
        cold_peak_rss_mb=cold.peak_rss_mb,
        grid_walls_s=[job.terminal - job.submit_start for job in cold.grid_jobs
                      if job.terminal is not None],
        # [due, latency] of each resubmission, due in s from the first grid's submit
        resubmissions=[[round(job.due - cold.grid_jobs[0].submit_start, 4), round(latency, 2)]
                       for job, latency in zip(done, latencies)],
        warm_walls_s=walls,
        service_layer=_service_layer(cold, p50),
    )
    if ctx.traced:
        values = layers.layer_metrics(layers.spans_of(layers.load_spans([trace_dir])))
        values.update(outcome.record["service_layer"])
        values["trace.overhead_s"] = cold.wall_s - untraced.wall_s
        values["trace.overhead_share"] = values["trace.overhead_s"] / untraced.wall_s
        outcome.metrics.update(layers.complete(values))
        outcome.record.update(traced_cold_wall_s=cold.wall_s,
                              untraced_cold_wall_s=untraced.wall_s)
        return outcome

    _, peak_rss = children_usage()
    outcome.metric("setup_s", median(outcome.record["setup_samples_s"]), "s")
    outcome.metric("cold_wall_s", cold.wall_s, "s")
    outcome.metric("cold_cpu_s", cold.cpu_s, "s")
    outcome.metric("warm_wall_s", median(walls), "s")
    if len(latencies) >= 11:
        job_tail = tail(latencies)
        outcome.metric("warm_job_p50_ms", p50, "ms")
        outcome.metric("warm_job_tail_ms", job_tail["value"], "ms")
        outcome.record["warm_job_tail"] = job_tail
    outcome.metric("peak_rss_mb", peak_rss, "MB")
    return outcome
