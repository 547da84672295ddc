"""The two CLI workloads: ``paper-figures`` and ``hier-structures``.

Each run measures, in host time:

- set-up: the median of fresh interpreters reaching a loaded program,
  timed before the cold phase, once per warm round and after the warm
  rounds (after one untimed start that compiles bytecode);
- cold: one ``repro figures`` process rendering every id of the workload
  into an empty result store, with its pool workers;
- warm rounds, repeated until the run has measured ``--seconds``: the
  same command in a fresh process against the populated store, one
  set-up sample, and a few passes of warm jobs;
- warm jobs: each id rendered from the store as one independent job by
  ``nproc`` long-lived program processes at once, as ``nproc`` users
  would send them; the processes live through all the warm rounds (after
  one untimed pass that generates their traces), each pass in a seeded
  order.  With a single process the second vCPU sat idle and the jobs'
  median followed the host's other tenants, 1.6 times apart between
  their quiet and busy spells.

Every time metric is thus a median over samples spread across the whole
warm part of the run, not over one moment of it.  The job latencies are
summarised per figure id first, so that no statistic sits on the
boundary between two figures of different cost: ``warm_job_p50_ms`` is
each id's median latency and ``warm_job_tail_ms`` each id's 90th
percentile, both averaged over the ids.

The correctness checks are the same in every run: each warm render is
byte-identical to the cold one and computed nothing (read from the
program's pool telemetry), every job renders what the cold render
printed, and the output digest equals the one recorded in
``expected.json`` (the figure drivers fix their corpus seed at 1991, so
the output does not depend on ``--seed``).
"""

import json
import os
import random
import signal
import statistics
import subprocess
import threading
import time

import layers
from harness import Context, Outcome, children_usage, median, sha256

HIER_IDS = ("hier_miss", "hier_traffic")
PAPER_IDS = tuple(fid for fid in layers.FIGURE_IDS if fid not in HIER_IDS)

#: id list; scale, warm-job passes per warm round and least warm rounds
#: by size.
CLI_WORKLOADS = {
    "paper-figures": {
        "ids": PAPER_IDS,
        "scale": {"full": 1.0, "tiny": 0.02},
        "passes": {"full": 6, "tiny": 1},
        "warm_rounds": {"full": 4, "tiny": 2},
    },
    "hier-structures": {
        "ids": HIER_IDS,
        "scale": {"full": 0.05, "tiny": 0.005},
        "passes": {"full": 12, "tiny": 6},
        "warm_rounds": {"full": 8, "tiny": 2},
    },
}

#: Fresh starts timed before the cold phase and after the warm rounds;
#: one more is timed in each warm round.
SETUP_SAMPLES = {"full": 2, "tiny": 1}

#: Longest a warm-jobs pass may take before its process is killed.
PASS_TIMEOUT_S = 120.0


def sample_setup(ctx: Context, outcome: Outcome, count=None) -> None:
    samples = outcome.record.setdefault("setup_samples_s", [])
    for _ in range(SETUP_SAMPLES[ctx.size] if count is None else count):
        samples.append(ctx.ready_seconds())
        outcome.attempted += 1


def _figures(ctx, spec, store, trace_dir=None):
    args = ["figures", *spec["ids"], "--scale", spec["scale"][ctx.size],
            "--jobs", ctx.jobs]
    return ctx.run_program("cli", args, store, trace_dir)


def _cold(ctx, outcome, spec, store, expected, trace_dir=None):
    cold = _figures(ctx, spec, store, trace_dir)
    ok = outcome.op(cold.code == 0, f"cold render exited {cold.code}: "
                    + cold.stderr.decode(errors="replace")[-300:])
    if ok:
        if ctx.inject_mismatch:
            cold.stdout = b"#" + cold.stdout[1:]
        digest = sha256(cold.stdout)
        outcome.record["output_sha256"] = digest
        outcome.op(digest == expected.get("output_sha256"),
                   f"cold output digest {digest} differs from expected.json")
        outcome.op(cold.record["telemetry"]["computed"] > 0,
                   "cold render computed nothing: the store was not empty")
    return cold


def _warm(ctx, outcome, spec, store, cold, trace_dir=None):
    warm = _figures(ctx, spec, store, trace_dir)
    if outcome.op(warm.code == 0, f"warm render exited {warm.code}"):
        outcome.op(warm.stdout == cold.stdout,
                   "warm output differs from the cold output")
        computed = warm.record["telemetry"]["computed"]
        outcome.op(computed == 0, f"warm render computed {computed} runs")
    return warm


class JobClient:
    """One long-lived program process serving warm jobs (``shim.py jobs``)."""

    def __init__(self, ctx: Context, spec: dict, store) -> None:
        stamp = time.monotonic_ns()
        self.out = ctx.path(f"jobs-{stamp}.json")
        self.log = open(ctx.path(f"jobs-{stamp}.log"), "wb")
        self.process = subprocess.Popen(
            [ctx.python, ctx.shim, str(self.out), "jobs", str(spec["scale"][ctx.size])],
            env=ctx.env(store), cwd=ctx.work, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            start_new_session=True,
        )

    def send(self, ids) -> None:
        self.process.stdin.write(" ".join(ids) + "\n")
        self.process.stdin.flush()

    def latencies(self) -> list:
        """The latencies in ms of the jobs last sent."""
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"warm-jobs process ended (exit {self.process.poll()})")
        return json.loads(line)

    def close(self):
        """End the input and wait; the exit code and the process's record."""
        self.process.stdin.close()
        try:
            code = self.process.wait(timeout=PASS_TIMEOUT_S)
        finally:
            self.kill()  # only a process that outlived the wait is killed
        record = {}
        if self.out.exists():
            record = json.loads(self.out.read_text(encoding="utf-8"))
        return code, record

    def kill(self) -> None:
        if self.process.poll() is None:
            os.killpg(self.process.pid, signal.SIGKILL)
        self.process.wait()
        self.log.close()


class WarmJobs:
    """Warm jobs from ``nproc`` clients at once, each a :class:`JobClient`
    rendering every pass over the ids in its own seeded order."""

    def __init__(self, ctx: Context, spec: dict, store) -> None:
        self.spec = spec
        self.rng = random.Random(ctx.seed)
        self.latencies = {figure_id: [] for figure_id in spec["ids"]}
        self.jobs = 0
        self.clients = []
        for _ in range(ctx.jobs):
            self.clients.append(JobClient(ctx, spec, store))

    def passes(self, count: int, timed: bool = True) -> None:
        orders = []
        for client in self.clients:
            order = []
            for _ in range(count):
                ids = list(self.spec["ids"])
                self.rng.shuffle(ids)
                order.extend(ids)
            client.send(order)
            orders.append(order)
        watchdog = threading.Timer(PASS_TIMEOUT_S, self.kill)
        watchdog.start()
        try:
            replies = [client.latencies() for client in self.clients]
        finally:
            watchdog.cancel()
        for order, latencies in zip(orders, replies):
            self.jobs += len(order)
            if timed:
                for figure_id, latency in zip(order, latencies):
                    self.latencies[figure_id].append(latency)

    def finish(self, outcome: Outcome, cold) -> None:
        """End every client and check what its jobs rendered."""
        outcome.attempted += self.jobs - len(self.clients)
        for client in self.clients:
            code, record = client.close()
            if not outcome.op(code == 0, f"warm jobs exited {code}"):
                continue
            text = "".join(record["texts"][fid] + "\n\n" for fid in self.spec["ids"])
            outcome.op(text.encode() == cold.stdout,
                       "store-served job output differs from the cold render")
            outcome.op(record["mismatches"] == 0,
                       f"{record['mismatches']} repeated jobs rendered differently")
            computed = record["telemetry"]["computed"]
            outcome.op(computed == 0, f"warm jobs computed {computed} runs")

    def kill(self) -> None:
        for client in self.clients:
            client.kill()

    def summary(self) -> dict:
        """Per-id median and 90th percentile, each averaged over the ids."""
        medians, highs = [], []
        for values in self.latencies.values():
            medians.append(median(values))
            highs.append(statistics.quantiles(values, n=10)[-1])
        return {"p50_ms": statistics.fmean(medians),
                "tail_ms": statistics.fmean(highs),
                "jobs_per_id": len(next(iter(self.latencies.values())))}


def run_cli(ctx: Context, expected: dict) -> Outcome:
    spec = CLI_WORKLOADS[ctx.workload]
    outcome = Outcome()
    if ctx.traced:
        return _traced_cli(ctx, spec, expected, outcome)

    ctx.ready_seconds()  # compiles bytecode, warms the page cache
    sample_setup(ctx, outcome)
    store = ctx.path("store")
    measure_start = ctx.elapsed()
    cold = _cold(ctx, outcome, spec, store, expected)
    if cold.code != 0:
        return outcome
    jobs = WarmJobs(ctx, spec, store)
    try:
        jobs.passes(1, timed=False)  # generates the traces the jobs reuse
        warm_walls = []
        while (len(warm_walls) < spec["warm_rounds"][ctx.size]
               or ctx.elapsed() - measure_start < ctx.seconds):
            warm_walls.append(_warm(ctx, outcome, spec, store, cold).wall_s)
            sample_setup(ctx, outcome, 1)
            jobs.passes(spec["passes"][ctx.size])
        jobs.finish(outcome, cold)
    except BaseException:
        jobs.kill()
        raise
    sample_setup(ctx, outcome)
    _, peak_rss = children_usage()
    job_summary = jobs.summary()

    outcome.metric("setup_s", median(outcome.record["setup_samples_s"]), "s")
    outcome.metric("cold_wall_s", cold.wall_s, "s")
    outcome.metric("cold_cpu_s", cold.cpu_s, "s")
    outcome.metric("warm_wall_s", median(warm_walls), "s")
    outcome.metric("warm_job_p50_ms", job_summary["p50_ms"], "ms")
    outcome.metric("warm_job_tail_ms", job_summary["tail_ms"], "ms")
    outcome.metric("peak_rss_mb", peak_rss, "MB")
    outcome.record.update(warm_walls_s=warm_walls, warm_jobs=job_summary,
                          warm_job_latencies_ms=jobs.latencies)
    return outcome


def _traced_cli(ctx, spec, expected, outcome):
    """A traced cold, warm and warm-jobs pass, with the traced cold render
    bracketed by two untraced ones to measure the tracing overhead."""
    ctx.ready_seconds()  # compiles bytecode, warms the page cache
    before = _cold(ctx, outcome, spec, ctx.path("store-untraced-1"), expected)
    store = ctx.path("store")
    cold_dir, warm_dir = ctx.path("spans-cold"), ctx.path("spans-warm")
    cold = _cold(ctx, outcome, spec, store, expected, cold_dir)
    after = _cold(ctx, outcome, spec, ctx.path("store-untraced-2"), expected)
    if before.code != 0 or cold.code != 0 or after.code != 0:
        return outcome
    untraced_wall = (before.wall_s + after.wall_s) / 2
    warm = _warm(ctx, outcome, spec, store, cold, warm_dir)
    jobs = WarmJobs(ctx, spec, store)
    try:
        jobs.passes(1)
        jobs.finish(outcome, cold)
    except BaseException:
        jobs.kill()
        raise

    spans = layers.spans_of(layers.load_spans([cold_dir, warm_dir]))
    values = layers.layer_metrics(spans)
    cold_spans = layers.spans_of(layers.load_spans([cold_dir]))
    for figure_id, seconds in layers.render_times(cold_spans).items():
        values[f"core.figures.{figure_id}.render_s"] = seconds
    warm_renders = layers.render_times(layers.spans_of(layers.load_spans([warm_dir])))
    if "table1" in warm_renders:
        values["core.figures.table1.warm_share"] = warm_renders["table1"] / warm.wall_s
    values["trace.overhead_s"] = cold.wall_s - untraced_wall
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced_wall
    outcome.metrics.update(layers.complete(values))
    outcome.record.update(traced_cold_wall_s=cold.wall_s,
                          untraced_cold_walls_s=[before.wall_s, after.wall_s],
                          traced_warm_wall_s=warm.wall_s)
    return outcome
