"""Process plumbing, measurement helpers and run provenance for the benchmark.

Everything here runs in the benchmark's own process.  Program processes
are started through ``shim.py`` with a scrubbed environment (no repro
routing or fault toggles, a pinned hash seed, a result store of the
run's own), timed in host wall time, and charged the CPU time of their
whole process tree.
"""

import hashlib
import http.client
import json
import os
import pathlib
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent

#: Interpreter start through ``import repro`` and the figure/kind registries.
READY_CODE = (
    "import repro, repro.core.figures; "
    "from repro.exec.experiments import registered_kinds; registered_kinds()"
)

#: Program settings the benchmark never inherits from the caller.
SCRUBBED_PREFIXES = ("REPRO_",)
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        raise ValueError(f"a tail percentile needs 11+ samples, got {count}")
    return {
        "value": ordered[count - 11],
        "percentile": round(100.0 * (count - 10) / count, 1),
        "samples": count,
    }


def children_usage():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def tree_cpu_seconds(root_pid: int) -> float:
    """CPU seconds of ``root_pid`` and every live descendant (Linux /proc),
    including children they have already reaped."""
    tick = os.sysconf("SC_CLK_TCK")
    parents, times = {}, {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stream:
                raw = stream.read().decode("ascii", "replace")
        except OSError:
            continue
        fields = raw[raw.rindex(")") + 2:].split()
        pid = int(entry)
        parents[pid] = int(fields[1])
        times[pid] = sum(int(value) for value in fields[11:15])
    total, frontier = 0, [root_pid]
    while frontier:
        pid = frontier.pop()
        total += times.get(pid, 0)
        frontier.extend(child for child, parent in parents.items() if parent == pid)
    return total / tick


def calibrate() -> float:
    """A fixed host workload (interpreter loop plus a numpy sort), timed."""
    import numpy as np

    started = time.perf_counter()
    accumulator = 0
    for index in range(1_500_000):
        accumulator += (index * index) & 1023
    values = np.random.default_rng(0).random(2_000_000)
    np.sort(values)
    return time.perf_counter() - started


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@dataclass
class ProgramRun:
    """One finished program process."""

    code: int
    wall_s: float
    cpu_s: float
    stdout: bytes
    stderr: bytes
    record: dict


@dataclass
class Outcome:
    """Everything one benchmark run reports."""

    metrics: Dict[str, tuple] = field(default_factory=dict)
    record: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def op(self, ok: bool, problem: str = "") -> bool:
        """Count one attempted operation; a failure is also a problem."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem or "operation failed")
        return ok


class Context:
    """One benchmark run: the checkout, its work directory and settings."""

    def __init__(self, root, workload, seed, seconds, traced, size, work):
        self.root = pathlib.Path(root).resolve()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.size = size
        self.inject_mismatch = False
        self.work = pathlib.Path(work)
        self.python = sys.executable
        self.jobs = nproc()
        self.shim = str(HERE / "shim.py")
        self.started = time.perf_counter()

    def path(self, name: str) -> pathlib.Path:
        return self.work / name

    def env(self, store: Optional[pathlib.Path], trace_dir=None) -> dict:
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(SCRUBBED_PREFIXES) and key != TRACE_DIR_ENV
        }
        env["PYTHONHASHSEED"] = "0"
        env["REPRO_RESULT_DIR"] = str(store) if store is not None else "off"
        paths = [str(self.root / "src")]
        if trace_dir is not None:
            pathlib.Path(trace_dir).mkdir(parents=True, exist_ok=True)
            env[TRACE_DIR_ENV] = str(trace_dir)
            paths.insert(0, str(HERE / "hook"))
        env["PYTHONPATH"] = os.pathsep.join(paths)
        return env

    def run_program(self, mode: str, args, store, trace_dir=None,
                    timeout: float = 170.0) -> ProgramRun:
        """Run ``shim.py <out> <mode> args`` to completion, timed."""
        out = self.work / f"shim-{time.monotonic_ns()}.json"
        command = [self.python, self.shim, str(out), mode] + [str(a) for a in args]
        cpu_before, _ = children_usage()
        started = time.perf_counter()
        process = subprocess.Popen(
            command, env=self.env(store, trace_dir), cwd=self.work,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)  # pool workers too
            process.communicate()
            raise
        wall = time.perf_counter() - started
        cpu_after, _ = children_usage()
        record = {}
        if out.exists():
            record = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
        return ProgramRun(process.returncode, wall, cpu_after - cpu_before,
                          stdout, stderr, record)

    def ready_seconds(self) -> float:
        """One fresh interpreter from start to registries loaded.

        ``Popen.wait(timeout)`` polls in steps of up to 50 ms, which would
        round this sub-second sample; a blocking wait, with a watchdog in
        place of the timeout, reads the exit as it happens.
        """
        command = [self.python, "-c", READY_CODE]
        started = time.perf_counter()
        process = subprocess.Popen(command, env=self.env(None), cwd=self.work,
                                   stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(60.0, process.kill)
        watchdog.start()
        try:
            code = process.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - started
        if code != 0:
            raise subprocess.CalledProcessError(code, command)
        return elapsed

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


class Server:
    """A ``repro serve`` process of the benchmark's own."""

    def __init__(self, ctx: Context, store, trace_dir=None) -> None:
        self.port = free_port()
        self._log_stream = open(ctx.work / f"serve-{self.port}.log", "wb")
        self.process = subprocess.Popen(
            [ctx.python, ctx.shim, str(ctx.work / f"serve-{self.port}.json"),
             "cli", "serve", "--port", str(self.port), "--jobs", str(ctx.jobs)],
            env=ctx.env(store, trace_dir), cwd=ctx.work,
            stdout=self._log_stream, stderr=subprocess.STDOUT, start_new_session=True,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}")
            try:
                connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                body = response.read()
                connection.close()
                if response.status == 200 and json.loads(body):
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("repro serve did not become healthy")

    def stop(self, timeout: float = 60.0) -> int:
        """Drain with SIGTERM (the service's graceful path); kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        self._log_stream.close()
        return self.process.returncode


def provenance(root: pathlib.Path) -> dict:
    import numpy

    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as stream:
            src_lines += sum(1 for _ in stream)
    return {
        "commit": commit,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "src_lines": src_lines,
    }
