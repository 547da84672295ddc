"""In-memory span tracer for the benchmark's traced run.

:func:`install` wraps the public entry points of each program layer
from the outside (nothing in the program changes) and records one span
per call: name, start, end, parent span, job id and a few counts taken
from the call's arguments or result.  Spans stay in memory and are
written to ``$PERFBENCH_TRACE_DIR/spans-<pid>.json`` when the process
ends; pool workers forked from a traced process are traced too and
write their own file when they exit.
"""

import atexit
import functools
import json
import os
import signal
import sys
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """Spans of one process: ``[name, start, end, parent, job, thread, attrs]``."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans = []
        self.local = threading.local()
        self.lock = threading.Lock()
        self.flushed = False

    def begin(self, name: str, job=None) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        parent = stack[-1] if stack else None
        if job is None:
            job = getattr(self.local, "job", None)
        record = [name, time.perf_counter(), None, parent, job,
                  threading.get_ident(), {}]
        with self.lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self.local.stack.pop()

    def after_fork(self) -> None:
        """A forked child starts with no spans of its own and writes them
        when it ends: on a normal exit, or on the SIGTERM the program's
        pool sends its workers when a batch is over."""
        self.spans = []
        self.local = threading.local()
        self.lock = threading.Lock()  # another thread may have held it
        self.flushed = False
        import multiprocessing.util as mp_util

        # Forked pool workers leave through os._exit, which skips atexit;
        # multiprocessing finalizers still run on their way out.
        mp_util.Finalize(self, self.flush, exitpriority=100)
        previous = signal.getsignal(signal.SIGTERM)

        def on_terminate(signum, frame):
            self.flush()
            if callable(previous):
                previous(signum, frame)
            else:
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)

        signal.signal(signal.SIGTERM, on_terminate)

    def flush(self) -> None:
        if self.flushed:
            return
        self.flushed = True
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        # Written aside and renamed: a worker killed mid-write (the pool
        # escalates to SIGKILL after a second) leaves no partial file.
        with open(path + ".part", "w", encoding="utf-8") as stream:
            json.dump({"pid": os.getpid(), "spans": self.spans}, stream)
        os.replace(path + ".part", path)

    def wrap(self, owner, attribute: str, name, attrs=None, job=None):
        """Replace ``owner.attribute`` with a traced wrapper.

        ``name`` is a span name or ``f(args, kwargs) -> name``; ``attrs``
        is ``f(record_attrs, args, kwargs, result)``; ``job`` is
        ``f(args, kwargs) -> job id`` for calls that start a job.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            job_id = job(args, kwargs) if job is not None else None
            previous = getattr(self.local, "job", None)
            if job_id is not None:
                self.local.job = job_id
            record = self.begin(label)
            try:
                result = original(*args, **kwargs)
                if attrs is not None:
                    attrs(record[6], args, kwargs, result)
                return result
            finally:
                self.end(record)
                if job_id is not None:
                    self.local.job = previous

        setattr(owner, attribute, traced)
        return original, traced


def _length(trace) -> int:
    try:
        return len(trace)
    except TypeError:
        return 0


def _set(**values):
    def record(attrs, args, kwargs, result):
        for key, getter in values.items():
            attrs[key] = getter(args, kwargs, result)
    return record


def _traced_chunks(tracer, original):
    """Time each chunk the streaming parser yields (it is a generator)."""

    @functools.wraps(original)
    def traced(*args, **kwargs):
        chunks = original(*args, **kwargs)
        while True:
            record = tracer.begin("trace.ingest.chunk")
            try:
                chunk = next(chunks)
            except StopIteration:
                record[6]["refs"] = 0
                return
            finally:
                tracer.end(record)
            record[6]["refs"] = len(chunk)
            yield chunk

    return traced


def _timed_gzip(tracer, gzip_module):
    """A stand-in for the catalog's ``gzip`` that times payload compression."""

    class TimedGzipFile(gzip_module.GzipFile):
        def write(self, data):
            record = tracer.begin("trace.catalog.gzip")
            try:
                return super().write(data)
            finally:
                tracer.end(record)

        def close(self):
            record = tracer.begin("trace.catalog.gzip")
            try:
                return super().close()
            finally:
                tracer.end(record)

    class Namespace:
        def __getattr__(self, attribute):
            return getattr(gzip_module, attribute)

    namespace = Namespace()
    namespace.GzipFile = TimedGzipFile
    return namespace


def install(out_dir: str) -> Tracer:
    """Wrap every traced entry point; returns the process's tracer."""
    import gzip

    from repro.cache import fastsim, rdsim, vecsim
    from repro.core import figures
    from repro.exec import pool, shm, store
    from repro.hierarchy import hiersim, system
    from repro.service import app
    from repro.trace import catalog, corpus, ingest

    tracer = Tracer(out_dir)
    replaced = {}

    def wrap(owner, attribute, name, attrs=None, job=None):
        original, traced = tracer.wrap(owner, attribute, name, attrs, job)
        replaced[id(original)] = traced

    wrap(corpus, "load", "trace.corpus.load", _set(
        refs=lambda a, k, r: _length(r),
        key=lambda a, k, r: "|".join(
            str(part) for part in (list(a) + sorted(k.items()))
        ),
    ))
    original = ingest.iter_trace_chunks
    replaced[id(original)] = _traced_chunks(tracer, original)
    ingest.iter_trace_chunks = replaced[id(original)]
    catalog.gzip = _timed_gzip(tracer, gzip)
    wrap(catalog.TraceCatalog, "add", "trace.catalog.add")
    wrap(catalog.TraceCatalog, "load", "trace.catalog.load")

    def engine(attrs, args, kwargs, result):
        trace = args[0] if args else kwargs.get("trace")
        configs = args[1] if len(args) > 1 else kwargs.get("configs")
        attrs["refs"] = _length(trace)
        attrs["configs"] = len(configs) if isinstance(configs, (list, tuple)) else 1

    wrap(vecsim, "simulate_batch", "cache.vecsim.batch", engine)
    wrap(rdsim, "simulate_ladder", "cache.rdsim.ladder", engine)
    wrap(rdsim, "simulate_ladder_info", "cache.rdsim.ladder", engine)
    wrap(fastsim, "simulate_trace", "cache.fastsim.single", engine)
    wrap(hiersim, "_simulate", "hierarchy.hiersim.run", _set(
        vectorized=lambda a, k, r: int(r[1] > 0),
    ))
    wrap(system.CacheSystem, "run", "hierarchy.system.composed")

    wrap(pool.ExperimentPool, "run_many", "exec.pool.run_many", _set(
        telemetry=lambda a, k, r: a[0].telemetry.to_dict(),
        workers=lambda a, k, r: a[0].jobs,
    ))
    task = _set(
        kind=lambda a, k, r: (a[0][0] if isinstance(a[0], (list, tuple)) else a[0]).kind,
        runs=lambda a, k, r: len(a[0]) if isinstance(a[0], (list, tuple)) else 1,
    )
    for function in ("_execute", "_execute_shared", "_execute_batch"):
        wrap(pool, function, "exec.task", task)
    wrap(store.ResultStore, "get", "exec.store.get", _set(
        hit=lambda a, k, r: int(r is not None),
    ))
    wrap(store.ResultStore, "put", "exec.store.put")
    wrap(shm, "export_trace", "exec.shm.publish", _set(
        bytes=lambda a, k, r: _length(a[0]) * shm.BYTES_PER_REF,
    ))
    wrap(shm, "attach_trace", "exec.shm.attach")
    wrap(figures, "get_figure", lambda a, k: f"core.figures.{a[0]}",
         job=lambda a, k: a[0])
    wrap(app.ExperimentService, "_run_batch", "service.batch",
         job=lambda a, k: a[1].id)

    # Modules that imported an entry point by name hold the original.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            traced = replaced.get(id(value))
            if traced is not None:
                setattr(module, attribute, traced)

    atexit.register(tracer.flush)
    import multiprocessing.util as mp_util

    mp_util.register_after_fork(tracer, Tracer.after_fork)
    return tracer
