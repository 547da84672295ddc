"""Per-layer metrics from the spans of a traced run.

A span's *self time* is its duration minus the time its direct child
spans (same process and thread) cover.  Inclusive times and call counts
take only the outermost span of each layer, so an entry point that
calls another of the same layer (``simulate_ladder`` ->
``simulate_ladder_info``) is counted once.
"""

import json
import pathlib
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: Every figure id the program registers, in paper order.
FIGURE_IDS = (
    "table1", "fig01", "fig02", "table2", "fig05", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
    "hier_miss", "hier_traffic", "table3",
)

KINDS = ("cache", "write_buffer", "write_cache", "victim_buffer", "system")

#: Layer of each span name (figure spans are ``core.figures.<id>``).
SPAN_LAYERS = {
    "trace.corpus.load": "trace.corpus",
    "trace.ingest.chunk": "trace.ingest",
    "trace.catalog.add": "trace.catalog",
    "trace.catalog.load": "trace.catalog",
    "trace.catalog.gzip": "trace.catalog",
    "cache.vecsim.batch": "cache.vecsim",
    "cache.rdsim.ladder": "cache.rdsim",
    "cache.fastsim.single": "cache.fastsim",
    "hierarchy.hiersim.run": "hierarchy.hiersim",
    "hierarchy.system.composed": "hierarchy.system",
    "exec.pool.run_many": "exec.pool",
    "exec.task": "exec.task",
    "exec.store.get": "exec.store",
    "exec.store.put": "exec.store",
    "exec.shm.publish": "exec.shm",
    "exec.shm.attach": "exec.shm",
    "service.batch": "service",
}
LAYERS = tuple(dict.fromkeys(SPAN_LAYERS.values())) + ("core.figures",)


def _specs() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    specs = [
        ("trace.corpus.load_s", "s", "lower"),
        ("trace.corpus.refs", "count", "lower"),
        ("trace.ingest.parse_s", "s", "lower"),
        ("trace.ingest.refs_per_s", "1/s", "higher"),
        ("trace.catalog.add_s", "s", "lower"),
        ("trace.catalog.load_s", "s", "lower"),
        ("trace.catalog.gzip_s", "s", "lower"),
        ("trace.catalog.gzip_share", "1", "lower"),
        ("cache.vecsim.batch_s", "s", "lower"),
        ("cache.vecsim.batch_calls", "count", "lower"),
        ("cache.vecsim.batch_configs", "count", "higher"),
        ("cache.rdsim.ladder_s", "s", "lower"),
        ("cache.rdsim.ladder_calls", "count", "lower"),
        ("cache.fastsim.single_s", "s", "lower"),
        ("cache.fastsim.single_calls", "count", "lower"),
        ("cache.sim_refs_per_s", "1/s", "higher"),
        ("hierarchy.hiersim.vector_s", "s", "lower"),
        ("hierarchy.hiersim.vector_runs", "count", "higher"),
        ("hierarchy.system.composed_s", "s", "lower"),
        ("hierarchy.system.composed_runs", "count", "lower"),
        ("hierarchy.vector_share", "1", "higher"),
        ("exec.pool.run_many_s", "s", "lower"),
        ("exec.pool.requested", "count", "lower"),
        ("exec.pool.memory_hits", "count", "higher"),
        ("exec.pool.store_hits", "count", "higher"),
        ("exec.pool.computed", "count", "lower"),
        ("exec.pool.batches", "count", "lower"),
        ("exec.pool.runs_per_batch", "count", "higher"),
        ("exec.pool.busy_share", "1", "higher"),
        ("exec.pool.retries", "count", "lower"),
    ]
    for kind in KINDS:
        specs.append((f"exec.kind.{kind}.compute_s", "s", "lower"))
        specs.append((f"exec.kind.{kind}.runs", "count", "lower"))
    specs += [
        ("exec.store.get_s", "s", "lower"),
        ("exec.store.get_calls", "count", "lower"),
        ("exec.store.put_s", "s", "lower"),
        ("exec.store.put_calls", "count", "lower"),
        ("exec.store.hit_ratio", "1", "higher"),
        ("exec.shm.publish_s", "s", "lower"),
        ("exec.shm.attach_s", "s", "lower"),
        ("exec.shm.bytes", "count", "lower"),
    ]
    specs += [(f"core.figures.{fid}.render_s", "s", "lower") for fid in FIGURE_IDS]
    specs.append(("core.figures.table1.warm_share", "1", "lower"))
    specs += [
        ("service.trace_post_s", "s", "lower"),
        ("service.submit_ms", "ms", "lower"),
        ("service.queue_wait_ms", "ms", "lower"),
        ("service.lock_wait_ms", "ms", "lower"),
        ("service.run_ms", "ms", "lower"),
        ("service.coalesced", "count", "higher"),
        ("service.rejected", "count", "lower"),
        ("service.generator_late_ms", "ms", "lower"),
        ("service.lock_share", "1", "lower"),
    ]
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_share", "1", "lower"),
    ]
    return specs


PER_LAYER = _specs()


def load_spans(directories: Iterable) -> List[Tuple[int, list]]:
    """``(pid, spans)`` of every span file under ``directories``."""
    processes = []
    for directory in directories:
        for path in sorted(pathlib.Path(directory).glob("spans-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            processes.append((payload["pid"], payload["spans"]))
    return processes


def _layer(name: str) -> str:
    if name.startswith("core.figures."):
        return "core.figures"
    return SPAN_LAYERS.get(name, "other")


class _Span:
    __slots__ = ("pid", "name", "layer", "duration", "self_time", "attrs", "outer")

    def __init__(self, pid, record, outer):
        self.pid = pid
        name, start, end, _, _, _, attrs = record
        self.name = name
        self.layer = _layer(name)
        self.duration = (end if end is not None else start) - start
        self.self_time = self.duration
        self.attrs = attrs
        self.outer = outer


def spans_of(processes) -> List[_Span]:
    """Flatten processes into spans with self time and outermost flags."""
    flat = []
    for pid, records in processes:
        spans = []
        for record in records:
            parent = record[3]
            layer = _layer(record[0])
            outer, cache_outer = True, True
            ancestor = parent
            while ancestor is not None:
                ancestor_layer = _layer(records[ancestor][0])
                if ancestor_layer == layer:
                    outer = False
                if ancestor_layer.startswith("cache."):
                    cache_outer = False
                ancestor = records[ancestor][3]
            span = _Span(pid, record, outer)
            span.attrs = dict(span.attrs, _cache_outer=cache_outer)
            spans.append(span)
        for record, span in zip(records, spans):
            if record[3] is not None:
                spans[record[3]].self_time -= span.duration
        flat.extend(spans)
    return flat


def layer_metrics(spans: List[_Span]) -> Dict[str, float]:
    """Every span-derived per-layer metric (figure render times aside)."""
    values: Dict[str, float] = defaultdict(float)

    def total(name, attribute="duration", outer=True):
        return sum(
            getattr(span, attribute) for span in spans
            if span.name == name and (span.outer or not outer)
        )

    def count(name):
        return sum(1 for span in spans if span.name == name and span.outer)

    generated = {}
    for span in spans:
        values[f"{span.layer}.self_s"] += span.self_time
        if span.name == "trace.corpus.load":
            values["trace.corpus.load_s"] += span.self_time
            key = span.attrs.get("key", "")
            if not key.startswith("ingested:"):
                generated[(span.pid, key)] = span.attrs.get("refs", 0)
    values.pop("other.self_s", None)
    values["trace.corpus.refs"] = sum(generated.values())

    values["trace.ingest.parse_s"] = total("trace.ingest.chunk")
    refs = sum(s.attrs.get("refs", 0) for s in spans if s.name == "trace.ingest.chunk")
    parse = values["trace.ingest.parse_s"]
    values["trace.ingest.refs_per_s"] = refs / parse if parse else 0.0
    values["trace.catalog.add_s"] = total("trace.catalog.add")
    values["trace.catalog.load_s"] = total("trace.catalog.load")
    values["trace.catalog.gzip_s"] = total("trace.catalog.gzip", outer=False)
    add = values["trace.catalog.add_s"]
    values["trace.catalog.gzip_share"] = values["trace.catalog.gzip_s"] / add if add else 0.0

    for name in ("cache.vecsim.batch", "cache.rdsim.ladder", "cache.fastsim.single"):
        values[f"{name}_s"] = total(name)
        values[f"{name}_calls"] = count(name)
    values["cache.vecsim.batch_configs"] = sum(
        s.attrs.get("configs", 0) for s in spans
        if s.name == "cache.vecsim.batch" and s.outer
    )
    engine = [s for s in spans if s.layer.startswith("cache.") and s.attrs["_cache_outer"]]
    engine_time = sum(s.duration for s in engine)
    engine_work = sum(s.attrs.get("refs", 0) * s.attrs.get("configs", 1) for s in engine)
    values["cache.sim_refs_per_s"] = engine_work / engine_time if engine_time else 0.0

    runs = [s for s in spans if s.name == "hierarchy.hiersim.run"]
    values["hierarchy.hiersim.vector_s"] = sum(s.self_time for s in runs)
    values["hierarchy.hiersim.vector_runs"] = sum(s.attrs.get("vectorized", 0) for s in runs)
    values["hierarchy.system.composed_s"] = total("hierarchy.system.composed")
    values["hierarchy.system.composed_runs"] = count("hierarchy.system.composed")
    values["hierarchy.vector_share"] = (
        values["hierarchy.hiersim.vector_runs"] / len(runs) if runs else 0.0
    )

    batches = [s for s in spans if s.name == "exec.pool.run_many" and s.outer]
    values["exec.pool.run_many_s"] = sum(s.duration for s in batches)
    batched_runs = 0
    for span in batches:
        telemetry = span.attrs.get("telemetry", {})
        for field in ("requested", "memory_hits", "store_hits", "computed",
                      "batches", "retries"):
            values[f"exec.pool.{field}"] += telemetry.get(field, 0)
        batched_runs += telemetry.get("batched_runs", 0)
    values["exec.pool.runs_per_batch"] = (
        batched_runs / values["exec.pool.batches"] if values["exec.pool.batches"] else 0.0
    )
    tasks = [s for s in spans if s.name == "exec.task"]
    capacity = sum(s.duration * s.attrs.get("workers", 1) for s in batches)
    task_time = sum(s.duration for s in tasks)
    values["exec.pool.busy_share"] = task_time / capacity if capacity else 0.0
    for span in tasks:
        kind = span.attrs.get("kind", "?")
        values[f"exec.kind.{kind}.compute_s"] += span.duration
        values[f"exec.kind.{kind}.runs"] += span.attrs.get("runs", 1)

    gets = [s for s in spans if s.name == "exec.store.get"]
    values["exec.store.get_s"] = sum(s.duration for s in gets)
    values["exec.store.get_calls"] = len(gets)
    values["exec.store.put_s"] = total("exec.store.put", outer=False)
    values["exec.store.put_calls"] = sum(1 for s in spans if s.name == "exec.store.put")
    hits = sum(s.attrs.get("hit", 0) for s in gets)
    values["exec.store.hit_ratio"] = hits / len(gets) if gets else 0.0
    values["exec.shm.publish_s"] = total("exec.shm.publish", outer=False)
    values["exec.shm.attach_s"] = total("exec.shm.attach", outer=False)
    values["exec.shm.bytes"] = sum(
        s.attrs.get("bytes", 0) for s in spans if s.name == "exec.shm.publish"
    )
    return dict(values)


def render_times(spans: List[_Span]) -> Dict[str, float]:
    """Seconds per figure id, from ``core.figures.<id>`` spans."""
    times: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.layer == "core.figures" and span.outer:
            times[span.name[len("core.figures."):]] += span.duration
    return dict(times)


def complete(values: Dict[str, float]) -> Dict[str, tuple]:
    """Every per-layer metric as ``(value, unit)``; absent layers read 0."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit, _ in PER_LAYER}
