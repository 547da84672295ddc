"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

- ``simulate`` — run a benchmark model or a trace file through one cache
  configuration and print the full statistics block.
- ``figures`` — render reproduced tables/figures (same as
  ``python -m repro.core.figures``).
- ``claims`` — print the Section 3.3/6 headline claims, paper vs measured.
- ``table1`` — print the corpus characteristics table.
- ``sweep`` — run a parameter sweep for any experiment kind (``--kind
  cache|system|write_cache|write_buffer|victim_buffer``) and any derived
  metric of that kind's stats, optionally parallel (``--jobs``).
- ``store`` — inspect or maintain the persistent result store (stats are
  grouped by experiment kind; ``quarantine`` lists records that failed to
  read, with their reason codes).
- ``trace`` — manage the catalog of ingested traces (``add``/``ls``/
  ``rm``); catalogued traces are keyed by content hash and run as
  ``ingested:<hash>`` workloads (see docs/workloads.md).
- ``serve`` — run the long-lived experiment service: one warm pool and
  store behind an HTTP/JSON API, with cross-client coalescing and
  graceful drain on SIGTERM/SIGINT (see docs/service.md).
- ``submit`` — send a sweep grid to a running service and (by default)
  wait for the result; prints the same table ``sweep`` would.
- ``jobs`` — list a service's jobs and their states.
- ``watch`` — stream one job's progress events from a service.

Commands that run experiments accept ``--jobs N`` to fan simulation out
across N worker processes (0 = all cores); results are persisted in the
content-addressed result store so reruns are served from disk.  They
also accept ``--retries`` and ``--task-timeout`` to tune the pool's
fault tolerance (see "Failure semantics" in docs/orchestration.md).
``sweep``, ``submit``, ``jobs`` and ``store stats`` accept ``--json``
for machine-readable output.
"""

import argparse
import sys
from dataclasses import fields

from repro.cache.config import CacheConfig
from repro.cache.fastsim import simulate_trace
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.common.render import format_table
from repro.trace.corpus import BENCHMARK_NAMES, load
from repro.trace.ingest import ingest_trace

_HIT_POLICIES = {policy.value: policy for policy in WriteHitPolicy}
_MISS_POLICIES = {policy.value: policy for policy in WriteMissPolicy}

#: Experiment kinds the ``sweep`` subcommand knows how to build an axis for.
_SWEEP_KINDS = ("cache", "system", "write_cache", "write_buffer", "victim_buffer")

#: Default metric per kind (each is a property of that kind's stats type).
_DEFAULT_METRICS = {
    "cache": "miss_ratio",
    "system": "transactions_per_instruction",
    "write_cache": "fraction_removed",
    "write_buffer": "merge_fraction",
    "victim_buffer": "stall_fraction",
}


def _metrics_for(stats_type) -> list:
    """Property names of one stats type: the metrics a sweep can plot."""
    return sorted(
        name
        for name in dir(stats_type)
        if isinstance(getattr(stats_type, name), property)
        and not name.startswith("_")
    )


def _add_jobs_flag(parser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for simulation fan-out (0 = all cores)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="failed-task retries before degrading to inline execution "
        "(default: $REPRO_RETRIES or 2)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="seconds before an in-flight worker task is abandoned and "
        "retried (default: $REPRO_TASK_TIMEOUT, unset = wait forever)",
    )


def _apply_jobs(args) -> None:
    if getattr(args, "jobs", None) is not None:
        from repro.exec.pool import set_default_jobs

        set_default_jobs(args.jobs)
    retries = getattr(args, "retries", None)
    task_timeout = getattr(args, "task_timeout", None)
    if retries is not None or task_timeout is not None:
        from repro.exec.pool import set_default_fault_policy

        if retries is not None:
            set_default_fault_policy(retries=retries)
        if task_timeout is not None:
            set_default_fault_policy(task_timeout=task_timeout)


def _add_sweep_axis_flags(parser) -> None:
    """The grid-selection flags ``sweep`` and ``submit`` share."""
    parser.add_argument(
        "--kind", choices=_SWEEP_KINDS, default="cache",
        help="experiment kind to sweep (default: the bare L1 cache)",
    )
    parser.add_argument(
        "--axis", choices=("size", "line"), default="size",
        help="cache/system kinds: sweep cache size (16B lines) or line "
        "size (8KB capacity); structure kinds sweep their own axis "
        "(write_cache/victim_buffer: entries; write_buffer: retire "
        "interval) and ignore this flag",
    )
    parser.add_argument(
        "--metric", default=None,
        help="stats property to plot (validated against the kind's stats "
        "type; default depends on --kind)",
    )
    parser.add_argument(
        "--write-hit", choices=sorted(_HIT_POLICIES), default="write-back"
    )
    parser.add_argument(
        "--write-miss", choices=sorted(_MISS_POLICIES), default="fetch-on-write"
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--workload", action="append", dest="workloads", default=None,
        metavar="NAME",
        help="workload to sweep (repeatable; a benchmark name or "
        "'ingested:<hash>' from the trace catalog; default: the full "
        "six-benchmark corpus)",
    )
    hierarchy = parser.add_argument_group(
        "hierarchy axes (--kind system only; ignored otherwise)"
    )
    hierarchy.add_argument(
        "--l2-size", default=None, metavar="SIZE",
        help="add a second cache level of this capacity (e.g. 64KB) under "
        "every swept L1",
    )
    hierarchy.add_argument(
        "--victim-entries", type=int, default=0,
        help="attach a victim cache of this many entries at L1",
    )
    hierarchy.add_argument(
        "--miss-entries", type=int, default=0,
        help="attach a miss cache of this many entries at L1",
    )
    hierarchy.add_argument(
        "--stream-buffers", type=int, default=0,
        help="attach this many sequential-prefetch stream buffers at L1",
    )
    hierarchy.add_argument(
        "--stream-depth", type=int, default=4,
        help="lines prefetched ahead per stream (default: 4)",
    )


def _add_url_flag(parser) -> None:
    parser.add_argument(
        "--url",
        default=None,
        help="service endpoint (default: http://$REPRO_SERVE_HOST:"
        "$REPRO_SERVE_PORT, falling back to http://127.0.0.1:8321)",
    )


def _service_url(args) -> str:
    if args.url:
        return args.url
    from repro.service.app import default_host, default_port

    return f"http://{default_host()}:{default_port()}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Cache write-policy simulator (Jouppi 1991/1993 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="simulate one configuration")
    source = simulate.add_mutually_exclusive_group()
    source.add_argument(
        "--benchmark", choices=BENCHMARK_NAMES, default="ccom",
        help="synthetic benchmark model to drive the cache with",
    )
    source.add_argument("--trace", help="trace file (repro text format; .gz ok)")
    source.add_argument("--din", help="trace file in Dinero 'din' format")
    simulate.add_argument("--scale", type=float, default=1.0)
    simulate.add_argument("--size", default="8KB", help="cache capacity (e.g. 8KB)")
    simulate.add_argument("--line", default="16", help="line size in bytes")
    simulate.add_argument("--assoc", type=int, default=1, help="associativity")
    simulate.add_argument(
        "--write-hit", choices=sorted(_HIT_POLICIES), default="write-back"
    )
    simulate.add_argument(
        "--write-miss", choices=sorted(_MISS_POLICIES), default="fetch-on-write"
    )
    simulate.add_argument(
        "--replacement", choices=("lru", "fifo", "random"), default="lru"
    )
    simulate.add_argument("--subblock-fetch", action="store_true")
    simulate.add_argument("--subblock-writeback", action="store_true")
    simulate.add_argument(
        "--no-flush", action="store_true", help="skip flush-stop accounting"
    )

    figures = subparsers.add_parser("figures", help="render reproduced figures")
    figures.add_argument("ids", nargs="+", help="figure ids or 'all'")
    figures.add_argument("--scale", type=float, default=1.0)
    _add_jobs_flag(figures)

    claims = subparsers.add_parser("claims", help="headline claims, paper vs measured")
    claims.add_argument("--scale", type=float, default=1.0)
    _add_jobs_flag(claims)

    table = subparsers.add_parser("table1", help="corpus characteristics")
    table.add_argument("--scale", type=float, default=1.0)

    report = subparsers.add_parser(
        "report", help="write every reproduced artefact to a directory"
    )
    report.add_argument("--out", default="report", help="output directory")
    report.add_argument("--scale", type=float, default=1.0)
    report.add_argument(
        "--figures", nargs="*", default=None, help="subset of figure ids"
    )
    report.add_argument("--no-csv", action="store_true")
    _add_jobs_flag(report)

    sweep = subparsers.add_parser(
        "sweep", help="run a standard parameter sweep for one metric"
    )
    _add_sweep_axis_flags(sweep)
    sweep.add_argument(
        "--verbose", action="store_true", help="report per-run progress on stderr"
    )
    sweep.add_argument(
        "--json", action="store_true",
        help="print the sweep as JSON (series + pool telemetry) instead "
        "of a table",
    )
    _add_jobs_flag(sweep)

    store = subparsers.add_parser(
        "store", help="inspect or maintain the persistent result store"
    )
    store.add_argument(
        "action", choices=("stats", "clear", "gc", "quarantine"),
        help="stats: summarise; clear: drop everything; gc: quarantine "
        "stale/corrupt; quarantine: list quarantined records",
    )
    store.add_argument(
        "--dir", default=None, help="store directory (default: $REPRO_RESULT_DIR)"
    )
    store.add_argument(
        "--purge", action="store_true",
        help="with 'quarantine': delete the listed quarantine entries",
    )
    store.add_argument(
        "--json", action="store_true",
        help="with 'stats': print the summary as JSON instead of a table",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived experiment service (HTTP/JSON over one "
        "warm pool and store; see docs/service.md)",
    )
    serve.add_argument(
        "--host", default=None,
        help="bind address (default: $REPRO_SERVE_HOST or 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None,
        help="bind port (default: $REPRO_SERVE_PORT or 8321; 0 = ephemeral)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job worker threads (default: 2)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=None,
        help="queued-job bound before submissions bounce with 429 "
        "(default: 64)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    _add_jobs_flag(serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit a sweep grid to a running service and print the "
        "same table 'sweep' would",
    )
    _add_sweep_axis_flags(submit)
    _add_url_flag(submit)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--token", default=None,
        help="client identity for queue fairness (default: anonymous)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without waiting for the result",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print the result as JSON (same shape as 'sweep --json')",
    )

    trace = subparsers.add_parser(
        "trace",
        help="manage the catalog of ingested traces (content-hash keyed; "
        "see docs/workloads.md)",
    )
    trace_sub = trace.add_subparsers(dest="trace_action", required=True)
    trace_add = trace_sub.add_parser(
        "add", help="ingest a trace file into the catalog"
    )
    trace_add.add_argument("path", help="trace file ('-' reads stdin; .gz ok)")
    trace_add.add_argument(
        "--format", choices=("auto", "text", "din", "csv"), default="auto",
        help="input format (default: sniffed from name and content)",
    )
    trace_add.add_argument(
        "--name", default=None, help="display name (default: the file name)"
    )
    trace_add.add_argument(
        "--access-size", type=int, default=4,
        help="reference size assumed for din records (default: 4)",
    )
    trace_ls = trace_sub.add_parser("ls", help="list catalogued traces")
    trace_ls.add_argument("--json", action="store_true")
    trace_rm = trace_sub.add_parser("rm", help="remove a catalogued trace")
    trace_rm.add_argument("hash", help="content hash (a unique prefix works)")

    jobs = subparsers.add_parser("jobs", help="list a service's jobs")
    _add_url_flag(jobs)
    jobs.add_argument("--json", action="store_true")

    watch = subparsers.add_parser(
        "watch", help="stream one job's progress events from a service"
    )
    watch.add_argument("job", help="job id (as printed by 'submit')")
    _add_url_flag(watch)
    watch.add_argument(
        "--from", dest="start", type=int, default=0,
        help="event index to resume the stream from",
    )
    return parser


def _load_trace(args):
    if args.trace:
        return ingest_trace(args.trace, format="text", name=args.trace)
    if args.din:
        return ingest_trace(args.din, format="din", name=args.din)
    return load(args.benchmark, scale=args.scale)


def _command_simulate(args) -> int:
    trace = _load_trace(args)
    config = CacheConfig(
        size=args.size,
        line_size=args.line,
        associativity=args.assoc,
        write_hit=_HIT_POLICIES[args.write_hit],
        write_miss=_MISS_POLICIES[args.write_miss],
        replacement=args.replacement,
        subblock_fetch=args.subblock_fetch,
        subblock_dirty_writeback=args.subblock_writeback,
    )
    stats = simulate_trace(trace, config, flush=not args.no_flush)

    print(f"trace:  {trace}")
    print(f"config: {config.name}")
    print()
    rows = [
        [spec.name, getattr(stats, spec.name)]
        for spec in fields(stats)
        if spec.name != "extra" and getattr(stats, spec.name)
    ]
    print(format_table(["counter", "value"], rows, title="raw counters"))
    print()
    derived = [
        ["miss ratio", f"{stats.miss_ratio:.4f}"],
        ["read miss ratio", f"{stats.read_miss_ratio:.4f}"],
        ["write miss ratio", f"{stats.write_miss_ratio:.4f}"],
        ["writes to already-dirty lines", f"{stats.fraction_writes_to_dirty:.2%}"],
        ["write misses / all misses", f"{stats.write_miss_fraction:.2%}"],
        ["victims dirty (cold stop)", f"{stats.fraction_victims_dirty:.2%}"],
        ["victims dirty (flush stop)", f"{stats.fraction_victims_dirty_flush:.2%}"],
        ["transactions / instruction", f"{stats.transactions_per_instruction():.4f}"],
    ]
    print(format_table(["metric", "value"], derived, title="derived metrics"))
    return 0


def _command_figures(args) -> int:
    from repro.core.figures.__main__ import main as figures_main

    _apply_jobs(args)
    argv = list(args.ids) + ["--scale", str(args.scale)]
    return figures_main(argv)


def _command_claims(args) -> int:
    from repro.core.headline import headline_claims, render_claims

    _apply_jobs(args)
    print(render_claims(headline_claims(scale=args.scale)))
    return 0


def _hierarchy_configs(args, cache_configs, policy_detail):
    """Lift swept L1 configs into hierarchy configs per the CLI flags.

    The hierarchy flags (``--l2-size``, structure entry counts) apply
    uniformly to every point of the swept axis, so ``repro submit``
    reconstructs the identical series from the same flags.
    """
    from repro.hierarchy.system import HierarchyConfig, LevelConfig

    lower = ()
    details = [policy_detail]
    if args.l2_size is not None:
        lower = (LevelConfig(cache=CacheConfig(size=args.l2_size)),)
        details.append(f"L2={args.l2_size}")
    structures = dict(
        victim_entries=args.victim_entries,
        miss_entries=args.miss_entries,
        stream_buffers=args.stream_buffers,
        stream_depth=args.stream_depth,
    )
    if args.victim_entries:
        details.append(f"VC{args.victim_entries}")
    if args.miss_entries:
        details.append(f"MC{args.miss_entries}")
    if args.stream_buffers:
        details.append(f"SB{args.stream_buffers}x{args.stream_depth}")
    configs = [
        HierarchyConfig(levels=(LevelConfig(cache=config, **structures),) + lower)
        for config in cache_configs
    ]
    return configs, ", ".join(details)


def _sweep_axis(args):
    """Build (x_label, x_values, configs, title_detail) for one sweep."""
    from repro.buffers.victim_buffer import VictimBufferConfig
    from repro.buffers.write_buffer import WriteBufferConfig
    from repro.buffers.write_cache import WriteCacheConfig
    from repro.core.figures.write_buffer_fig import RETIRE_INTERVALS
    from repro.core.sweep import (
        CACHE_SIZES_KB,
        LINE_SIZES_B,
        line_sweep_configs,
        size_sweep_configs,
    )

    write_hit = _HIT_POLICIES[args.write_hit]
    write_miss = _MISS_POLICIES[args.write_miss]
    policy_detail = f"{args.write_hit}/{args.write_miss}"
    if args.kind in ("cache", "system"):
        if args.axis == "size":
            cache_configs = size_sweep_configs(
                write_hit=write_hit, write_miss=write_miss
            )
            x_label, x_values = "cache size (KB)", list(CACHE_SIZES_KB)
        else:
            cache_configs = line_sweep_configs(
                write_hit=write_hit, write_miss=write_miss
            )
            x_label, x_values = "line size (B)", list(LINE_SIZES_B)
        if args.kind == "system":
            configs, detail = _hierarchy_configs(args, cache_configs, policy_detail)
            return x_label, x_values, configs, detail
        return x_label, x_values, cache_configs, policy_detail
    if args.kind == "write_cache":
        entries = list(range(0, 17))
        return (
            "write-cache entries (8B)",
            entries,
            [WriteCacheConfig(entries=count) for count in entries],
            "stand-alone write cache",
        )
    if args.kind == "write_buffer":
        intervals = list(RETIRE_INTERVALS)
        return (
            "cycles per write retire",
            intervals,
            [WriteBufferConfig(retire_interval=interval) for interval in intervals],
            "8-entry coalescing write buffer",
        )
    # victim_buffer: entry-count axis behind the default write-back cache.
    entries = [1, 2, 3, 4]
    return (
        "victim-buffer entries",
        entries,
        [VictimBufferConfig(entries=count) for count in entries],
        "dirty-victim buffer behind 8KB/16B write-back",
    )


def _resolve_metric(args):
    """Validate ``--metric`` against the kind's stats type; None = invalid."""
    from repro.exec.experiments import get_kind

    kind = get_kind(args.kind)
    metric_name = args.metric or _DEFAULT_METRICS[args.kind]
    valid_metrics = _metrics_for(kind.stats_type)
    if metric_name not in valid_metrics:
        print(
            f"unknown metric {metric_name!r} for kind {args.kind!r}; "
            f"choose from: {', '.join(valid_metrics)}",
            file=sys.stderr,
        )
        return None
    return metric_name


def _command_sweep(args) -> int:
    from repro.common.render import format_series_table
    from repro.core.sweep import sweep_experiments
    from repro.exec.pool import verbose_reporter

    _apply_jobs(args)
    metric_name = _resolve_metric(args)
    if metric_name is None:
        return 2

    x_label, x_values, configs, detail = _sweep_axis(args)
    workloads = args.workloads or list(BENCHMARK_NAMES)
    series = sweep_experiments(
        args.kind,
        configs,
        lambda stats: getattr(stats, metric_name),
        workloads=workloads,
        scale=args.scale,
        jobs=args.jobs,
        callback=verbose_reporter() if args.verbose else None,
    )
    # Aggregate counters, matching the figures CLI; CI asserts on the
    # line's computed= field for cold/warm store smoke runs.
    from repro.exec.pool import aggregate_telemetry

    if args.json:
        import json

        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "metric": metric_name,
                    "x_label": x_label,
                    "x_values": x_values,
                    "series": series,
                    "telemetry": aggregate_telemetry().to_dict(),
                }
            )
        )
    else:
        print(
            format_series_table(
                x_label,
                x_values,
                series,
                title=f"{metric_name} sweep [{args.kind}] ({detail})",
            )
        )
    print(f"telemetry: {aggregate_telemetry().line()}", file=sys.stderr)
    return 0


def _command_store(args) -> int:
    from repro.exec.store import ResultStore, default_store_root

    root = args.dir or default_store_root()
    if root is None:
        print("result store is disabled (REPRO_RESULT_DIR=off)", file=sys.stderr)
        return 1
    store = ResultStore(root)
    if args.action == "stats":
        summary = store.stats()
        if args.json:
            import json

            print(json.dumps(summary))
            return 0
        by_kind = summary.pop("by_kind", {})
        reasons = summary.pop("quarantine_reasons", {})
        rows = [[key, value] for key, value in summary.items()]
        rows.extend(
            [f"records[{kind_name}]", count]
            for kind_name, count in by_kind.items()
        )
        rows.extend(
            [f"quarantine[{reason}]", count] for reason, count in reasons.items()
        )
        print(format_table(["field", "value"], rows, title="result store"))
    elif args.action == "clear":
        print(f"removed {store.clear()} records from {store.root}")
    elif args.action == "quarantine":
        entries = store.quarantine_entries()
        if not entries:
            print(f"quarantine is empty ({store.quarantine_dir})")
        else:
            rows = [[entry["file"], entry["reason"]] for entry in entries]
            print(
                format_table(
                    ["record", "reason"],
                    rows,
                    title=f"quarantined records ({store.quarantine_dir})",
                )
            )
        if args.purge:
            print(f"purged {store.purge_quarantine()} quarantine entries")
    else:
        kept, removed = store.gc()
        print(
            f"gc: kept {kept}, quarantined {removed} stale/corrupt records "
            f"(inspect with 'store quarantine')"
        )
        from repro.trace.catalog import CATALOG_DIRNAME, TraceCatalog

        catalog = TraceCatalog(store.root / CATALOG_DIRNAME)
        trace_kept, trace_quarantined = catalog.gc()
        print(
            f"trace catalog: kept {trace_kept}, quarantined "
            f"{trace_quarantined} corrupt or payload-less records"
        )
    return 0


def _command_trace(args) -> int:
    import json

    from repro.common.errors import ConfigurationError, TraceFormatError
    from repro.trace.catalog import INGESTED_PREFIX, open_default_catalog

    catalog = open_default_catalog()
    if catalog is None:
        print(
            "trace catalog is disabled (REPRO_RESULT_DIR=off); set "
            "REPRO_RESULT_DIR to the store root",
            file=sys.stderr,
        )
        return 1
    if args.trace_action == "add":
        source = sys.stdin.buffer if args.path == "-" else args.path
        try:
            record = catalog.add(
                source,
                format=args.format,
                name=args.name,
                access_size=args.access_size,
            )
        except (TraceFormatError, ConfigurationError, OSError) as error:
            print(f"trace add failed: {error}", file=sys.stderr)
            return 1
        if record["duplicate"]:
            print(
                f"already catalogued as {record['hash'][:12]} "
                f"({record['name']})",
                file=sys.stderr,
            )
        print(f"hash:     {record['hash']}")
        print(f"name:     {record['name']}")
        print(
            f"refs:     {record['refs']} "
            f"({record['reads']} reads, {record['writes']} writes)"
        )
        print(f"instrs:   {record['instructions']}")
        print(f"workload: {INGESTED_PREFIX}{record['hash']}")
        return 0
    if args.trace_action == "ls":
        records = catalog.ls()
        if args.json:
            print(json.dumps({"traces": records}))
            return 0
        if not records:
            print(f"trace catalog is empty ({catalog.root})")
            return 0
        rows = [
            [
                record["hash"][:12],
                record["name"],
                record["refs"],
                record["reads"],
                record["writes"],
                record["instructions"],
            ]
            for record in records
        ]
        print(
            format_table(
                ["hash", "name", "refs", "reads", "writes", "instrs"],
                rows,
                title=f"ingested traces ({catalog.root})",
            )
        )
        return 0
    # rm
    from repro.common.errors import ReproError

    try:
        digest = catalog.resolve(args.hash)
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 1
    catalog.rm(digest)
    print(f"removed {digest[:12]}")
    return 0


def _command_table1(args) -> int:
    from repro.core.figures.tables_fig import table1

    print(table1(scale=args.scale))
    return 0


def _command_report(args) -> int:
    from repro.core.report import generate_report

    _apply_jobs(args)
    index = generate_report(
        args.out, figure_ids=args.figures, scale=args.scale, csv=not args.no_csv
    )
    print(f"report written: {index}")
    return 0


def _command_serve(args) -> int:
    import signal
    import threading

    from repro.service.app import ExperimentService, ServiceServer
    from repro.service.queue import DEFAULT_QUEUE_DEPTH

    _apply_jobs(args)
    service = ExperimentService(
        workers=args.workers,
        queue_depth=(
            DEFAULT_QUEUE_DEPTH if args.queue_depth is None else args.queue_depth
        ),
    )
    server = ServiceServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    stop = threading.Event()

    def _handle(signum, frame):  # noqa: ARG001 - signal signature
        # Flip to 503 immediately; the main thread below does the drain.
        service.begin_drain()
        stop.set()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
    server.start_background()
    store_line = service.store.root if service.store is not None else "disabled"
    print(
        f"repro serve: listening on {server.url} "
        f"(store: {store_line}, pool jobs: {service.pool.jobs}, "
        f"workers: {args.workers})",
        file=sys.stderr,
    )
    while not stop.wait(0.5):
        pass
    print("repro serve: draining (finishing accepted jobs)...", file=sys.stderr)
    service.drain()
    server.shutdown()
    import json

    snapshot = service.telemetry_snapshot()
    print(
        f"repro serve: drained; telemetry: {json.dumps(snapshot['service'])}",
        file=sys.stderr,
    )
    return 0


def _command_submit(args) -> int:
    import json

    from repro.common.render import format_series_table
    from repro.core.sweep import metric_series
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.protocol import DEFAULT_TOKEN, grid_request

    metric_name = _resolve_metric(args)
    if metric_name is None:
        return 2
    x_label, x_values, configs, detail = _sweep_axis(args)
    workloads = args.workloads or list(BENCHMARK_NAMES)
    url = _service_url(args)
    client = ServiceClient(url)
    payload = grid_request(
        args.kind,
        workloads,
        configs,
        scale=args.scale,
        priority=args.priority,
        token=args.token or DEFAULT_TOKEN,
    )
    try:
        submitted = client.submit(payload)
    except ServiceError as error:
        print(f"submit failed: {error}", file=sys.stderr)
        return 1
    job_id = submitted["id"]
    print(
        f"submitted {job_id} ({submitted['specs']} specs) to {url}",
        file=sys.stderr,
    )
    if args.no_wait:
        print(job_id)
        return 0
    try:
        summary = client.wait(job_id)
        if summary["state"] != "done":
            print(f"job {job_id} failed: {summary['error']}", file=sys.stderr)
            return 1
        pairs, telemetry = client.result(job_id)
    except ServiceError as error:
        print(f"job {job_id}: {error}", file=sys.stderr)
        return 1

    # Results come back workload-major (the grid shape), so regroup into
    # the same per-workload series a local sweep builds.
    grid = {name: [] for name in workloads}
    for spec, stats in pairs:
        grid[spec.workload].append(stats)
    series = metric_series(grid, lambda stats: getattr(stats, metric_name))
    if args.json:
        print(
            json.dumps(
                {
                    "kind": args.kind,
                    "metric": metric_name,
                    "x_label": x_label,
                    "x_values": x_values,
                    "series": series,
                    "telemetry": telemetry.to_dict(),
                    "job": job_id,
                    "coalesced": summary["coalesced"],
                }
            )
        )
    else:
        print(
            format_series_table(
                x_label,
                x_values,
                series,
                title=f"{metric_name} sweep [{args.kind}] ({detail})",
            )
        )
    print(
        f"telemetry: {telemetry.line()} coalesced={summary['coalesced']}",
        file=sys.stderr,
    )
    return 0


def _command_jobs(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    url = _service_url(args)
    client = ServiceClient(url)
    try:
        jobs = client.jobs()
    except ServiceError as error:
        print(f"jobs failed: {error}", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps({"jobs": jobs}))
        return 0
    rows = [
        [
            job["id"],
            job["state"],
            job["specs"],
            job["coalesced"],
            job["priority"],
            job["token"],
            job["error"] or "",
        ]
        for job in jobs
    ]
    print(
        format_table(
            ["job", "state", "specs", "coalesced", "priority", "token", "error"],
            rows,
            title=f"jobs at {url}",
        )
    )
    return 0


def _command_watch(args) -> int:
    from repro.exec.pool import PoolTelemetry, RunEvent, verbose_reporter
    from repro.service.client import ServiceClient, ServiceError

    url = _service_url(args)
    client = ServiceClient(url)
    report = verbose_reporter(sys.stdout)
    state = "unknown"
    try:
        for payload in client.events(args.job, start=args.start):
            kind = payload.pop("type", None)
            if kind == "run":
                report(RunEvent.from_dict(payload))
            elif kind == "job":
                state = payload.get("state", state)
                line = f"job {payload.get('id', args.job)}: {state}"
                if payload.get("error"):
                    line += f" ({payload['error']})"
                if "telemetry" in payload:
                    telemetry = PoolTelemetry.from_dict(payload["telemetry"])
                    line += (
                        f" — telemetry: {telemetry.line()} "
                        f"coalesced={payload.get('coalesced', 0)}"
                    )
                print(line)
    except ServiceError as error:
        print(f"watch failed: {error}", file=sys.stderr)
        return 1
    return 0 if state == "done" else 1


_COMMANDS = {
    "simulate": _command_simulate,
    "figures": _command_figures,
    "claims": _command_claims,
    "table1": _command_table1,
    "report": _command_report,
    "sweep": _command_sweep,
    "store": _command_store,
    "trace": _command_trace,
    "serve": _command_serve,
    "submit": _command_submit,
    "jobs": _command_jobs,
    "watch": _command_watch,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
