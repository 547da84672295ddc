"""Simulator throughput benchmarks (references per second).

Two entry points:

- As a pytest-benchmark module: conventional timing benchmarks of every
  engine (the ``simulate_trace`` dispatch, a direct
  ``vecsim.simulate_direct_mapped`` call, the reference ``Cache``, and
  trace generation), so regressions in any hot path show up.

- As a script (``python benchmarks/bench_simulator.py``): a small smoke
  grid comparing the reference and vector engines across the four
  write-miss policies, a ``batch`` section timing a full figure-style
  configuration grid through ``vecsim.simulate_batch`` (no profiler, so
  it stays a pure vecsim-batching measurement) against per-run vector
  calls, an ``rdsim`` section timing the figs 13-16 size-sweep grid
  through the default dispatch (which collapses it through the
  reuse-distance ladder profiler) against that same batched path, a
  ``hier`` section timing the two-level hier_miss figure grid through
  the level-by-level hierarchy kernel against the composed reference
  path, an ``ingest`` section timing the chunked array-native trace
  parser (:mod:`repro.trace.ingest`) against the line-by-line
  ``read_trace`` reader on the same text file, and a ``buffers`` section
  timing the fig07 write-cache and fig05 write-buffer grids through their
  bulk runners against per-spec oracle calls, reported as refs/sec plus
  the speedups.  Every speedup is a ratio taken in one run on one
  machine: the two sides are sampled alternately in process CPU time
  and the speedup is the median of the per-pair ratios, so a slow
  stretch of a shared host weighs on both sides of a ratio alike
  (refs/sec fields report each side's fastest sample).  The script
  writes no file unless ``--output PATH`` asks for the JSON report
  (re-recording the committed baseline means passing ``--scale 0.15
  --output benchmarks/BENCH_simulator.json``, the scale CI checks at).
  ``--check BASELINE`` compares the measured *speedups* against a
  committed baseline and fails on a >30% regression
  (``--tolerance``); sections absent from the baseline (a freshly added
  benchmark) warn and record instead of failing.  Speedup ratios are
  compared rather than absolute refs/sec because the ratio is what the
  vectorisation (and batching, and profiling) owns — absolute throughput
  varies with the host, and a CI runner is not the machine the baseline
  was recorded on.  ``--require-speedup X`` additionally demands the
  default write-back configuration reach at least ``X``.
"""

import argparse
import json
import pathlib
import statistics
import sys
import time

import pytest

from repro.cache import vecsim
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.fastsim import simulate_trace, simulate_trace_batch_info
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.hierarchy.hiersim import simulate_hierarchy_batch_info
from repro.hierarchy.system import CacheSystem, HierarchyConfig, LevelConfig
from repro.trace.corpus import load

#: The smoke grid: the default write-back configuration first (the one
#: acceptance gates on), then one configuration per remaining policy.
SMOKE_CONFIGS = [
    ("wb-fetch-on-write", WriteHitPolicy.WRITE_BACK, WriteMissPolicy.FETCH_ON_WRITE),
    ("wb-write-validate", WriteHitPolicy.WRITE_BACK, WriteMissPolicy.WRITE_VALIDATE),
    ("wt-write-around", WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_AROUND),
    ("wt-write-invalidate", WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_INVALIDATE),
]
DEFAULT_CONFIG = SMOKE_CONFIGS[0][0]

#: Every legal (write-hit, write-miss) pairing — the full policy axis of
#: the figs 13-16 grids (write-back cannot pair with the no-allocate
#: miss policies).
ALL_POLICY_COMBOS = [
    (WriteHitPolicy.WRITE_BACK, WriteMissPolicy.FETCH_ON_WRITE),
    (WriteHitPolicy.WRITE_BACK, WriteMissPolicy.WRITE_VALIDATE),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.FETCH_ON_WRITE),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_VALIDATE),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_AROUND),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_INVALIDATE),
]


def size_ladder_grid():
    """The figs 13-16 size axis: every legal policy combination across
    the 1-128 KB cache-size sweep at 16 B lines — the pure size-only
    shape the reuse-distance profiler collapses into one pass per
    policy-independent profile."""
    return [
        CacheConfig(size=size_kb * 1024, line_size=16, write_hit=hit, write_miss=miss)
        for hit, miss in ALL_POLICY_COMBOS
        for size_kb in (1, 2, 4, 8, 16, 32, 64, 128)
    ]


def batch_grid():
    """The figs 13-16 sweep shape: every smoke policy across the cache-size
    sweep (16 B lines) and the line-size sweep (8 KB), deduplicated."""
    grid = []
    for _, hit, miss in SMOKE_CONFIGS:
        for size_kb in (1, 2, 4, 8, 16, 32, 64, 128):
            grid.append(
                CacheConfig(
                    size=size_kb * 1024, line_size=16, write_hit=hit, write_miss=miss
                )
            )
        for line_size in (4, 8, 32, 64):
            grid.append(
                CacheConfig(
                    size=8192, line_size=line_size, write_hit=hit, write_miss=miss
                )
            )
    return grid


def hier_grid():
    """The hier_miss/hier_traffic figure shape, structure-free: the
    baseline-variant rows — each L1 size over the fixed 64 KB L2 — which
    are exactly the rows the hierarchy kernel vectorises end to end."""
    from repro.core.figures.hierarchy_fig import L1_SIZES_KB, L2_SIZE_KB

    return [
        HierarchyConfig(
            levels=(
                LevelConfig(cache=CacheConfig(size=size_kb * 1024)),
                LevelConfig(cache=CacheConfig(size=L2_SIZE_KB * 1024)),
            )
        )
        for size_kb in L1_SIZES_KB
    ]


def reference_run(trace, config):
    """The reference ``Cache``: run the trace, then flush."""
    cache = Cache(config)
    stats = cache.run(trace)
    cache.flush()
    return stats


def vector_run(trace, config):
    """The vector kernel, called directly (flush on)."""
    return vecsim.simulate_direct_mapped(trace, config, True)


def composed_run(trace, config):
    """The composed ``CacheSystem`` — the hierarchy reference path."""
    system = CacheSystem(config)
    system.run(trace, flush=True)
    return system.system_stats()


@pytest.fixture(scope="module")
def trace():
    return load("grr", scale=0.3)


def test_dispatch_throughput_write_back(benchmark, trace):
    # The path every experiment driver takes: auto dispatch (vector here).
    config = CacheConfig(size=8192, line_size=16)
    stats = benchmark(simulate_trace, trace, config)
    assert stats.fetches > 0


def test_vector_throughput_write_validate(benchmark, trace):
    config = CacheConfig(
        size=8192,
        line_size=16,
        write_hit=WriteHitPolicy.WRITE_THROUGH,
        write_miss=WriteMissPolicy.WRITE_VALIDATE,
    )
    stats = benchmark(vector_run, trace, config)
    assert stats.validate_allocations > 0


def test_reference_simulator_throughput(benchmark, trace):
    def run():
        cache = Cache(CacheConfig(size=8192, line_size=16))
        return cache.run(trace)

    stats = benchmark(run)
    assert stats.fetches > 0


def test_batch_grid_throughput(benchmark, trace):
    # The batched sweep path: one call for the whole figure-style grid,
    # which builds (and is charged for) its own plans every round.
    grid = batch_grid()

    def run():
        results, _ = simulate_trace_batch_info(trace, grid)
        return results

    results = benchmark(run)
    assert len(results) == len(grid)


def test_rdsim_ladder_grid_throughput(benchmark, trace):
    # The profiled sweep path: the figs 13-16 size grid collapsed through
    # reuse-distance ladders, built from scratch each round.
    grid = size_ladder_grid()

    def run():
        results, _ = simulate_trace_batch_info(trace, grid)
        return results

    results = benchmark(run)
    assert len(results) == len(grid)


def test_hier_grid_throughput(benchmark, trace):
    # The hierarchy figure path: level-by-level vector kernel over the
    # two-level grid, which builds its own plans each round.
    grid = hier_grid()

    def run():
        results, _ = simulate_hierarchy_batch_info(trace, grid)
        return results

    results = benchmark(run)
    assert len(results) == len(grid)


def test_trace_generation_throughput(benchmark):
    from repro.trace.workloads import WORKLOADS

    trace = benchmark(lambda: WORKLOADS["met"](scale=0.1).build())
    assert len(trace) > 0


# ---------------------------------------------------------------------------
# Script mode: the CI smoke grid.
# ---------------------------------------------------------------------------


def _cpu_seconds(run):
    """Process CPU seconds one call of ``run`` takes."""
    started = time.process_time()
    run()
    return time.process_time() - started


def _paired(slow, fast, repeats):
    """Time ``slow`` and ``fast`` alternately over ``repeats`` pairs.

    Returns ``(slow_best, fast_best, speedup)``: each side's fastest
    sample in seconds and the median of the per-pair ratios
    ``slow / fast``.  Each pair is taken back to back in process CPU
    time, so host contention that slows one sample mostly slows its
    partner too; a ratio of two separately taken best-of-N minima has
    no such pairing and swings with the host.  One untimed call of each
    side runs first: a first call pays one-off costs (lazy imports,
    first-touch pages) that can take several times a warm run.
    """
    slow()
    fast()
    slow_times, fast_times = [], []
    for _ in range(repeats):
        slow_times.append(_cpu_seconds(slow))
        fast_times.append(_cpu_seconds(fast))
    speedup = statistics.median(
        slow_time / fast_time for slow_time, fast_time in zip(slow_times, fast_times)
    )
    return min(slow_times), min(fast_times), speedup


def run_smoke_grid(workload="grr", scale=0.3, repeats=5):
    trace = load(workload, scale=scale)
    trace.addresses  # warm the list views so the reference is not charged
    report = {
        "workload": workload,
        "scale": scale,
        "refs": len(trace),
        "default_config": DEFAULT_CONFIG,
        "configs": {},
    }
    for name, hit, miss in SMOKE_CONFIGS:
        config = CacheConfig(size=8192, line_size=16, write_hit=hit, write_miss=miss)
        reference_best, vector_best, speedup = _paired(
            lambda: reference_run(trace, config),
            lambda: vector_run(trace, config),
            repeats,
        )
        report["configs"][name] = {
            "reference_refs_per_sec": round(len(trace) / reference_best),
            "vector_refs_per_sec": round(len(trace) / vector_best),
            "speedup": round(speedup, 2),
        }
    report["batch"] = _bench_batch_grid(trace, repeats)
    report["rdsim"] = _bench_rdsim_grid(trace, repeats)
    report["hier"] = _bench_hier_grid(trace, repeats)
    report["ingest"] = _bench_ingest(trace, repeats)
    report["buffers"] = _bench_buffer_grids(trace, repeats, workload, scale)
    return report


def _bench_ingest(trace, repeats):
    """Text-parse refs/sec: line-by-line ``read_trace`` vs chunked ingest.

    The trace is written once to a temporary text file; both sides then
    parse the same bytes from a warm page cache, so the ratio is pure
    parser cost — exactly what ``repro trace add`` and
    ``repro simulate --trace`` pay relative to the legacy reader.
    """
    import os
    import tempfile

    from repro.trace.ingest import iter_trace_chunks
    from repro.trace.io import read_trace, write_trace

    def ingest():
        assert sum(len(chunk) for chunk in iter_trace_chunks(path)) == len(trace)

    handle, path = tempfile.mkstemp(suffix=".trace")
    os.close(handle)
    try:
        write_trace(trace, path)
        read_best, ingest_best, speedup = _paired(
            lambda: read_trace(path), ingest, repeats
        )
    finally:
        os.unlink(path)
    return {
        "refs": len(trace),
        "read_trace_refs_per_sec": round(len(trace) / read_best),
        "ingest_refs_per_sec": round(len(trace) / ingest_best),
        "speedup": round(speedup, 2),
    }


def _bench_batch_grid(trace, repeats):
    """Grid refs/sec: per-run vector calls vs one batched call.

    Both sides start cold — every call builds its own plans — so the
    batched speedup honestly includes plan construction, exactly the
    cost a pool worker pays per (trace, grid) task.  The batch calls
    vecsim directly, bypassing the profiler: this section owns the
    vecsim-batching ratio, the ``rdsim`` section owns the profiler's.
    """
    grid = batch_grid()
    grid_refs = len(trace) * len(grid)

    def single():
        for config in grid:
            vector_run(trace, config)

    single_best, batch_best, speedup = _paired(
        single, lambda: vecsim.simulate_batch(trace, grid, True), repeats
    )
    return {
        "grid_configs": len(grid),
        "grid_refs": grid_refs,
        "single_vector_refs_per_sec": round(grid_refs / single_best),
        "batch_refs_per_sec": round(grid_refs / batch_best),
        "speedup": round(speedup, 2),
    }


def _bench_rdsim_grid(trace, repeats):
    """Size-sweep grid refs/sec: batched vecsim vs the ladder profiler.

    Same grid, same cold-start rules (every call builds its own plans and
    ladders from scratch), so the speedup is exactly
    what ``simulate_trace_batch_info``'s dispatch gains over the plain
    batched path on the figs 13-16 size sweeps.
    """
    grid = size_ladder_grid()
    grid_refs = len(trace) * len(grid)
    batch_best, rdsim_best, speedup = _paired(
        lambda: vecsim.simulate_batch(trace, grid, True),
        lambda: simulate_trace_batch_info(trace, grid),
        repeats,
    )
    return {
        "grid_configs": len(grid),
        "grid_refs": grid_refs,
        "batch_refs_per_sec": round(grid_refs / batch_best),
        "rdsim_refs_per_sec": round(grid_refs / rdsim_best),
        "speedup": round(speedup, 2),
    }


def _bench_hier_grid(trace, repeats):
    """Two-level figure-grid refs/sec: composed reference vs the hierarchy kernel.

    The reference side runs a composed ``CacheSystem`` per config; the
    vector side runs the same grid through
    ``simulate_hierarchy_batch_info``, which builds its own plans each
    call, so its speedup honestly includes plan construction and the L0->L1 boundary
    stream materialisation — the full cost a figure render pays.
    ``hier_vector_runs`` is carried into the report so CI can assert the
    kernel actually engaged rather than silently declining to the composed
    path.
    """
    grid = hier_grid()
    grid_refs = len(trace) * len(grid)
    info = {}

    def reference():
        for config in grid:
            composed_run(trace, config)

    def hier():
        info.update(simulate_hierarchy_batch_info(trace, grid)[1])

    reference_best, hier_best, speedup = _paired(reference, hier, repeats)
    return {
        "grid_configs": len(grid),
        "grid_refs": grid_refs,
        "hier_vector_runs": info["hier_vector_runs"],
        "reference_refs_per_sec": round(grid_refs / reference_best),
        "hier_refs_per_sec": round(grid_refs / hier_best),
        "speedup": round(speedup, 2),
    }


def _bench_buffer_grids(trace, repeats, workload, scale):
    """Buffer figure-grid refs/sec: per-spec oracles vs the bulk runners.

    The grids are fig07's write caches (entries 0-16) and fig05's write
    buffers (the retire-interval axis).  The oracle side runs
    ``WriteCache.run_writes`` and ``CoalescingWriteBuffer.simulate`` once
    per config; the bulk side hands each grid to its registered runner,
    exactly as a pool worker does with one trace's task.
    """
    from repro.buffers.write_buffer import WriteBufferConfig
    from repro.buffers.write_cache import WriteCacheConfig
    from repro.core.figures.write_buffer_fig import RETIRE_INTERVALS
    from repro.core.figures.write_cache_fig import ENTRY_COUNTS
    from repro.core.runner import experiment_key
    from repro.exec.runners import run_write_buffers, run_write_caches

    def specs(kind, configs):
        return [experiment_key(kind, workload, config, scale) for config in configs]

    cache_specs = specs(
        "write_cache", [WriteCacheConfig(entries=n) for n in ENTRY_COUNTS]
    )
    buffer_specs = specs(
        "write_buffer",
        [WriteBufferConfig(retire_interval=n) for n in RETIRE_INTERVALS],
    )
    grid_refs = len(trace) * (len(cache_specs) + len(buffer_specs))

    def oracles():
        for spec in cache_specs:
            spec.config.build().run_writes(trace, flush=spec.flush)
        for spec in buffer_specs:
            spec.config.build().simulate(trace)

    def bulk():
        run_write_caches(cache_specs, trace)
        run_write_buffers(buffer_specs, trace)

    oracle_best, bulk_best, speedup = _paired(oracles, bulk, repeats)
    return {
        "grid_configs": len(cache_specs) + len(buffer_specs),
        "grid_refs": grid_refs,
        "oracle_refs_per_sec": round(grid_refs / oracle_best),
        "bulk_refs_per_sec": round(grid_refs / bulk_best),
        "speedup": round(speedup, 2),
    }


def measure_fault_gate_overhead(trace, config, repeats=3, calls=100_000):
    """Per-run cost fraction of the *disabled* fault-injection gates.

    When no plan is active, every injection point the pool crosses per
    run (one execution gate, one store-write gate) must reduce to a
    single ``is None`` test.  This times those gates directly against
    one vector simulation of the same trace, so the chaos framework's
    "zero overhead when absent" claim is checked in CI: the two gate
    calls a run pays must stay under a fraction of a percent of the
    cheapest real simulation.
    """
    from repro.core.runner import experiment_key
    from repro.exec import faults

    spec = experiment_key("cache", "grr", config, 0.3, 1991)
    gate_best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            faults.fire_execution_fault(None, spec, 0)
            faults.store_write_rule(None, spec)
        gate_best = min(gate_best, time.perf_counter() - started)
    per_run_gate_seconds = gate_best / calls

    sim_best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        vector_run(trace, config)
        sim_best = min(sim_best, time.perf_counter() - started)

    return {
        "gate_seconds_per_run": per_run_gate_seconds,
        "sim_seconds_per_run": sim_best,
        "overhead_fraction": per_run_gate_seconds / sim_best,
    }


#: Grid-level report sections carrying a ``speedup`` the baseline gates.
GRID_SECTIONS = ("batch", "rdsim", "hier", "ingest", "buffers")


def check_against_baseline(report, baseline, tolerance):
    """``(regressions, notes)``: speedups past ``tolerance``, and report
    entries the baseline has no record of yet.

    A missing baseline entry is not a regression — it is a benchmark
    added after the baseline was recorded (the freshly written report
    becomes its first record), so it lands in ``notes`` instead of
    failing the run.
    """
    regressions = []
    notes = []
    for name, measured in report["configs"].items():
        recorded = baseline.get("configs", {}).get(name)
        if recorded is None:
            notes.append(f"{name}: no baseline entry; recorded for future runs")
            continue
        floor = (1.0 - tolerance) * recorded["speedup"]
        if measured["speedup"] < floor:
            regressions.append(
                f"{name}: speedup {measured['speedup']:.2f} < "
                f"{floor:.2f} (baseline {recorded['speedup']:.2f} - {tolerance:.0%})"
            )
    for section in GRID_SECTIONS:
        measured = report.get(section)
        if measured is None:
            continue
        recorded = baseline.get(section)
        if recorded is None:
            notes.append(
                f"{section}: section missing from baseline; recorded for "
                "future runs"
            )
            continue
        floor = (1.0 - tolerance) * recorded["speedup"]
        if measured["speedup"] < floor:
            regressions.append(
                f"{section}: speedup {measured['speedup']:.2f} < "
                f"{floor:.2f} (baseline {recorded['speedup']:.2f} - "
                f"{tolerance:.0%})"
            )
    return regressions, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="grr")
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="write the JSON report here (default: write nothing)",
    )
    parser.add_argument(
        "--check",
        type=pathlib.Path,
        default=None,
        metavar="BASELINE",
        help="fail if any speedup regresses >tolerance vs this baseline",
    )
    parser.add_argument("--tolerance", type=float, default=0.3)
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless the default write-back config reaches X",
    )
    parser.add_argument(
        "--fault-overhead-check",
        action="store_true",
        help="fail if the disabled fault-injection gates cost >=1%% of a "
        "vector simulation per run",
    )
    parser.add_argument(
        "--fault-overhead-tolerance",
        type=float,
        default=0.01,
        help="maximum per-run gate cost as a fraction of simulation time",
    )
    options = parser.parse_args(argv)

    baseline = None
    if options.check is not None:
        baseline = json.loads(options.check.read_text(encoding="utf-8"))

    report = run_smoke_grid(options.workload, options.scale, options.repeats)
    if options.output is not None:
        options.output.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    for name, row in report["configs"].items():
        print(
            f"{name:22s} ref  {row['reference_refs_per_sec'] / 1e6:6.2f} Mref/s  "
            f"vector {row['vector_refs_per_sec'] / 1e6:6.2f} Mref/s  "
            f"speedup {row['speedup']:.2f}x"
        )
    batch = report["batch"]
    print(
        f"{'batch-grid':22s} single {batch['single_vector_refs_per_sec'] / 1e6:5.2f}"
        f" Mref/s  batch {batch['batch_refs_per_sec'] / 1e6:6.2f} Mref/s  "
        f"speedup {batch['speedup']:.2f}x ({batch['grid_configs']} configs)"
    )
    ladder = report["rdsim"]
    print(
        f"{'rdsim-size-grid':22s} batch  {ladder['batch_refs_per_sec'] / 1e6:5.2f}"
        f" Mref/s  rdsim {ladder['rdsim_refs_per_sec'] / 1e6:7.2f} Mref/s  "
        f"speedup {ladder['speedup']:.2f}x ({ladder['grid_configs']} configs)"
    )

    hier = report["hier"]
    print(
        f"{'hier-figure-grid':22s} ref    {hier['reference_refs_per_sec'] / 1e6:5.2f}"
        f" Mref/s  hier  {hier['hier_refs_per_sec'] / 1e6:7.2f} Mref/s  "
        f"speedup {hier['speedup']:.2f}x ({hier['grid_configs']} configs)"
    )

    ingest = report["ingest"]
    print(
        f"{'ingest-parse':22s} lines  {ingest['read_trace_refs_per_sec'] / 1e6:5.2f}"
        f" Mref/s  chunk {ingest['ingest_refs_per_sec'] / 1e6:7.2f} Mref/s  "
        f"speedup {ingest['speedup']:.2f}x ({ingest['refs']} refs)"
    )

    buffers = report["buffers"]
    print(
        f"{'buffer-figure-grids':22s} oracle {buffers['oracle_refs_per_sec'] / 1e6:5.2f}"
        f" Mref/s  bulk  {buffers['bulk_refs_per_sec'] / 1e6:7.2f} Mref/s  "
        f"speedup {buffers['speedup']:.2f}x ({buffers['grid_configs']} configs)"
    )

    failed = False
    if baseline is not None:
        regressions, notes = check_against_baseline(
            report, baseline, options.tolerance
        )
        for line in notes:
            print(f"NOTE {line}", file=sys.stderr)
        for line in regressions:
            print(f"REGRESSION {line}", file=sys.stderr)
        failed = failed or bool(regressions)
    if options.require_speedup is not None:
        speedup = report["configs"][DEFAULT_CONFIG]["speedup"]
        if speedup < options.require_speedup:
            print(
                f"REGRESSION {DEFAULT_CONFIG}: speedup {speedup:.2f} < required "
                f"{options.require_speedup:.2f}",
                file=sys.stderr,
            )
            failed = True
    if options.fault_overhead_check:
        trace = load(options.workload, scale=options.scale)
        config = CacheConfig(size=8192, line_size=16)
        overhead = measure_fault_gate_overhead(trace, config)
        print(
            f"{'fault-gate (off)':22s} "
            f"{overhead['gate_seconds_per_run'] * 1e9:6.0f} ns/run vs sim "
            f"{overhead['sim_seconds_per_run'] * 1e3:6.2f} ms/run -> "
            f"{overhead['overhead_fraction']:.5%} overhead"
        )
        if overhead["overhead_fraction"] >= options.fault_overhead_tolerance:
            print(
                f"REGRESSION fault-gate: disabled-injection overhead "
                f"{overhead['overhead_fraction']:.3%} >= "
                f"{options.fault_overhead_tolerance:.0%} of a vector run",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
