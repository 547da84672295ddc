"""Program entry used by the benchmark: one repro command plus its telemetry.

    python perfbench/shim.py OUT.json cli ARGS...
        run ``repro ARGS...`` exactly as ``python -m repro ARGS...`` would,
        then write the exit code and the process's pool telemetry to OUT.json;

    python perfbench/shim.py OUT.json jobs SCALE
        stay alive and, for each line read from standard input, render
        the figure ids on it from the populated result store, one
        independent job each (the per-process result memo dropped first,
        so every job reads the store; generated traces stay cached, as in
        any long-lived process), answering with one line on standard
        output: a JSON list of the jobs' latencies in ms.  At the end of
        input, write each figure's text, the count of repeated jobs that
        rendered differently and the telemetry.  Anything the program
        itself prints goes to standard error.

The telemetry comes from the program's own counters, so the benchmark
checks "the warm phase computed nothing" without parsing stderr.
"""

import json
import os
import sys
import time


def _cli(args) -> dict:
    from repro.cli import main

    return {"exit": main(args)}


def _jobs(args) -> dict:
    from repro.core.figures import render
    from repro.core.runner import clear_run_cache

    scale = float(args[0])
    reply = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # keeps the program's own output off the reply channel
    texts, mismatches = {}, 0
    for line in sys.stdin:
        latencies = []
        for figure_id in line.split():
            clear_run_cache()
            started = time.perf_counter()
            text = render(figure_id, scale=scale)
            latencies.append((time.perf_counter() - started) * 1000.0)
            if texts.setdefault(figure_id, text) != text:
                mismatches += 1
        reply.write(json.dumps(latencies) + "\n")
        reply.flush()
    reply.close()
    return {"exit": 0, "texts": texts, "mismatches": mismatches}


def main() -> int:
    # Keep this directory off the import path the program sees.
    if sys.path and os.path.abspath(sys.path[0]) == os.path.dirname(
        os.path.abspath(__file__)
    ):
        sys.path.pop(0)
    out, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    record = _cli(args) if mode == "cli" else _jobs(args)
    from repro.exec.pool import aggregate_telemetry

    record["telemetry"] = aggregate_telemetry().to_dict()
    with open(out, "w", encoding="utf-8") as stream:
        json.dump(record, stream)
    return int(record["exit"] or 0)


if __name__ == "__main__":
    sys.exit(main())
