"""End-to-end benchmark of the repro program; see README.md beside this file.

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  A line before it, prefixed ``perfbench record:``, holds
the run's provenance, raw samples and checked digests.  The exit code is
nonzero when any check failed.
"""

import argparse
import json
import pathlib
import shutil
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("paper-figures", "hier-structures", "capture-service")
WORK_DIRNAME = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every input for the self-test")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="self-test only: corrupt one checked output")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources (src/repro) under the current "
              "directory; run from the root of a checkout", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    expected = expected[args.size][args.workload]
    work = root / WORK_DIRNAME / f"{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    ctx = harness.Context(root, args.workload, args.seed, args.seconds,
                          bool(args.trace), args.size, work)
    ctx.inject_mismatch = args.inject_mismatch
    calibration_start = harness.calibrate()
    try:
        if args.workload == "capture-service":
            outcome = loadgen.run_service(ctx, expected)
        else:
            outcome = workloads.run_cli(ctx, expected)
    except Exception:  # a crashed run still reports what it saw
        outcome = harness.Outcome()
        outcome.op(False, traceback.format_exc(limit=4))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIRNAME).rmdir()
        except OSError:
            pass
    record = dict(outcome.record)
    record.update(harness.provenance(root))
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace, size=args.size,
        calibration_start_s=calibration_start,
        calibration_end_s=harness.calibrate(),
        failed_frac=outcome.failed / max(outcome.attempted, 1),
        problems=outcome.problems,
        run_s=ctx.elapsed(),
    )
    print("perfbench record: " + json.dumps(record, sort_keys=True))
    for problem in outcome.problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    correct = not outcome.problems
    result = {
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
