"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py run --workload paper-figures --runs 10 --out a.jsonl
    python3 perfbench/steadiness.py report a.jsonl [b.jsonl]

``run`` executes ``run.py`` once per seed (``--first-seed`` onwards) from
the current directory and appends one JSON line per run.  ``report``
prints, per workload and end-to-end metric of ``BENCHMARK.json``, the
median, the quartiles (``statistics.quantiles(n=4)``), the spread
(q3 - q1) / median and the worst pair (max - min) / median, each beside
the metric's bound.  Given a second file it also prints how far apart
the two medians are, max / min - 1, in either direction.  It exits
nonzero when a spread or that distance exceeds its bound.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load_benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args) -> int:
    benchmark = load_benchmark()
    seconds = str(args.seconds or benchmark["run_seconds"])
    failures = 0
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [sys.executable, str(HERE / "run.py"), "--workload",
                       args.workload, "--seed", str(seed), "--seconds", seconds,
                       "--trace", "0"]
            process = subprocess.run(command, capture_output=True, text=True)
            lines = process.stdout.strip().splitlines()
            record = {}
            for line in lines:
                if line.startswith("perfbench record: "):
                    record = json.loads(line[len("perfbench record: "):])
            result = json.loads(lines[-1]) if lines else {}
            failures += process.returncode != 0
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "code": process.returncode, "result": result,
                                  "record": record}) + "\n")
            out.flush()
            print(f"{args.workload} seed {seed}: exit {process.returncode}, "
                  f"{record.get('run_s', 0):.1f} s", file=sys.stderr)
    return 1 if failures else 0


def _values(path):
    by_workload = {}
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        metrics = entry["result"].get("metrics", {})
        bucket = by_workload.setdefault(entry["workload"], {})
        for name, metric in metrics.items():
            bucket.setdefault(name, []).append(metric["value"])
    return by_workload


def report(args) -> int:
    benchmark = load_benchmark()
    first = _values(args.files[0])
    second = _values(args.files[1]) if len(args.files) > 1 else None
    bad = 0
    header = (f"{'workload':16} {'metric':18} {'unit':5} {'n':>3} {'median':>11} "
              f"{'q1':>11} {'q3':>11} {'spread':>7} {'worst':>7} {'bound':>6}")
    if second is not None:
        header += f" {'apart':>7}"
    print(header)
    for workload, metrics in first.items():
        for spec in benchmark["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            values = metrics.get(name)
            if not values:
                print(f"{workload:16} {name:18} missing")
                bad += 1
                continue
            mid = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / mid if mid else float("inf")
            worst = (max(values) - min(values)) / mid if mid else float("inf")
            flags = []
            if spread > bound:
                flags.append("SPREAD>BOUND")
                bad += 1
            elif spread > bound / 3:
                flags.append("spread>bound/3")
            line = (f"{workload:16} {name:18} {spec['unit']:5} {len(values):3} "
                    f"{mid:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
                    f"{worst:7.3f} {bound:6.3f}")
            if second is not None:
                other = second.get(workload, {}).get(name)
                if other:
                    pair = (mid, statistics.median(other))
                    apart = max(pair) / min(pair) - 1.0 if min(pair) > 0 else float("inf")
                    line += f" {apart:7.3f}"
                    if apart > bound:
                        flags.append("APART>BOUND")
                        bad += 1
                else:
                    flags.append("MISSING-IN-SECOND")
                    bad += 1
            print(line + ("  " + " ".join(flags) if flags else ""))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="run the benchmark once per seed")
    runner.add_argument("--workload", required=True)
    runner.add_argument("--runs", type=int, default=10)
    runner.add_argument("--first-seed", type=int, default=1)
    runner.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    runner.add_argument("--out", required=True)
    reporter = sub.add_parser("report", help="quartiles and spreads of runs")
    reporter.add_argument("files", nargs="+", help="one or two run files")
    args = parser.parse_args(argv)
    return run(args) if args.command == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
