"""Tiny-size self-test of every benchmark workload.

    python3 perfbench/selftest.py [workload ...]

Run from the root of a checkout.  For each workload, at ``--size tiny``:

- an untraced run succeeds and reports exactly the end-to-end metrics of
  ``BENCHMARK.json``, each with its unit;
- a traced run succeeds and reports exactly the per-layer metrics;
- a run with one output deliberately corrupted reports ``correct: false``
  and a failed operation, and exits nonzero.

It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only ``BENCHMARK.json`` and the benchmark.
"""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORK_DIRNAME, WORKLOADS  # noqa: E402


def _run(workload, *extra, cwd=None):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--size", "tiny", *extra]
    process = subprocess.run(command, capture_output=True, text=True, cwd=cwd,
                             timeout=600)
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return process, result


def _metrics_match(result, specs):
    want = {spec["name"]: spec["unit"] for spec in specs}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    return got == want, sorted(set(want) ^ set(got))


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (argv or sys.argv[1:]) or list(WORKLOADS)
    failures = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for workload in workloads:
        for trace, specs in (("0", benchmark["end_to_end"]), ("1", benchmark["per_layer"])):
            process, result = _run(workload, "--trace", trace)
            good = process.returncode == 0 and result is not None and result["correct"]
            expect(good, f"{workload} --trace {trace}: runs correct "
                   f"(exit {process.returncode}) {process.stderr[-400:] if not good else ''}")
            if result is not None:
                same, diff = _metrics_match(result, specs)
                expect(same, f"{workload} --trace {trace}: every metric with its unit {diff}")
        process, result = _run(workload, "--inject-mismatch")
        expect(process.returncode != 0 and result is not None
               and not result["correct"] and result["failed"] >= 1,
               f"{workload}: a corrupted output fails the run")

    bare = pathlib.Path.cwd() / WORK_DIRNAME / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        process = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             workloads[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        expect(process.returncode != 0 and not process.stdout.strip(),
               "without the program's sources the run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
