#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute).

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, in both modes, it runs the benchmark
on traces shrunk 20x and checks that the result line is valid, that the run
passed its own checks, and that every metric BENCHMARK.json names for the
mode prints as a number with the declared unit. It then corrupts the
expected answer (--break-expected) and checks that the run fails: nonzero
exit status, `correct` false and at least one failed operation.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            code, result, stderr = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}\n{stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            metrics = result["metrics"]
            names = {m["name"] for m in expected[trace]}
            if set(metrics) != names:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(names - set(metrics))}, "
                                f"extra {sorted(set(metrics) - names)}")
            for m in expected[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} printed as {got}, unit {m['unit']}")
            print(f"ok {where}: {len(metrics)} metrics, attempted={result['attempted']}")
        code, result, _ = run(workload, 0, "--break-expected")
        if code == 0 or result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a wrong expected answer did not fail the run "
                            f"(exit {code}, result {result and result['correct']})")
        else:
            print(f"ok {workload}: a wrong expected answer fails the run (exit {code})")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
