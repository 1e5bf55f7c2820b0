#!/usr/bin/env python3
"""Run each workload repeatedly and report how steady its end-to-end metrics are.

    python3 perfbench/steady.py                    # 10 runs of every workload
    python3 perfbench/steady.py --runs 5 --workloads star-fold --first-seed 100
    python3 perfbench/steady.py --runs 1           # one run each: all metrics, by name

Run from the root of a source checkout.  Each run is a fresh
``perfbench/run.py`` process with its own seed (``first-seed``, ``first-seed
+ 1``, ...) and the run length from ``BENCHMARK.json``; runs go one at a
time.  For every end-to-end metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the distance
between the quartiles as a share of the median, against the metric's bound.
A spread under a third of the bound is reported as steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    for line in lines[:-1]:
        print("    " + line)
    print(f"    run took {time.perf_counter() - start:.1f} s")
    return json.loads(lines[-1])


def summarize(values: list[float], bound: float) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"value {median:.4f}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
    return (f"median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  spread {spread:.3f}"
            f" / bound {bound} ({verdict})")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()

    for workload in args.workloads.split(","):
        print(f"{workload}:")
        results = [run_once(workload, args.first_seed + i, bench["run_seconds"])
                   for i in range(args.runs)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"  correct {correct}  failed_ratio [ratio]  {failed / attempted:.4f}"
              f" (failed {failed} / attempted {attempted})")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            print(f"  {metric['name']:<16} [{metric['unit']}]  {summarize(values, metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
