#!/usr/bin/env python3
"""Run-to-run spread of c2h-bench's end-to-end metrics.

    python3 c2hbench/spread.py --workload serve-mix --seeds 1-10 [--seconds S]

Runs the workload once per seed (through run.py, one process each) and prints,
per end-to-end metric, the median, the quartiles as statistics.quantiles(n=4)
gives them, and the interquartile range as a share of the median next to the
metric's bound from BENCHMARK.json.  Use it to check that every spread stays
well inside its bound before relying on the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print("seed %d: run failed" % seed)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: incorrect output (%d of %d jobs failed)"
                  % (seed, result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-20s %14s %14s %14s %9s %7s" % ("metric", "median", "q1", "q3",
                                            "spread", "bound"))
    for metric in spec["end_to_end"]:
        v = values.get(metric["name"], [])
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        share = (q3 - q1) / med if med else float("inf")
        print("%-20s %14.6g %14.6g %14.6g %8.2f%% %6.0f%%" % (
            metric["name"], med, q1, q3, 100 * share, 100 * metric["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
