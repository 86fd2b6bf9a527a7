#!/usr/bin/env python3
"""c2h-bench entry point.

Builds the benchmark program (c2hbench/CMakeLists.txt, which compiles the
library from ../src) and runs one workload in its own process:

    python3 c2hbench/run.py --workload registry-cold --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result object.  Other modes:

    python3 c2hbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
        every workload, one process each, then one table row per workload
    python3 c2hbench/run.py --self-test
        the benchmark's own checks

Run it from the repository root.  Everything it writes stays under the build
directory ($CARGO_TARGET_DIR, else .bench_build): the CMake build, traces
(traces/<workload>-seed<N>.json) and a per-run native artifact cache that is
deleted when the run ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["registry-cold", "unrolled-scaled", "serve-mix", "stimulus-sweep"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(message):
    print("c2h-bench: " + message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configure and build the benchmark program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no c2h sources next to the benchmark (expected src/CMakeLists.txt)")
        return None
    out = os.path.join(build_dir(), "c2hbench")
    binary = os.path.join(out, "c2h_bench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(len(os.sched_getaffinity(0)))
    result = subprocess.run(["cmake", "--build", out, "--target", "c2h_bench",
                             "-j", jobs], stdout=sys.stderr)
    if result.returncode != 0 or not os.path.isfile(binary):
        log("build failed")
        return None
    return binary


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; returns (code, stdout)."""
    scratch = os.path.join(build_dir(), "run-%d" % os.getpid())
    native_cache = os.path.join(scratch, "native-cache")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(native_cache, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ)
    # A fresh artifact cache per run: nothing carries across runs or commits.
    env["C2H_NATIVE_CACHE"] = native_cache
    env["TMPDIR"] = scratch
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--trace-dir", traces]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                                text=True, timeout=RUN_TIMEOUT_S)
        return result.returncode, result.stdout
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.all or args.self_test):
        parser.error("one of --workload, --all or --self-test is required")

    binary = build()
    if binary is None:
        return 2
    if args.self_test:
        return subprocess.run([binary, "--self-test"]).returncode

    if args.workload:
        code, stdout = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace)
        if code != 0 or last_json(stdout) is None:
            sys.stderr.write(stdout)
            log("%s did not produce a result" % args.workload)
            return 1
        sys.stdout.write(stdout)
        return 0

    rows, status = [], 0
    for workload in WORKLOADS:
        code, stdout = run_one(binary, workload, args.seed, args.seconds,
                               args.trace)
        result = last_json(stdout)
        if code != 0 or result is None:
            log("%s did not produce a result" % workload)
            status = 1
            continue
        lines = stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-2]) + ("\n" if len(lines) > 2 else ""))
        rows.append(lines[-2])
        if not result["correct"]:
            status = 1
    print("\n".join(rows))
    return status


if __name__ == "__main__":
    sys.exit(main())
