#!/usr/bin/env python3
"""Builds and runs one SP2B benchmark workload.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload <name> --seed N --seconds S --trace 0|1

Builds the benchmark package (benchmark/CMakeLists.txt, which compiles the
engine from ../src) into .bench_build/benchmark, runs the benchmark's own
math tests, then the workload. Build and test output goes to stderr. The
last stdout line is the workload's JSON result, forwarded only after it
has been checked against BENCHMARK.json: exactly the declared end-to-end
metrics untraced, exactly the declared per-layer metrics traced. A run
whose correctness gate failed prints its result (with "correct": false)
and exits 1; any other failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected result keys %s" % sorted(result)
    if not isinstance(result["correct"], bool):
        return "correct must be true or false"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(metrics) ^ set(expected))
    for name, m in metrics.items():
        if m.get("unit") != expected[name]:
            return "unit of %s is %s, declared %s" % (
                name, m.get("unit"), expected[name])
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(out_dir, "benchmark")
    if not build(build_dir):
        return 1
    test = subprocess.run([os.path.join(build_dir, "bench_math_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode:
        log("benchmark math tests failed")
        return 1

    cmd = [os.path.join(build_dir, "sp2b_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--golden-dir", os.path.join(HERE, "golden")]
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("workload exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if run.returncode:
        log("sp2b_bench exited with %d" % run.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line is not a JSON result: %r" % lines[-1][:200])
        return 1
    problem = check(result, declared(args.trace == "1"))
    if problem:
        log("result rejected: " + problem)
        return 1
    print(lines[-1], flush=True)
    if result["correct"] is not True:
        log("correctness gate failed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
