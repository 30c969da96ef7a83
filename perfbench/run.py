#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-apps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The benchmark compiles the simulator library from ../src together
with the benchmark sources (Release build, into .bench_build/ at the
repository root), runs one workload in one process, and relays the
binary's output: the last stdout line is the result object. Build
logs go to stderr. See README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
EXPECTED = os.path.join(HERE, "expected_seed1.tsv")
RUN_TIMEOUT_S = 170


def build(target):
    """Configure and build one target; False (with a message) on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "machine.hh")):
        print("perfbench: simulator sources not found under "
              + os.path.join(ROOT, "src"), file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    """Run a built binary, relaying its stdout; returns its exit code."""
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return done.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's self-tests")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    if args.selftest:
        if not build("perfbench_selftest"):
            return 1
        return run([os.path.join(BUILD, "perfbench_selftest"), EXPECTED])

    if not args.workload:
        ap.error("--workload is required")
    if not build("perfbench"):
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    return run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--expected", EXPECTED,
                "--out-dir", RESULTS])


if __name__ == "__main__":
    sys.exit(main())
