#!/usr/bin/env python3
"""Interleaved A/B runs of perfbench: a parent checkout against a change.

    python3 tools/perf_ab.py PARENT_DIR CHANGE_DIR --workload mesh-sharing \\
        --pairs 10 --seconds 10 --seed 1

Each pair runs `python3 <dir>/perfbench/run.py` once in each checkout,
the parent first in odd pairs and the change first in even ones, so
host drift falls on both sides alike. Every run must report `correct`
and `failed` 0, or the script exits 1 naming the run.

For each end-to-end metric of BENCHMARK.json it prints both sides'
quartiles, the change of the median, the pairs the change won and
lost (ties count for neither side) and a verdict. `gain`: the change
won at least nine tenths of the pairs, and its median is better than
the parent's by more than the parent's interquartile range. `worse`:
the same rule mirrored, the change lost at least nine tenths of the
pairs and its median is worse by more than that range. `neither`
otherwise, and `too few pairs` below MIN_PAIRS, for either verdict.
Both sides may be the same directory, which checks that the runs work
at all.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Fewer pairs give no verdict: one run has no interquartile range, so
# a single pair would call any difference a gain or a loss, and a
# clean sweep of n pairs comes by chance one time in 2^n.
MIN_PAIRS = 5


def end_to_end_metrics():
    """[(name, unit, higher_is_better)] from this checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["unit"], m["better"] == "higher")
            for m in bench["end_to_end"]]


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    v = sorted(values)

    def at(q):
        pos = q * (len(v) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def pairs_won_lost(parent, change, higher):
    """(pairs the change won, pairs it lost); ties count for neither."""
    better = [(y > x if higher else y < x) for x, y in zip(parent, change)]
    worse = [(y < x if higher else y > x) for x, y in zip(parent, change)]
    return sum(better), sum(worse)


def verdict(parent, change, higher):
    """gain, worse, neither or too few pairs for one metric's runs."""
    if len(parent) < MIN_PAIRS:
        return "too few pairs"
    qa, qb = quartiles(parent), quartiles(change)
    spread = qa[2] - qa[0]
    gain = (qb[1] - qa[1]) if higher else (qa[1] - qb[1])
    won, lost = pairs_won_lost(parent, change, higher)
    if won >= 0.9 * len(parent) and gain > spread:
        return "gain"
    if lost >= 0.9 * len(parent) and -gain > spread:
        return "worse"
    return "neither"


def run_side(checkout, args):
    """One perfbench run in @checkout; its metrics, or exit 1 on failure."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if (done.returncode != 0 or not isinstance(result, dict)
            or result.get("correct") is not True
            or result.get("failed") != 0):
        sys.stderr.write(done.stderr[-4000:])
        sys.exit("perf_ab: run in %s failed (exit %d): %s"
                 % (checkout, done.returncode,
                    lines[-1] if lines else "no output"))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 0 or args.seed < 0:
        ap.error("--pairs must be positive, --seconds and --seed "
                 "non-negative")

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], args))
        print("pair %d/%d done (%s first)" % (i + 1, args.pairs, order[0]),
              file=sys.stderr)

    print("workload %s, seed %d, %d pairs of %d s runs"
          % (args.workload, args.seed, args.pairs, args.seconds))
    print("%-16s %-6s %-34s %-34s %8s %6s %6s  %s"
          % ("metric", "unit", "parent q1 / median / q3",
             "change q1 / median / q3", "median", "won", "lost",
             "verdict"))
    for name, unit, higher in end_to_end_metrics():
        a = [r[name] for r in runs["parent"]]
        b = [r[name] for r in runs["change"]]
        qa, qb = quartiles(a), quartiles(b)
        won, lost = pairs_won_lost(a, b, higher)
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        print("%-16s %-6s %-34s %-34s %+7.1f%% %3d/%-2d %3d/%-2d  %s"
              % (name, unit, " / ".join("%.4g" % q for q in qa),
                 " / ".join("%.4g" % q for q in qb), 100 * change, won,
                 args.pairs, lost, args.pairs, verdict(a, b, higher)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
