#!/usr/bin/env python3
"""Tracing overhead of the benchmark, per workload.

Runs each workload untraced and traced with the same seed and run
length, alternating which goes first, and prints every end-to-end
metric of both runs with the traced run's difference.  Run from the
root of a checkout:

    python3 perfbench/overhead.py [--seed 1] [--pairs 1] [--workloads a,b]

Both modes execute the same phases; a traced run additionally records
one span per timed call, request and frame and writes them out at the
end.  On a shared host the difference of one pair is mostly noise, so
compare it with the spread of untraced runs before reading anything
into it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip().splitlines()
    if trace:
        prefix = "end_to_end (traced): "
        line = next(l for l in out if l.startswith(prefix))
        metrics = json.loads(line[len(prefix):])
    else:
        metrics = json.loads(out[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        plain, traced = {}, {}
        for p in range(args.pairs):
            seed = args.seed + p
            order = (0, 1) if p % 2 == 0 else (1, 0)
            for trace in order:
                res = run(workload, seed, args.seconds, trace)
                for k, v in res.items():
                    (traced if trace else plain).setdefault(k, []).append(v)
        print(f"{workload} ({args.pairs} pair(s), seed {args.seed}..)")
        print(f"  {'metric':28s} {'untraced':>12s} {'traced':>12s} "
              f"{'diff':>8s}")
        for m in spec["end_to_end"]:
            a = statistics.median(plain[m["name"]])
            b = statistics.median(traced[m["name"]])
            diff = (b - a) / a * 100 if a else float("nan")
            print(f"  {m['name']:28s} {a:12.4f} {b:12.4f} {diff:+7.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
