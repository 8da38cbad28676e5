#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_apps --seed 1 --seconds 20 --trace 0

Workloads are paper_apps and cold_start (README.md).  The
script builds the polymage library and the perfbench binary with CMake
under $CARGO_TARGET_DIR (default .bench_build), fills the benchmark's
own JIT cache on first use, measures set-up time in fresh processes,
runs the workload, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones; a traced run also writes its spans
(polymage-trace-v1) to the state directory and prints its end-to-end
values on the line before, so the tracing overhead can be read off.
"""
import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_apps", "cold_start")
# Set-up samples per run: this many fresh set-up-only processes plus
# the measuring process's own set-up; setup_s is their median.
SETUP_PROCESSES = 2
FIRST_RUN_BUDGET_S = 880
RUN_BUDGET_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_child(cmd, deadline, env=None, capture=True):
    """Run @cmd in its own process group; kill the whole group if it is
    still running at @deadline.  Returns (returncode, stdout)."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        kill_group(proc)
        raise SystemExit(f"perfbench: timed out: {' '.join(cmd)}")
    except BaseException:
        # Interrupted (SIGINT, or SIGTERM via the handler in main):
        # take the child's process group down before leaving.
        kill_group(proc)
        raise
    return proc.returncode, out or ""


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def build(build_dir, deadline):
    """Configure (once) and build the perfbench binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc, _ = run_child(cmd, deadline, capture=False)
        if rc != 0:
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    rc, _ = run_child(["cmake", "--build", build_dir, "-j", jobs],
                      deadline, capture=False)
    if rc != 0:
        raise SystemExit("perfbench: build failed")


def child_env(state):
    """The benchmark fixes its own configuration: library and OpenMP
    overrides from the caller's environment are dropped, and compiler
    temporaries stay inside the state directory."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("POLYMAGE_", "OMP_", "GOMP_"))}
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def last_json(stdout, what):
    lines = [l for l in stdout.strip().splitlines() if l.startswith("{")]
    if not lines:
        raise SystemExit(f"perfbench: {what} printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    state = os.path.join(out_root, "perfbench-state")
    binary = os.path.join(build_dir, "perfbench")
    first = not os.path.exists(binary)
    deadline = start + (FIRST_RUN_BUDGET_S if first else RUN_BUDGET_S)
    end_to_end, per_layer = metric_specs()

    build(build_dir, deadline)
    os.makedirs(state, exist_ok=True)
    env = child_env(state)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--state", state]

    # The first set-up in a checkout compiles every pipeline into the
    # benchmark's JIT cache; it is not a sample.
    stamp = os.path.join(state, "jit-warm")
    if not os.path.exists(stamp):
        log("filling the JIT cache (first run in this checkout)")
        rc, _ = run_child([binary, "--mode", "setup"] + common, deadline,
                          env)
        if rc != 0:
            raise SystemExit("perfbench: set-up failed")
        open(stamp, "w").close()

    setups = []
    for _ in range(SETUP_PROCESSES):
        rc, out = run_child([binary, "--mode", "setup"] + common,
                            deadline, env)
        if rc != 0:
            raise SystemExit("perfbench: set-up failed")
        setups.append(last_json(out, "set-up")["setup_s"])

    rc, out = run_child([binary, "--mode", "run", "--trace",
                         str(args.trace)] + common, deadline, env)
    if rc != 0:
        raise SystemExit(f"perfbench: run failed with code {rc}")
    res = last_json(out, "run")
    setups.append(res["e2e"]["setup_s"])
    res["e2e"]["setup_s"] = statistics.median(setups)
    log("meta " + json.dumps(res["meta"], sort_keys=True))
    log(f"setup samples {setups}")

    def pick(values, specs):
        metrics = {}
        for m in specs:
            v = values.get(m["name"])
            if v is None:
                raise SystemExit(f"perfbench: metric {m['name']} missing")
            if not math.isfinite(v):
                v = 1e300
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        return metrics

    e2e = pick(res["e2e"], end_to_end)
    if args.trace:
        print("end_to_end (traced): " + json.dumps(e2e))
    result = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": pick(res["layer"], per_layer) if args.trace else e2e,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
