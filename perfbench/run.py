#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload advise|ingest|serve|all \
        --seed N --seconds S --trace 0|1

The script builds perfbench/bench.exe with dune, clears the environment
variables that change the program's behaviour, times the workload's set-up
from outside the process (several processes, median), runs the workload
and prints, as the last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics.  The run's context (nproc,
OCaml version, commit, jobs) is printed on the line before and written with
the result to perfbench/_out/.  --workload all runs the three workloads in
turn and prints every metric as workload/name; it exits 1 if an output
check failed.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("advise", "ingest", "serve")

# An untraced run is split over PARTS processes, each measuring an equal
# share of the run on its own inputs; latencies and work are pooled over
# them, and peak memory is their median.
PARTS = 3

# Set-up-only processes started besides the measuring ones; set-up time is
# the median over all of them.
SETUP_PROBES = {"advise": 6, "ingest": 0, "serve": 3}

# Variables that change the program's behaviour or its runtime.
PINNED_UNSET = ("OCAMLRUNPARAM", "VISMAT_JOBS", "VISMAT_SLOW_COST")

CHILD_TIMEOUT = 170


class BenchError(Exception):
    pass


def clean_env():
    env = dict(os.environ)
    for k in PINNED_UNSET:
        env.pop(k, None)
    return env


def build(env):
    # The shared dune cache lives outside the checkout.
    env = dict(env, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if p.returncode != 0 or not os.path.exists(EXE):
        raise BenchError("build failed")


def spawn(args, env):
    """Runs bench.exe; returns (set-up seconds, result dict or None)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([EXE] + args, cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, text=True)
    setup = None
    last = None
    try:
        for line in p.stdout:
            if line.startswith("READY ") and setup is None:
                setup = time.perf_counter() - t0 - float(line.split()[1])
            elif line.strip():
                last = line
        p.wait(timeout=CHILD_TIMEOUT)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    if p.returncode != 0 or setup is None:
        raise BenchError(f"bench.exe {' '.join(args)} exited {p.returncode}")
    return setup, (json.loads(last) if last else None)


def percentile(p, xs):
    """Nearest-rank percentile, as the OCaml side computes it."""
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, math.ceil(p * len(s)) - 1))]


def end_to_end(parts, setups):
    lat = [x for r in parts for x in r["latencies_s"]]
    work = sum(r["work"] for r in parts)
    return {
        "latency_ms_p50": 1000.0 * percentile(0.5, lat),
        "latency_ms_p90": 1000.0 * percentile(0.9, lat),
        "throughput_per_s": work / sum(lat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["metrics"]["peak_rss_mb"] for r in parts),
    }


def commit_id():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    # Not a git checkout: digest the sources instead.
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    with open(os.path.join(d, f), "rb") as fh:
                        h.update(f.encode() + b"\0" + fh.read())
    return "tree-" + h.hexdigest()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds <= 0:
        ap.error("--seconds must be > 0")

    env = clean_env()
    build(env)
    if a.workload == "all":
        return run_all(a)
    declared = declared_metrics(a.trace)
    setups = []

    def run(seed, *extra):
        s, res = spawn(["--workload", a.workload, "--seed", str(seed),
                        "--out", OUT] + list(extra), env)
        setups.append(s)
        if res is None and "--setup-only" not in extra:
            raise BenchError("bench.exe printed no result")
        return res

    if a.trace:
        parts = [run(a.seed, "--seconds", str(a.seconds), "--trace", "1")]
        values = dict(parts[0]["metrics"])
    else:
        for _ in range(SETUP_PROBES[a.workload]):
            run(a.seed * 1000, "--setup-only")
        parts = [run(a.seed * 1000 + j, "--seconds", str(a.seconds / PARTS))
                 for j in range(PARTS)]
        values = end_to_end(parts, setups)
    if sorted(values) != sorted(n for n, _ in declared):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {n: {"value": values[n], "unit": u} for n, u in declared}
    attempted = sum(r["attempted"] for r in parts)
    failed = sum(r["failed"] for r in parts)
    info = dict(parts[0].get("info", {}))
    info.update(workload=a.workload, seed=a.seed, seconds=a.seconds,
                trace=a.trace, nproc=os.cpu_count(), commit=commit_id(),
                setup_samples=len(setups))
    info.update(samples=sum(len(r["latencies_s"]) for r in parts))
    out = {"correct": all(r["correct"] for r in parts) and failed == 0,
           "attempted": attempted,
           "failed": failed,
           "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"info": info, "result": out}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(out))


def run_all(a):
    """Runs every workload in turn and prints each metric as workload/name."""
    ok = True
    for w in WORKLOADS:
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(a.seed), "--seconds", str(a.seconds),
             "--trace", str(a.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if p.returncode != 0:
            raise BenchError(f"workload {w} exited {p.returncode}")
        res = json.loads(p.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {w}/{name} = {m['value']:.6g} {m['unit']}")
    if not ok:
        raise BenchError("an output check failed")


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
