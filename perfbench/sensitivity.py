#!/usr/bin/env python3
"""Checks that the benchmark flags a deliberate slowdown.

For each workload in DELAYS, runs the benchmark on --runs seeds as is and
again with --inject-delay-ns, a busy wait before every message send sized
to make the workload about 1.5x costlier. Every delayed run's
cpu_us_per_op (the gated cost of an operation) must be worse than the
median of the plain runs by more than its bound in BENCHMARK.json, and no
plain run may be. Exits nonzero otherwise. The wall-clock ops_per_s of
each run is printed beside it.

Run from the repository root:

    python3 perfbench/sensitivity.py --runs 5
    python3 perfbench/sensitivity.py --bin .bench_build/release/perfbench
"""

import argparse
import json
import statistics
import subprocess
import sys

# Injected nanoseconds per message send, per workload.
DELAYS = {"inproc-abd": 1000, "tcp-coded-cas": 4500}


def measure(cmd, workload, seed, seconds, delay):
    """(cpu_us_per_op, wall ops_per_s) of one run."""
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    if delay:
        args += ["--inject-delay-ns", str(delay)]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    record = json.loads(lines[-2])["record"]
    return result["metrics"]["cpu_us_per_op"]["value"], record["wall"]["ops_per_s"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--bin", help="prebuilt benchmark binary")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd = [args.bin] if args.bin else bench["command"]
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "cpu_us_per_op")
    ok = True
    for workload, delay in DELAYS.items():
        seeds = range(100, 100 + args.runs)
        plain = [measure(cmd, workload, s, bench["run_seconds"], 0) for s in seeds]
        base = statistics.median(cpu for cpu, _ in plain)
        limit = base * (1 + bound)
        slowed = [measure(cmd, workload, s, bench["run_seconds"], delay) for s in seeds]
        for kind, values, want in (("plain", plain, False), ("delayed", slowed, True)):
            for cpu, wall in values:
                flagged = cpu > limit
                ok = ok and flagged == want
                print(f"{workload:14} {kind:8} cpu_us_per_op {cpu:8.2f}  x{cpu / base:5.2f}"
                      f"  wall ops_per_s {wall:9.1f}"
                      f"  {'flagged' if flagged else 'passes'}"
                      f"{'' if flagged == want else '  <-- WRONG'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
