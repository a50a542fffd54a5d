#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs every workload (or those named with --workloads) once per seed with
tracing off and prints, per metric, the median and the quartile spread
(Q3 - Q1, from statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. A spread above
the bound fails (setup_s excepted: only its median is compared); a
spread above a third of it is marked. With --sets 2 the whole set is
run twice and the second median of every metric, setup_s included, must
not be worse than the first by more than the bound.

Run from the repository root:

    python3 perfbench/stability.py --seeds 10
    python3 perfbench/stability.py --workloads inproc-abd --seeds 5 \\
        --bin .bench_build/release/perfbench

--bin runs an already built benchmark binary instead of the command in
BENCHMARK.json (same arguments, no cargo start-up per run).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, extra=()):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0", *extra]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--bin", help="prebuilt benchmark binary")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd = [args.bin] if args.bin else bench["command"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    ok = True
    for name in names:
        sets = []
        for _ in range(args.sets):
            rows = [run(cmd, name, s, bench["run_seconds"]) for s in seeds]
            sets.append(rows)
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians = []
            for rows in sets:
                values = [r[key] for r in rows]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians.append(med)
                spread = (q3 - q1) / med if med else 0.0
                mark = "ok"
                if spread > bound and key != "setup_s":
                    mark, ok = "FAIL", False
                elif spread > bound / 3:
                    mark = "wide"
                print(f"{name:18} {key:16} median {med:14.6g}  spread {spread:6.3f}"
                      f"  bound {bound:5.2f}  {mark}")
            if len(medians) == 2:
                drift = worse_by(metric, medians[0], medians[1])
                mark = "ok" if drift <= bound else "FAIL"
                ok = ok and drift <= bound
                print(f"{name:18} {key:16} second median worse by {drift:+.3f}  {mark}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
