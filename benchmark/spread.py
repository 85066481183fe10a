#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the benchmark command of BENCHMARK.json `--runs` times per workload, each
time with another --seed, and prints for every metric the distance between the
first and third quartile of its values (statistics.quantiles, n=4) as a share
of their median, beside the metric's bound. Run from the repository root:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--json FILE] [--keep DIR]
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", help="write every value measured to this file")
    ap.add_argument("--keep", help="copy every run's result file, raw samples included, into this directory")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    values = {w: {m: [] for m in bounds} for w in workloads}
    walls = []
    for w in workloads:
        for i in range(args.runs):
            cmd = bench["command"] + ["--workload", w, "--seed", str(args.first_seed + i),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
            walls.append(time.time() - start)
            last = json.loads(out.strip().splitlines()[-1])
            if not last["correct"] or last["failed"]:
                sys.exit(f"{w} seed {args.first_seed + i}: {last['failed']} failed operations")
            for m in bounds:
                values[w][m].append(last["metrics"][m]["value"])
            if args.keep:
                os.makedirs(args.keep, exist_ok=True)
                shutil.copy(f"benchmark/out/{w}.json", f"{args.keep}/{w}.{args.first_seed + i}.json")
            print(f"{w} seed {args.first_seed + i}: {walls[-1]:.1f}s", file=sys.stderr)

    print(f"{'workload':15} {'metric':24} {'median':>12} {'iqr/median':>10} {'bound':>6}  verdict")
    for w in workloads:
        for m, xs in values[w].items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bounds[m] / 3 else "within bound" if spread <= bounds[m] else "TOO WIDE"
            if m == "setup_s" and verdict == "TOO WIDE":
                verdict = "wide (not gated)"
            print(f"{w:15} {m:24} {med:12.4f} {100 * spread:9.2f}% {100 * bounds[m]:5.0f}%  {verdict}")
    print(f"wall per run: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    if args.json:
        json.dump(values, open(args.json, "w"), indent=1)


if __name__ == "__main__":
    main()
