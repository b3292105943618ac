#!/usr/bin/env python3
"""Runs one workload k times with seeds first..first+k-1, each run as long
as BENCHMARK.json's run_seconds, and prints, for each end-to-end metric,
the median, the quartiles and the quartile spread as a share of the median
— the figures the bounds in BENCHMARK.json are set from.

    python3 perfbench/steadiness.py --workload cold_layout --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with open(BENCHMARK_JSON) as f:
        seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit("run with seed %d exited with %d" % (seed, out.returncode))
        result = json.loads(out.stdout.strip().split("\n")[-1])
        shares.add((result["correct"], result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d (%.0f s): %s" % (seed, time.monotonic() - start, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in sorted(result["metrics"].items()))),
            flush=True)

    print("\nworkload %s, %d runs of %d s, (correct, failed, attempted) %s" % (
        args.workload, args.runs, seconds, sorted(shares)))
    print("%-34s %8s %14s %14s %14s %9s" % ("metric", "unit", "median", "q1", "q3", "iqr/med"))
    for name in sorted(values):
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-34s %8s %14.6g %14.6g %14.6g %9.4f" % (
            name, units[name], med, q1, q3, spread))
    return 0


if __name__ == "__main__":
    sys.exit(main())
