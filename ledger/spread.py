#!/usr/bin/env python3
"""Runs each workload on several seeds and reports run-to-run spread.

    python3 ledger/spread.py --seeds 10 --first-seed 1 figures serve_hot

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Runs are sequential: concurrent runs would measure each
other.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, cwd=ROOT, timeout=900, check=False)
    lines = done.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        print("  seed %d: FAILED (exit %d)" % (seed, done.returncode))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, seconds)
            for name, metric in result.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        print("%s (%d seeds from %d):" % (workload, args.seeds,
                                          args.first_seed))
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print("  %-20s median %12.6g  spread %6.3f  bound %s" %
                  (name, median, spread, bounds.get(name)))


if __name__ == "__main__":
    main()
