#!/usr/bin/env python3
"""Steadiness of one workload: runs it N times and prints, per metric, the
median, the quartiles, the interquartile range and (max - min) as shares of
the median.

    python3 churnbench/steady.py --workload greedy-churn --runs 10 --seed 1
    python3 churnbench/steady.py --workload serve-elastic --runs 10 --seed 1 --vary-seed

At a fixed seed every run gets the same inputs; --vary-seed uses seeds
seed, seed + 1, ... instead, which is how bounds are checked. Each run is
as long as BENCHMARK.json's run_seconds, the length the bounds rest on,
unless --seconds says otherwise. --trace 1 measures the per-layer metrics.
Exits non-zero when a run fails, reports incorrect output, prints another set
of metrics than BENCHMARK.json declares, or the failed share of operations
differs between runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
DECLARED = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def run_once(args, seed):
    command = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady: run with seed {seed} failed (exit {done.returncode})")
    return json.loads(lines[-1])


def main():
    with open(DECLARED) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        result = run_once(args, seed)
        results.append(result)
        print(f"run {i + 1}/{args.runs} seed={seed} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr, flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    undeclared = [name for name, m in results[0]["metrics"].items()
                  if units.get(name) != m["unit"]]
    missing = [name for name in units if any(name not in r["metrics"] for r in results)]
    print(f"{'metric':30} {'unit':>10} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'range/med':>9}")
    for name, first in results[0]["metrics"].items():
        if name in missing:
            continue
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        centre = statistics.median(values)
        iqr = (q3 - q1) / centre if centre else float("nan")
        spread = (max(values) - min(values)) / centre if centre else float("nan")
        print(f"{name:30} {first['unit']:>10} {centre:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{iqr:8.4f} {spread:9.4f}")
    if missing:
        sys.exit(f"steady: BENCHMARK.json metrics missing from a run's result: {missing}")
    if undeclared:
        sys.exit(f"steady: metrics missing from BENCHMARK.json or with another unit: "
                 f"{undeclared}")
    if not all(r["correct"] for r in results):
        sys.exit("steady: a run reported incorrect output")
    if len(shares) != 1:
        sys.exit(f"steady: failed shares differ between runs: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
