#!/usr/bin/env python3
"""Runs each workload ten times and reports how steady every metric is.

    python3 e2ebench/steadiness.py

Run it from the root of a socvis checkout. It runs every workload of
BENCHMARK.json with seeds 1 to 10, untraced, for run_seconds each. For
every metric it prints the median, the first and third quartiles
(Python's statistics.quantiles, n=4) and the spread, (Q3 - Q1) / median.
For end-to-end metrics it also prints the bound from BENCHMARK.json and
marks a spread of at most a third of the bound "ok", at most the bound
"near", and above it "over". It also checks that the share of failed
operations is the same in every run of a workload. The raw results go
to .bench_out/steadiness.json.
"""

import json
from fractions import Fraction
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = range(1, 11)
OUT = os.path.join(ROOT, ".bench_out", "steadiness.json")


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"# {workload} seed {seed} done", file=sys.stderr)
        results[workload] = runs

        print(f"\n{workload}: {len(runs)} runs, seeds {SEEDS[0]}..{SEEDS[-1]}")
        shares = sorted({Fraction(r["failed"], r["attempted"]) for r in runs})
        print(f"  failed share: {', '.join(str(s) for s in shares)}"
              f" ({'the same in every run' if len(shares) == 1 else 'DIFFERS'})")
        print(f"  correct in every run: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("ok" if spread <= bound / 3 else
                           "near" if spread <= bound else "over")
            print(f"  {name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {'' if bound is None else bound:>6}  "
                  f"{verdict}")

    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nraw results: {OUT}")


if __name__ == "__main__":
    main()
