#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workload cloud_week [--runs 10] [--same-seed]

Runs the command BENCHMARK.json declares --runs times and prints per metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median next to the bound BENCHMARK.json sets. By default run i
gets --seed i, as in the acceptance procedure, which gives every run another
seed. With --same-seed every run is the declared command unchanged, at the
benchmark's default seed, so the spread is the host's alone. Run it from the
root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be >= 2")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(1, args.runs + 1):
        seed = [] if args.same_seed else ["--seed", str(i)]
        cmd = [*spec["command"], "--workload", args.workload, *seed, "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        label = "default seed" if args.same_seed else f"seed {i}"
        if not result["correct"]:
            print(f"run {i} ({label}): correctness checks failed", file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"run {i} ({label}): " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{m['name']:<16} median {med:.6g} {m['unit']:<8} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} (bound {m['bound']}, n={len(v)})")


if __name__ == "__main__":
    main()
