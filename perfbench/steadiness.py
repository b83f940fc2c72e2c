#!/usr/bin/env python3
"""Steadiness report: runs each workload with several seeds and prints,
for every end-to-end metric, the median and the interquartile range as a
share of the median, next to the metric's bound from BENCHMARK.json.

A metric is flagged when its spread exceeds a third of its bound (the
margin the benchmark is tuned to) or a tenth of its median (it does not
repeat within a tenth). The end-to-end figures that are measured but not
gated (UNGATED) are read off each run's report lines and shown without a
bound.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads query-wide,train-large] [--trace]

Each run is the benchmark's own command, so the first run also builds it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# End-to-end figures every run measures and prints, but that are not
# gated because they do not repeat on the reference host.
UNGATED = ("infer_p99_us", "absorb_p99_us", "infer_max_rate_qps")


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric" and parts[1] in UNGATED:
            result["metrics"].setdefault(parts[1], {"value": float(parts[2]), "unit": parts[3]})
    if not result["correct"]:
        failed = [line for line in lines if line.startswith("check") and "FAIL" in line]
        sys.stderr.write("\n".join(failed) + "\n")
    return result, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    if not args.trace:
        bounds.update({name: None for name in UNGATED})
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    flagged = []
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        incorrect = 0
        for k in range(args.runs):
            seed = args.first_seed + k
            result, wall = run_once(bench["command"], workload, seed, bench["run_seconds"], args.trace)
            walls.append(wall)
            incorrect += 0 if result["correct"] else 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s, correct={result['correct']}", file=sys.stderr)
        print(f"\n{workload}: {args.runs} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s, incorrect {incorrect}")
        print(f"  {'metric':<32} {'median':>14} {'IQR/median':>11} {'bound':>7}  flag")
        for name, vals in values.items():
            med, iqr = spread(vals)
            bound = bounds[name]
            flags = []
            if bound is not None and iqr > bound / 3:
                flags.append("over bound/3")
            if iqr > 0.1:
                flags.append("over a tenth")
            if flags:
                flagged.append(f"{workload}/{name}")
            bound_text = f"{bound:.3f}" if bound is not None else "-"
            print(f"  {name:<32} {med:>14.6g} {iqr:>11.4f} {bound_text:>7}  {', '.join(flags)}")
            if flags:
                print("      values: " + " ".join(f"{v:.6g}" for v in vals))
    print("\nflagged: " + (", ".join(flagged) if flagged else "none"))


if __name__ == "__main__":
    main()
