#!/usr/bin/env python3
"""Steadiness record for the benchmark in BENCHMARK.json.

Runs the benchmark's command several times per workload, each time with
another seed, and prints per metric the median, the interquartile range and
the max-min range (both as a share of the median), next to the metric's
bound. Also records the machine: nproc, CPU model and the share of CPU time
stolen by the hypervisor while the runs were going.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 [--workload NAME] [--json OUT]

Run it from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice.
    total = sum(fields[:8])
    return fields[7], total


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, elapsed


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return med, 0.0, 0.0
    return med, (q3 - q1) / abs(med), (max(values) - min(values)) / abs(med)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="also write the record to this file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    record = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "run_seconds": bench["run_seconds"],
        "runs": args.runs,
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "workloads": {},
    }
    print(f"nproc {record['nproc']}, {record['cpu_model']}, "
          f"{args.runs} runs of {bench['run_seconds']} s per workload")
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        steal0, total0 = cpu_times()
        failed = 0
        wall = []
        for k in range(args.runs):
            result, elapsed = run_once(bench, workload, args.first_seed + k, args.trace)
            wall.append(elapsed)
            failed += result["failed"]
            if not result["correct"]:
                print(f"  {workload} seed {args.first_seed + k}: NOT CORRECT")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        steal1, total1 = cpu_times()
        steal = (steal1 - steal0) / max(total1 - total0, 1)
        entry = {"steal_share": steal, "failed_rounds": failed,
                 "max_run_s": max(wall), "metrics": {}}
        print(f"\n{workload}: steal {100 * steal:.2f}% of CPU time, "
              f"{failed} failed rounds, slowest run {max(wall):.1f} s")
        print(f"  {'metric':<36} {'median':>14} {'IQR/med':>8} {'range/med':>9} {'bound':>6}")
        for m in metrics:
            med, iqr, rng = spread(values[m["name"]])
            bound = m.get("bound")
            entry["metrics"][m["name"]] = {
                "median": med, "iqr_share": iqr, "range_share": rng,
                "bound": bound, "values": values[m["name"]],
            }
            flag = ""
            if bound is not None and m["name"] != "setup_s" and iqr > bound / 3:
                flag = "  > bound/3"
            print(f"  {m['name']:<36} {med:>14.6g} {100 * iqr:>7.2f}% {100 * rng:>8.2f}% "
                  f"{'' if bound is None else format(bound, '.2f'):>6}{flag}")
        record["workloads"][workload] = entry
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)


if __name__ == "__main__":
    main()
