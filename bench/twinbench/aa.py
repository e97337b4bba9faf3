#!/usr/bin/env python3
"""A/A check of the benchmark: the same code measured in several sets.

Runs every workload `--sets` x `--runs` times through the command in
BENCHMARK.json (run `r` of every set uses seed `--seed + r`, and the order
of the workloads alternates between runs), then prints per workload and
end-to-end metric each set's median and quartiles, the spread (distance
between the quartiles over the median), the largest worsening of the median
between two sets, and the bound.  Exits 1 if a spread (other than that of
setup_s) or a set-to-set worsening exceeds the metric's bound, or if any
operation failed.

    python3 bench/twinbench/aa.py --sets 2 --runs 10     # what the driver checks
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - started
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--seed", type=int, default=42, help="seed of the first run of every set")
    parser.add_argument("--workloads", default="", help="comma-separated subset")
    parser.add_argument("--binary", default="", help="run this built binary instead of the BENCHMARK.json command")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    command = [args.binary] if args.binary else bench["command"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = bench["end_to_end"]

    # values[workload][metric] = one list per set
    values = {w: {m["name"]: [[] for _ in range(args.sets)] for m in metrics} for w in workloads}
    failed_ops = 0
    walls = []
    for s in range(args.sets):
        for r in range(args.runs):
            order = workloads if (s + r) % 2 == 0 else list(reversed(workloads))
            for workload in order:
                result = run_once(command, workload, args.seed + r, bench["run_seconds"], 0)
                failed_ops += result["failed"] + (0 if result["correct"] else 1)
                walls.append(result["wall_s"])
                for m in metrics:
                    values[workload][m["name"]][s].append(result["metrics"][m["name"]]["value"])
                print(f"set {s} run {r} {workload}: {result['wall_s']:.1f} s, failed {result['failed']}", file=sys.stderr)

    bad = []
    print(f"{'workload':<20} {'metric':<30} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'A/A':>8} {'bound':>6}")
    for workload in workloads:
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            medians = []
            for s in range(args.sets):
                q1, q2, q3 = quartiles(values[workload][name][s])
                spread = (q3 - q1) / q2
                medians.append(q2)
                # Worsening of this set's median against the best earlier one.
                if s == 0:
                    worse = 0.0
                else:
                    first = medians[0]
                    worse = (q2 - first) / first if lower else (first - q2) / first
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag = " SPREAD"
                    bad.append((workload, name, "spread", spread))
                if worse > bound:
                    flag += " A/A"
                    bad.append((workload, name, "A/A", worse))
                print(
                    f"{workload:<20} {name:<30} {s:>3} {q1:>12.5g} {q2:>12.5g} {q3:>12.5g} "
                    f"{spread * 100:>7.2f}% {worse * 100:>7.2f}% {bound * 100:>5.1f}%{flag}"
                )
    print(f"runs: {len(walls)}, wall-clock per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    print(f"failed operations: {failed_ops}")
    for workload, name, kind, share in bad:
        print(f"OUT OF BOUND: {workload} {name}: {kind} {share * 100:.2f} %")
    sys.exit(1 if bad or failed_ops else 0)


if __name__ == "__main__":
    main()
