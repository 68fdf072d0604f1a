#!/usr/bin/env python3
"""Runs two sets of ten benchmark runs of one build and reports their spread.

    python3 servebench/spread.py                      # every BENCHMARK.json workload
    python3 servebench/spread.py --workloads hot_doc --first-seed 2000

Run from the root of the checkout. Every run gets its own seed and lasts
BENCHMARK.json's run_seconds. For each set, workload and end-to-end
metric of BENCHMARK.json it prints the median, the quartiles
(statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median against
the metric's bound, and how far the second set's median moved from the
first. Exits 1 if a median moved by more than its bound in either
direction, a spread other than setup_s's exceeds its bound, or a run
failed. setup_s's spread is printed but not held to its bound: a set-up
lasts 0.1-1.5 s, so one VM stall in it moves that run's median, and its
spread went past 0.25 in sets whose other spreads stayed well inside
theirs. The raw values go to .bench_build/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10
OUT = os.path.join(ROOT, ".bench_build", "spread.json")


def one_run(workload, seed, seconds):
    """The run's end-to-end metrics, or None and why it failed."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode != 0 or result is None or not result["correct"]:
        why = [l.strip() for l in lines if "error" in l or "late" in l]
        why += done.stderr.strip().splitlines()[-1:]
        return None, "; ".join(why) or "exit %d" % done.returncode
    return {name: m["value"] for name, m in result["metrics"].items()}, ""


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="",
                        help="comma-separated (default: BENCHMARK.json's)")
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    ok = True
    seed = args.first_seed
    results = {}  # workload -> list of sets -> list of metric dicts
    for workload in workloads:
        results[workload] = []
        for s in range(SETS):
            runs = []
            for _ in range(RUNS):
                values, why = one_run(workload, seed, seconds)
                print("  %s set %d seed %d: %s" % (
                    workload, s + 1, seed,
                    "FAILED: " + why if values is None else " ".join(
                        "%s=%.4g" % kv for kv in values.items())),
                    flush=True)
                seed += 1
                if values is None:
                    ok = False
                else:
                    runs.append(values)
            results[workload].append(runs)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(results, f, indent=1)

    print("\n%-12s %-16s %3s %12s %12s %12s %7s %6s %s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread",
        "bound", "verdict"))
    for workload, sets in results.items():
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r[name] for r in runs if name in r]
                if len(values) < 2:
                    print("%-12s %-16s %3d  too few runs" % (workload, name,
                                                           s + 1))
                    ok = False
                    continue
                median, q1, q3, spread = describe(values)
                medians.append(median)
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else
                           "wide (not held)" if name == "setup_s" else
                           "TOO WIDE")
                if verdict == "TOO WIDE":
                    ok = False
                print("%-12s %-16s %3d %12.5g %12.5g %12.5g %7.4f %6.3f %s" % (
                    workload, name, s + 1, median, q1, q3, spread, bound,
                    verdict))
            if len(medians) != SETS or not medians[0]:
                ok = False
                continue
            moved = (medians[1] - medians[0]) / medians[0]
            verdict = "ok" if abs(moved) <= bound else "MOVED TOO FAR"
            if abs(moved) > bound:
                ok = False
            print("%-12s %-16s     second median %+.4f of the first "
                  "(bound %.3f): %s" % (workload, name, moved, bound, verdict))
    print("\nraw values: %s" % OUT)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
