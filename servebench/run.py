#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout and runs it.

    python3 servebench/run.py --workload hot_doc --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --all [--seed 1 --seconds 20]
    python3 servebench/run.py --selftest

Run from the root of the checkout. The build goes to .bench_build/ (an
optimized CMake build of servebench/ on top of the library sources); it
is reused, and only refreshed, on later runs. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result.

--all runs every workload untraced and then traced, printing every
metric by name with its unit; it exits non-zero if any run did.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["hot_doc", "fleet_open", "spill_churn"]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "xcq"))):
        sys.exit("servebench: no xcq sources next to %s; run from a full "
                 "checkout" % HERE)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "servebench",
                  "servebench_selftest", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("servebench: build failed: %s" % " ".join(step))


def run(args):
    done = subprocess.run([os.path.join(BUILD, "servebench")] + args)
    return done.returncode


def main(argv):
    build()
    if argv == ["--selftest"]:
        return subprocess.run(
            [os.path.join(BUILD, "servebench_selftest")]).returncode
    if argv and argv[0] == "--all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = str(json.load(f)["run_seconds"])
        extra = argv[1:] or ["--seed", "1", "--seconds", seconds]
        worst = 0
        for trace in ("0", "1"):
            for workload in WORKLOADS:
                print("== %s trace=%s" % (workload, trace), flush=True)
                code = run(["--workload", workload, "--trace", trace] + extra)
                worst = max(worst, code)
        return worst
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
