#!/usr/bin/env python3
"""Runs one workload of the rwdt benchmark and prints its metrics.

    python3 perfbench/run.py --workload ingest-dup --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
library, rwdt_serve and the driver (perfbench/*.cc) into .bench_build;
later runs rebuild incrementally. Build and driver diagnostics go to
stderr. Standard output starts with the provenance (git revision, build
type, compiler, nproc) and ends with one JSON line: correct, attempted,
failed, and the metrics BENCHMARK.json lists for the mode (end_to_end
with --trace 0, per_layer with --trace 1). A per-layer metric of a layer
the workload never calls reads 0.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def revision():
    """HEAD of the checkout, with -dirty when tracked files differ from it.

    Read on every run: the revision the library's build records is the one
    of its configure step, which a reused .bench_build does not repeat.
    "unknown" outside a git work tree.
    """
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args), text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if (top.returncode != 0 or os.path.realpath(top.stdout.strip())
                != os.path.realpath(ROOT)):
            return "unknown"
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return sha + ("-dirty" if dirty.strip() else "")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build()
    print("provenance: git=" + revision())

    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(BUILD, "rwdt_perfbench"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds,
               "--trace=%d" % args.trace,
               "--serve-bin=" + os.path.join(BUILD, "rwdt", "tools", "rwdt_serve"),
               "--work-dir=" + work]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("driver exited with %d" % done.returncode)
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    reported = result["metrics"]
    metrics = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        got = reported.pop(name, None)
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s missing" % name)
            got = {"value": 0, "unit": unit}  # layer not called here
        if got["unit"] != unit:
            fail("metric %s has unit %s, not %s" % (name, got["unit"], unit))
        metrics[name] = got
    if reported:
        fail("metrics not in BENCHMARK.json: " + ", ".join(sorted(reported)))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
