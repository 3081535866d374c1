#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark workload.

    python3 perfbench/run.py --workload read-fp32 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (which pulls in the library through the repository's own
CMakeLists.txt) into .bench_build/perfbench; later calls rebuild
incrementally. --seconds defaults to BENCHMARK.json's run_seconds. The
last line of standard output is the JSON result; it is withheld when the
run fails or its metric names differ from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("read-fp32", "read-sq8", "read-pq", "serve-mixed")
# One measured run must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "core", "collection.h")):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("no program sources at %s (missing %s)" % (ROOT, required))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def expected_metrics(trace):
    spec = load_spec()
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    binary = os.path.join(BUILD, "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(BUILD, "work")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode not in (0, 1):
        fail("%s exited with %d" % (args.workload, done.returncode),
             done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not a JSON result")
    names = sorted(result.get("metrics", {}))
    want = sorted(expected_metrics(args.trace == 1))
    if names != want:
        fail("metrics %s differ from BENCHMARK.json %s" % (names, want))
    print(lines[-1])
    sys.stdout.flush()
    # Exit code 1 from the benchmark: an answer was invalid.
    sys.exit(done.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="timed phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode)
    run(args)


if __name__ == "__main__":
    main()
