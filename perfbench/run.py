#!/usr/bin/env python3
"""End-to-end benchmark of the Figure 5 loop (see README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload adapt-nasa --seed 1 --seconds 20 --trace 0

Builds the library and the perfbench program in Release under the build
directory (CARGO_TARGET_DIR, default .bench_build), writes the input graphs
there once, runs one workload and prints the program's JSON result as the
last line of standard output. Build and run diagnostics go to standard
error. Exits non-zero, without a result, if the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("adapt-nasa", "mutate-xmark")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what, timeout=None):
    """Runs a build step; its output is shown only if it fails."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(what + " timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-8000:])
        fail(what + " failed")


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", jobs], "build")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--fault", default="0", choices=("0", "1"),
                        help="answer-check self-test: the run must come out "
                             "with correct=false")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    binary = build(build_root)
    data_dir = os.path.join(build_root, "data")
    run_quiet([binary, "gen", "--data", data_dir], "input generation")

    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--data", data_dir, "--fault", args.fault]
    if args.trace == "1":
        spans_dir = os.path.join(build_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail("run exited with %d and no result" % done.returncode)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
