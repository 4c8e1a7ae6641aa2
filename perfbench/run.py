#!/usr/bin/env python3
"""Builds the BlinkDB benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 15 --trace 0

The build goes to `.bench_build/` at the root of the checkout (CMake, Release).
Build output goes to standard error; the last line of standard output is the
benchmark's JSON result. The exit code is non-zero when the build fails or the
benchmark reports a wrong answer.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "blinkbench")
WORKLOADS = ("adhoc", "dashboard", "ingest")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--trace-dir", trace_dir]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
