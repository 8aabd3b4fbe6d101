#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a socvis checkout. The build goes to .bench_build
(incremental after the first run); build output goes to standard error,
so the benchmark's result stays the last line of standard output. Exits
non-zero, without a result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
BUILD_JOBS = "4"


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, check=False)
        if configure.returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    compiled = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
         "-j", BUILD_JOBS],
        stdout=sys.stderr, check=False)
    return compiled.returncode == 0


def main():
    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                          check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
