#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout's sources, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload census|lookups|capture \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench (Release, CMake) and is
incremental, so only the first run of a checkout compiles. Build output
goes to stderr; stdout carries only the benchmark's report, whose last line
is the JSON result. Exits non-zero without a result when the sources are
missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cmake(args):
    result = subprocess.run(["cmake", *args], stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"cmake {' '.join(args)} failed with exit code {result.returncode}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no CloudScope sources at {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    # Configure until a generate step has succeeded, so an interrupted first
    # configure does not leave a cache without build files behind.
    if not any(os.path.isfile(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmake(["-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
               *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    cmake(["--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])


def main():
    build()
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, [BINARY, *sys.argv[1:], "--scratch", work_dir])


if __name__ == "__main__":
    main()
