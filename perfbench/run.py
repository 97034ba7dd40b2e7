#!/usr/bin/env python3
"""Build and run the rgpdOS wall-clock benchmark.

    python3 perfbench/run.py --workload controller --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (with ../src) into .bench_build/perfbench; later runs only
re-check the build. Build output goes to stderr, so the last line on
stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
