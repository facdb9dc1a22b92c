#!/usr/bin/env python3
"""Builds and runs the replay benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and compiles perfbench/ (and the engine sources it
links) into .bench_build/perfbench; later runs only check that the build is
current. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the build
or the benchmark fails.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "replay_bench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "replay_bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        print("run.py: engine sources (src/) not found; run from the repository root",
              file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        result = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        print("run.py: benchmark failed", file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(result.stdout)
        print("run.py: last output line is not JSON", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
