#!/usr/bin/env python3
"""Smoke test for tools/bench_report.py on two sub-second benches.

    python3 tests/bench_report_smoke.py <repo root> <build dir>

Checks the report's keys, then compares a second run against the first,
which must find both outputs byte-identical.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCHES = "fig04_bing_rtt,fig09_estimation_error"
BENCH_KEYS = {"wall_s", "cpu_s", "stdout_sha256", "exit_code"}


def main():
    root, build_dir = sys.argv[1], sys.argv[2]
    tool = os.path.join(root, "tools", "bench_report.py")
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "first.json")
        second = os.path.join(tmp, "second.json")
        base = [sys.executable, tool, "--build-dir", build_dir, "--only", BENCHES]
        subprocess.run(base + ["--out", first], check=True)
        with open(first) as f:
            report = json.load(f)
        assert set(report) == {"build_dir", "benches", "total"}, report.keys()
        assert list(report["benches"]) == BENCHES.split(","), report["benches"].keys()
        for name, bench in report["benches"].items():
            assert set(bench) == BENCH_KEYS, (name, bench.keys())
            assert bench["exit_code"] == 0, (name, bench)
            assert len(bench["stdout_sha256"]) == 64, (name, bench)
        assert set(report["total"]) == {"wall_s", "cpu_s"}, report["total"]
        subprocess.run(base + ["--out", second, "--against", first], check=True)
    print("bench_report smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
