#!/usr/bin/env python3
"""Smoke test for tools/bench_report.py: every bench binary, run --quick.

    python3 tests/bench_report_smoke.py <repo root> <build dir>

Runs all 17 benches with --quick, so each exits 0 on a few queries, and
checks the report's keys. Then compares a second quick run of two benches
against the first, which must find both outputs byte-identical, and
checks that a quick report is not compared with a full one.
"""

import json
import os
import subprocess
import sys
import tempfile

RERUN = "fig04_bing_rtt,fig12_fanout"
BENCH_KEYS = {"wall_s", "cpu_s", "stdout_sha256", "exit_code"}


def main():
    root, build_dir = sys.argv[1], sys.argv[2]
    tool = os.path.join(root, "tools", "bench_report.py")
    base = [sys.executable, tool, "--build-dir", build_dir]
    with tempfile.TemporaryDirectory() as tmp:
        everything = os.path.join(tmp, "everything.json")
        first = os.path.join(tmp, "first.json")
        second = os.path.join(tmp, "second.json")
        full = os.path.join(tmp, "full.json")
        subprocess.run(base + ["--quick", "--out", everything], check=True)
        with open(everything) as f:
            report = json.load(f)
        assert set(report) == {"build_dir", "quick", "benches", "total"}, report.keys()
        assert report["quick"] is True, report["quick"]
        assert len(report["benches"]) == 17, report["benches"].keys()
        for name, bench in report["benches"].items():
            assert set(bench) == BENCH_KEYS, (name, bench.keys())
            assert bench["exit_code"] == 0, (name, bench)
            assert len(bench["stdout_sha256"]) == 64, (name, bench)
        assert set(report["total"]) == {"wall_s", "cpu_s"}, report["total"]
        rerun = base + ["--quick", "--only", RERUN]
        subprocess.run(rerun + ["--out", first], check=True)
        subprocess.run(rerun + ["--out", second, "--against", first], check=True)
        # fig04 takes no --queries, so its quick and full outputs match; the
        # comparison must still refuse to mix the two kinds of report.
        subprocess.run(base + ["--only", "fig04_bing_rtt", "--out", full], check=True)
        mixed = subprocess.run(base + ["--quick", "--only", "fig04_bing_rtt", "--out", second,
                                       "--against", full], stderr=subprocess.PIPE, text=True)
        assert mixed.returncode == 1, mixed.returncode
        assert "quick report with a full one" in mixed.stderr, mixed.stderr
    print("bench_report smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
