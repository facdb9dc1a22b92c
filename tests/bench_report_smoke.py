#!/usr/bin/env python3
"""Smoke test for tools/bench_report.py: every bench binary, run --quick.

    python3 tests/bench_report_smoke.py <repo root> <build dir>

Runs all 17 benches with --quick, so each exits 0 on a few queries, and
checks the report's keys. Then compares a second quick run of two benches
against the first, which must find both outputs byte-identical; checks
that a changed output prints its unified diff, and that an old report
without the stdout text still compares by hash; and checks that a quick
report is not compared with a full one.
"""

import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

RERUN = "fig04_bing_rtt,fig12_fanout"
BENCH_KEYS = {"wall_s", "cpu_s", "stdout_sha256", "stdout", "exit_code"}


def check_diff_output(base, first, tmp):
    """A changed output prints a unified diff; a report without text does not."""
    with open(first) as f:
        report = json.load(f)
    fig04 = report["benches"]["fig04_bing_rtt"]
    lines = fig04["stdout"].splitlines(keepends=True)
    changed = "a line only the old report has\n"
    fig04["stdout"] = "".join(lines[:1] + [changed] + lines[1:])
    fig04["stdout_sha256"] = hashlib.sha256(fig04["stdout"].encode("utf-8")).hexdigest()
    doctored = os.path.join(tmp, "doctored.json")
    with open(doctored, "w") as f:
        json.dump(report, f)
    fig04_only = base + ["--quick", "--only", "fig04_bing_rtt", "--out",
                         os.path.join(tmp, "rerun.json"), "--against", doctored]
    differs = subprocess.run(fig04_only, stdout=subprocess.PIPE, text=True)
    assert differs.returncode == 1, differs.returncode
    assert "DIFFERS" in differs.stdout, differs.stdout
    assert "--- old/fig04_bing_rtt\n+++ new/fig04_bing_rtt\n" in differs.stdout, differs.stdout
    assert "\n-" + changed in differs.stdout, differs.stdout
    # An old report carries only the hash: still DIFFERS, no diff to print.
    del fig04["stdout"]
    with open(doctored, "w") as f:
        json.dump(report, f)
    hash_only = subprocess.run(fig04_only, stdout=subprocess.PIPE, text=True)
    assert hash_only.returncode == 1, hash_only.returncode
    assert "DIFFERS" in hash_only.stdout, hash_only.stdout
    assert "+++" not in hash_only.stdout, hash_only.stdout


def check_sync_doc(root, tool, quick_report, tmp):
    """--sync-doc --check catches one edited cell of a synced block."""
    reports = glob.glob(os.path.join(root, "BENCH_*.json"))
    newest = max(reports, key=lambda path: int(re.search(r"BENCH_(\d+)", path).group(1)))
    doc = os.path.join(tmp, "EXPERIMENTS.md")
    with open(os.path.join(root, "EXPERIMENTS.md")) as f:
        text = f.read()
    sync = [sys.executable, tool, "--sync-doc", doc, "--from", newest]
    with open(doc, "w") as f:
        f.write(text)
    subprocess.run(sync + ["--check"], check=True)
    # Edit the last digit of q(prop-split) at 500 s in Figure 6's block.
    start = text.index("<!-- bench:fig06_ideal_gap -->")
    cell = re.compile(r"(\n\s+500\s+)(\d\.\d{3})")
    match = cell.search(text, start)
    assert match is not None, "no 500 s row in the fig06 block"
    edited = match.group(2)[:-1] + ("1" if match.group(2)[-1] != "1" else "2")
    with open(doc, "w") as f:
        f.write(text[:match.start(2)] + edited + text[match.end(2):])
    stale = subprocess.run(sync + ["--check"], stdout=subprocess.PIPE, text=True)
    assert stale.returncode == 1, stale.returncode
    assert "-" + match.group(1).lstrip("\n") + edited in stale.stdout, stale.stdout
    subprocess.run(sync, check=True)
    with open(doc) as f:
        assert f.read() == text, "sync did not restore the edited cell"
    refused = subprocess.run([sys.executable, tool, "--sync-doc", doc, "--from", quick_report,
                              "--check"], stderr=subprocess.PIPE, text=True)
    assert refused.returncode == 2, refused.returncode
    assert "--quick report" in refused.stderr, refused.stderr


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
            digest = hashlib.sha256(bench["stdout"].encode("utf-8")).hexdigest()
            assert digest == bench["stdout_sha256"], name
        assert set(report["total"]) == {"wall_s", "cpu_s"}, report["total"]
        rerun = base + ["--quick", "--only", RERUN]
        subprocess.run(rerun + ["--out", first], check=True)
        subprocess.run(rerun + ["--out", second, "--against", first], check=True)
        check_diff_output(base, first, tmp)
        # fig04 takes no --queries, so its quick and full outputs match; the
        # comparison must still refuse to mix the two kinds of report.
        subprocess.run(base + ["--only", "fig04_bing_rtt", "--out", full], check=True)
        mixed = subprocess.run(base + ["--quick", "--only", "fig04_bing_rtt", "--out", second,
                                       "--against", full], stderr=subprocess.PIPE, text=True)
        assert mixed.returncode == 1, mixed.returncode
        assert "quick report with a full one" in mixed.stderr, mixed.stderr
        check_sync_doc(root, tool, everything, tmp)
    print("bench_report smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
