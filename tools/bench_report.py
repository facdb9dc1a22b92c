#!/usr/bin/env python3
"""Times the figure, extension and app benches and fingerprints their output.

    python3 tools/bench_report.py --build-dir build [--only fig04_bing_rtt,...]
                                  [--quick] [--out report.json] [--against old.json]
    python3 tools/bench_report.py --sync-doc EXPERIMENTS.md --from report.json [--check]

Runs each bench (build/bench/bench_<name>) with its defaults, one after
another, and records per bench: wall time, user + system CPU of the child
(the RUSAGE_CHILDREN delta), its stdout text and the SHA-256 of that text.
The JSON report goes to --out, or to stdout without it.

--quick passes --queries=4 to every bench that takes it (all but fig04 and
fig09, which run at their defaults): each bench binary runs end to end in a
few seconds in total. A quick report is marked as such, and --against
refuses to compare a quick report with a full one.

With --against, prints each bench's wall and CPU change against an earlier
report and exits 1 if any bench's stdout hash differs from it or is missing
there: a refactor that must keep the printed figures byte-identical can be
checked by running this before and after. For each bench whose hash
differs, a unified diff of the two outputs follows the table when both
reports carry the text (reports written before the text was stored compare
by hash only). Exits 1 as well if a bench fails.

With --sync-doc, runs no bench: rewrites every block of the document that
starts with a `<!-- bench:NAME -->` line and ends with `<!-- /bench -->`
into a fenced copy of bench NAME's stdout in the --from report, without
its leading and trailing blank lines. It refuses (exit 2) a --quick report,
a block whose bench the report lacks or stores without its stdout, and a
document with no block. With --check it writes nothing, and exits 1 with a
unified diff when a block differs from the report.
"""

import argparse
import difflib
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time

BENCHES = [
    "fig04_bing_rtt",
    "fig06_ideal_gap",
    "fig07_quality",
    "fig08_improvement_cdf",
    "fig09_estimation_error",
    "fig10_empirical",
    "fig11_online_learning",
    "fig12_fanout",
    "fig13_multilevel",
    "fig14_interactive",
    "fig15_cosmos",
    "fig16_sigma_sweep",
    "fig17_gaussian",
    "ablation",
    "ext_cluster",
    "ext_robustness",
    "app_quality",
]

# Benches without a --queries flag; --quick runs them at their defaults.
NO_QUERIES_FLAG = {"fig04_bing_rtt", "fig09_estimation_error"}
QUICK_QUERIES = 4

DOC_BLOCK = re.compile(r"^(<!-- bench:(\w+) -->\n).*?^(<!-- /bench -->)$", re.M | re.S)


def child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_bench(build_dir, name, quick):
    command = [os.path.join(build_dir, "bench", "bench_" + name)]
    if quick and name not in NO_QUERIES_FLAG:
        command.append(f"--queries={QUICK_QUERIES}")
    cpu_before = child_cpu_s()
    start = time.perf_counter()
    result = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    wall_s = time.perf_counter() - start
    return {
        "wall_s": round(wall_s, 3),
        "cpu_s": round(child_cpu_s() - cpu_before, 3),
        "stdout_sha256": hashlib.sha256(result.stdout).hexdigest(),
        "stdout": result.stdout.decode("utf-8", errors="replace"),
        "exit_code": result.returncode,
    }


def compare(report, old, out):
    """Prints per-bench deltas against |old| to |out|, then a unified diff of
    each differing output both reports carry; False on a hash mismatch."""
    identical = True
    diffs = []
    print(f"{'bench':<24} {'wall_s old -> new':>22} {'cpu_s old -> new':>22}  stdout", file=out)
    for name, new in report["benches"].items():
        before = old["benches"].get(name)
        if before is None:
            print(f"{name:<24} {'':>22} {'':>22}  missing from the old report", file=out)
            identical = False
            continue
        same = before["stdout_sha256"] == new["stdout_sha256"]
        identical = identical and same
        wall = f"{before['wall_s']:.2f} -> {new['wall_s']:.2f}"
        cpu = f"{before['cpu_s']:.2f} -> {new['cpu_s']:.2f}"
        print(f"{name:<24} {wall:>22} {cpu:>22}  {'identical' if same else 'DIFFERS'}",
              file=out)
        if not same and "stdout" in before and "stdout" in new:
            diffs.append(difflib.unified_diff(
                before["stdout"].splitlines(keepends=True),
                new["stdout"].splitlines(keepends=True),
                fromfile=f"old/{name}", tofile=f"new/{name}"))
    for diff in diffs:
        print(file=out)
        out.writelines(diff)
    return identical


def sync_doc(doc_path, report_path, check):
    """Rewrites (or with |check|, compares) the bench blocks of |doc_path|
    from the stdout stored in the report at |report_path|; the exit code."""
    with open(report_path) as f:
        report = json.load(f)
    if report.get("quick", False):
        print(f"bench_report: {report_path} is a --quick report", file=sys.stderr)
        return 2
    with open(doc_path) as f:
        text = f.read()
    refused = []

    def fill(block):
        name = block.group(2)
        stdout = report["benches"].get(name, {}).get("stdout")
        if stdout is None:
            refused.append(name)
            return block.group(0)
        return block.group(1) + "```\n" + stdout.strip("\n") + "\n```\n" + block.group(3)

    synced, blocks = DOC_BLOCK.subn(fill, text)
    if refused:
        print(f"bench_report: {report_path} stores no stdout for " + ", ".join(refused),
              file=sys.stderr)
        return 2
    if blocks == 0:
        print(f"bench_report: {doc_path} has no <!-- bench:NAME --> block", file=sys.stderr)
        return 2
    if synced == text:
        return 0
    if check:
        sys.stdout.writelines(difflib.unified_diff(
            text.splitlines(keepends=True), synced.splitlines(keepends=True),
            fromfile=doc_path, tofile=f"{doc_path} synced from {report_path}"))
        return 1
    with open(doc_path, "w") as f:
        f.write(synced)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", help="CMake build tree holding bench/")
    parser.add_argument("--only", help="comma-separated bench names (default: all 17)")
    parser.add_argument("--quick", action="store_true",
                        help=f"run with --queries={QUICK_QUERIES} where a bench takes it")
    parser.add_argument("--out", help="write the JSON report here (default: stdout)")
    parser.add_argument("--against", help="earlier report to compare against")
    parser.add_argument("--sync-doc", help="document whose bench blocks to sync; runs no bench")
    parser.add_argument("--from", dest="report", help="report --sync-doc copies from")
    parser.add_argument("--check", action="store_true",
                        help="with --sync-doc: write nothing, exit 1 if a block differs")
    args = parser.parse_args()
    if args.sync_doc:
        if not args.report:
            parser.error("--sync-doc needs --from")
        return sync_doc(args.sync_doc, args.report, args.check)
    if args.report or args.check:
        parser.error("--from and --check go with --sync-doc")
    if not args.build_dir:
        parser.error("--build-dir is required")

    names = BENCHES
    if args.only:
        names = args.only.split(",")
        unknown = [name for name in names if name not in BENCHES]
        if unknown:
            parser.error("unknown bench: " + ", ".join(unknown))

    report = {"build_dir": args.build_dir, "quick": args.quick, "benches": {}}
    for name in names:
        report["benches"][name] = run_bench(args.build_dir, name, args.quick)
    benches = report["benches"].values()
    report["total"] = {
        "wall_s": round(sum(b["wall_s"] for b in benches), 3),
        "cpu_s": round(sum(b["cpu_s"] for b in benches), 3),
    }

    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as out:
            out.write(text)
    else:
        sys.stdout.write(text)

    ok = True
    for name, bench in report["benches"].items():
        if bench["exit_code"] != 0:
            print(f"bench_report: {name} exited with {bench['exit_code']}", file=sys.stderr)
            ok = False
    if args.against:
        with open(args.against) as f:
            old = json.load(f)
        # Reports from before --quick existed are full runs.
        if old.get("quick", False) != args.quick:
            print("bench_report: cannot compare a quick report with a full one",
                  file=sys.stderr)
            return 1
        # With the report on stdout, the comparison goes to stderr.
        ok = compare(report, old, sys.stdout if args.out else sys.stderr) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
