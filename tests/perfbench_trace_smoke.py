#!/usr/bin/env python3
"""Smoke test for perfbench's replay benchmark: one traced round per workload.

    python3 tests/perfbench_trace_smoke.py <replay_bench binary>

Runs `--trace 1 --seed 1` on each workload. The last stdout line must be
JSON with "correct": true and "failed": 0, and the round-0 quality digest
must equal the pinned one: the digest covers every per-query quality, so a
change to any engine's answers shows here.
"""

import json
import subprocess
import sys

ROUND0_DIGESTS = {
    "online-interactive": "1b403ba63a72fb6a",
    "table-hotspot": "d3cf5601b449ec26",
    "loaded-facebook": "b1f1110916b5b256",
}


def check(binary, workload, digest):
    result = subprocess.run([binary, "--workload", workload, "--seed", "1", "--trace", "1"],
                            stdout=subprocess.PIPE, text=True, timeout=600)
    lines = result.stdout.splitlines()
    errors = []
    if result.returncode != 0 or not lines:
        return [f"exit code {result.returncode}"]
    report = json.loads(lines[-1])
    if report.get("correct") is not True:
        errors.append(f"correct is {report.get('correct')}")
    if report.get("failed") != 0:
        errors.append(f"failed is {report.get('failed')}")
    round0 = [line.split()[2] for line in lines if line.startswith("digest round0 ")]
    if round0 != [digest]:
        errors.append(f"digest round0 {round0}, want {digest}")
    return errors


def main():
    binary = sys.argv[1]
    failures = 0
    for workload, digest in ROUND0_DIGESTS.items():
        errors = check(binary, workload, digest)
        print(f"{workload}: {'ok' if not errors else '; '.join(errors)}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
