#!/usr/bin/env python3
"""Tiny-size smoke run of every workload, traced and untraced.

Usage: test_smoke.py <rtccbench binary> <work dir>

Asserts that each run prints, as its last stdout line, a result whose
metrics are exactly the BENCHMARK.json metrics with their units, and
that every output check passed.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    binary, workdir = sys.argv[1], sys.argv[2]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", trace, "--workdir", workdir,
                 "--tiny"],
                capture_output=True, text=True, timeout=300)
            label = "%s trace=%s" % (workload, trace)
            lines = out.stdout.strip().splitlines()
            problems = []
            if out.returncode != 0 or not lines:
                problems.append("exit %d: %s" % (out.returncode, out.stderr))
            else:
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                if not (result.get("correct") is True
                        and result.get("failed") == 0
                        and result.get("attempted", 0) >= 1):
                    problems.append("checks did not pass")
                got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
                if got != expected[trace]:
                    problems.append("metrics %s differ from %s"
                                    % (got, expected[trace]))
            print("%-22s %s" % (label, "ok" if not problems else "FAILED"))
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
