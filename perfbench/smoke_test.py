#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny geometry for a few
seconds, untraced and traced.

    python3 perfbench/smoke_test.py

Checks that each run passes its output check, emits every metric named in
BENCHMARK.json with its unit, and that nothing fails on the lossless
workloads (failed == 0, so failed_ratio == 0).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOSSLESS = {"mixed_wall", "overlap_int8"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().split("\n")
    try:
        return proc.returncode, json.loads(lines[-1]), proc.stdout + proc.stderr
    except ValueError:
        return proc.returncode, None, proc.stdout + proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            before = len(errors)
            code, result, log = run(w, trace)
            tag = "%s --trace %d" % (w, trace)
            if result is None or code != 0:
                errors.append("%s: exit %d, no result\n%s" % (tag, code, log[-2000:]))
                continue
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                errors.append("%s: metrics/units differ from BENCHMARK.json" % tag)
            if not result["correct"]:
                errors.append("%s: output check failed" % tag)
            if result["attempted"] < 1:
                errors.append("%s: nothing attempted" % tag)
            if w in LOSSLESS and result["failed"] != 0:
                errors.append("%s: %d failures on a lossless link" % (tag, result["failed"]))
            if trace and w in LOSSLESS and result["metrics"]["failed_ratio"]["value"] != 0:
                errors.append("%s: failed_ratio is not 0" % tag)
            print("ok  " if len(errors) == before else "FAIL", tag, flush=True)
    for e in errors:
        print("FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
