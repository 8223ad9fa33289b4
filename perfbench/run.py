#!/usr/bin/env python3
"""End-to-end and per-layer benchmark: camera capture -> edge fleet -> WAN
uplink -> datacenter clip.

    python3 perfbench/run.py --workload mixed_wall --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the benchmark package
(perfbench/CMakeLists.txt: the ff library from src/ plus the benchmark
program) into $CARGO_TARGET_DIR, or .bench_build when that is unset.

The program prints a stamp line (nproc, ISA, commit, seed, thread-pool size,
run length), a human-readable report and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones and writes
a Chrome trace-event file (open it in Perfetto) under <build dir>/traces/.
The exit status is non-zero when the output check fails or the metrics do
not match BENCHMARK.json.

--smoke shrinks the geometry for a quick functional check (see smoke_test.py).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        return None
    exe = os.path.join(build_dir, "ff_perfbench")
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(os.cpu_count() or 1)
    res = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "ff_perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode or not os.path.isfile(exe):
        return None
    return exe


def commit():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("FF_COMMIT", "unknown")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    exe = build(build_dir)
    if exe is None:
        log("perfbench: build failed")
        return 1

    work_dir = os.path.join(build_dir, "run")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", commit()]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, "trace-%s.json" % args.workload)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        log("perfbench: no result line (exit %d)" % proc.returncode)
        return proc.returncode or 1
    print("\n".join(lines[:-1]), flush=True)

    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s, "
            "units %s" % (missing, extra,
                          sorted(k for k in want if k in got and got[k] != want[k])))
        return 1
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
