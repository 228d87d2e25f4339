#!/usr/bin/env python3
"""Builds and runs the wisp SQ-space benchmark.

    python3 perfbench/run.py --workload startup|exec --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
wisp libraries and the perfbench binary (CMake, RelWithDebInfo) in the
directory named by CARGO_TARGET_DIR, default .bench_build; later runs only
rebuild what changed. The binary's result line is filtered to the metrics
BENCHMARK.json lists for the run's mode (end_to_end untraced, per_layer
traced) and printed as the last line of standard output. A traced run
keeps its spans and per-item rows under <build dir>/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds incrementally. Build output goes to
    stderr so that standard output carries only the result."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(cfg, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", str(os.cpu_count() or 2)]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["startup", "exec"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    exe = build(build_dir)

    work = tempfile.mkdtemp(prefix="work-", dir=build_dir)
    try:
        # Relative, so that serve job lines never contain a space.
        rel = os.path.relpath(work, ROOT)
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", rel]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"no result within {RUN_TIMEOUT_S} s")
        if proc.returncode != 0:
            fail(f"perfbench exited with code {proc.returncode}")
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            for name in os.listdir(work):
                if name.endswith(".jsonl"):
                    shutil.move(os.path.join(work, name),
                                os.path.join(traces, name))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result line")
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing or in another unit")
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
