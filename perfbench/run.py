#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics as one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload cone-mem --seed 1 --seconds 30 --trace 0

Every call configures and builds the binary (perfbench/CMakeLists.txt,
Release) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
after the first call both steps are incremental. Build output goes to stderr.

Workload definitions (generator, algorithm, backend, M, B) live in
perfbench/workloads.json; metric names and units in BENCHMARK.json. With
--trace 0 the result carries every end_to_end metric, with --trace 1 every
per_layer metric. The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

and the line before it is the binary's context (host, build provenance,
workload sizes, checks). Exit status is non-zero, with no result line, when
the source tree is missing or the build or the binary fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The binary must finish inside the benchmark's 180 s budget; the measured
# window is --seconds, the rest is graph generation, set-up and checks.
BINARY_SLACK_S = 120
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def ensure_binary(bdir):
    """Configures and builds the binary (both incremental); returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(bdir), "--target", "trienum_perfbench",
              "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")
    binary = bdir / "trienum_perfbench"
    if not binary.exists():
        fail(f"binary not found at {binary}")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no trienum source tree at {ROOT}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        table = json.loads((HERE / "workloads.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read benchmark definition: {e}")
    wl = table["workloads"].get(args.workload)
    if wl is None:
        fail(f"unknown workload '{args.workload}' "
             f"(known: {', '.join(table['workloads'])})")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    bdir = build_dir()
    binary = ensure_binary(bdir)
    cmd = [str(binary),
           f"--workload={args.workload}",
           f"--algo={wl['algo']}",
           f"--backend={wl['backend']}",
           f"--graph={wl['graph']}",
           f"--memory={wl['memory_words']}",
           f"--block={wl['block_words']}",
           f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           f"--trace={args.trace}",
           f"--workdir={bdir / 'work'}"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, cwd=ROOT, check=False,
                              timeout=args.seconds + BINARY_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("binary timed out")
    if done.returncode != 0:
        fail(f"binary exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("binary printed no result")
    context = json.loads(lines[-2])
    raw = json.loads(lines[-1])

    got = set(raw["metrics"])
    names = [m["name"] for m in wanted]
    if got != set(names):
        fail(f"binary metrics {sorted(got)} do not match BENCHMARK.json {names}")

    w = context["workload"]
    if wl["max_device_words"] is not None and (
            w["device_peak_words"] > wl["max_device_words"]):
        print(f"perfbench: warning: {args.workload} device peak "
              f"{w['device_peak_words']} words exceeds the footprint rule "
              f"({wl['max_device_words']})", file=sys.stderr)
    if w["num_edges"] < 4 * w["memory_words"]:
        print(f"perfbench: warning: {args.workload} has E={w['num_edges']} "
              f"< 4 M={4 * w['memory_words']}", file=sys.stderr)

    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(context))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
