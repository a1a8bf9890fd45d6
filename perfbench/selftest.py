#!/usr/bin/env python3
"""Self-test of the benchmark: schema, correctness, determinism, sizing rules.

Usage, from the repository root:

    python3 perfbench/selftest.py [--seconds 2] [--workload NAME ...]

For every workload in perfbench/workloads.json it runs perfbench/run.py in
both trace modes, twice at seed 1 and once at the held-out seed, and checks:

  - every BENCHMARK.json metric of the mode is present with its unit;
  - correct is true and correct_frac == 1;
  - the deterministic counts repeat exactly for one seed, and
    block_ios_per_query, em.block_reads and core.work (plus
    storage.read_calls on the file backend) change for another seed.
    device_peak_mb is block-granular and may coincide across seeds, so it is
    only required to repeat;
  - memory-backend workloads keep device_peak_words within the footprint
    rule, and every workload keeps E >= 4 M (the sizing rules in
    workloads.json).

Last, it copies BENCHMARK.json and perfbench/ alone into a directory under
the build tree and checks that run.py there exits non-zero without printing
a result. Exit status is 0 iff every check passes.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Counts the program derives from the graph alone: identical for one seed.
DETERMINISTIC = {
    0: ["block_ios_per_query", "device_peak_mb"],
    1: ["em.block_reads", "em.block_writes", "em.cache_hits", "core.work",
        "storage.read_calls", "storage.write_calls", "storage.mb_read",
        "storage.mb_written"],
}
# Counts that must differ between two seeds' graphs.
SEED_SENSITIVE = {0: ["block_ios_per_query"], 1: ["em.block_reads", "core.work"]}
SEED_SENSITIVE_FILE = {0: [], 1: ["storage.read_calls"]}

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run(workload, seed, seconds, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=300, check=False)


def parse(done, label):
    lines = done.stdout.strip().splitlines()
    check(done.returncode == 0 and len(lines) >= 2, f"{label}: run.py succeeds")
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr[-2000:])
        return None, None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = json.loads((HERE / "workloads.json").read_text())
    held_out = table["held_out_seed"]
    names = args.workload or list(table["workloads"])

    for name in names:
        wl = table["workloads"][name]
        for trace in (0, 1):
            wanted = spec["per_layer" if trace else "end_to_end"]
            runs = {}
            for label, seed in (("a", 1), ("b", 1), ("held-out", held_out)):
                tag = f"{name} trace={trace} seed={seed} ({label})"
                context, result = parse(run(name, seed, args.seconds, trace), tag)
                if result is None:
                    continue
                runs[label] = result["metrics"]
                check(result["correct"] and result["failed"] == 0
                      and result["attempted"] >= 1, f"{tag}: correct")
                metrics = result["metrics"]
                check(all(m["name"] in metrics and
                          metrics[m["name"]]["unit"] == m["unit"] for m in wanted)
                      and len(metrics) == len(wanted),
                      f"{tag}: every metric present with its unit")
                if trace == 0:
                    check(metrics["correct_frac"]["value"] == 1,
                          f"{tag}: correct_frac == 1")
                w = context["workload"]
                check(w["num_edges"] >= 4 * w["memory_words"],
                      f"{tag}: E={w['num_edges']} >= 4 M={4 * w['memory_words']}")
                if wl["max_device_words"] is not None:
                    check(w["device_peak_words"] <= wl["max_device_words"],
                          f"{tag}: device peak {w['device_peak_words']} words "
                          f"<= {wl['max_device_words']}")
            if len(runs) != 3:
                continue
            for key in DETERMINISTIC[trace]:
                check(runs["a"][key]["value"] == runs["b"][key]["value"],
                      f"{name} trace={trace}: {key} repeats for one seed")
            sensitive = SEED_SENSITIVE[trace] + (
                SEED_SENSITIVE_FILE[trace] if wl["backend"] == "file" else [])
            for key in sensitive:
                check(runs["a"][key]["value"] != runs["held-out"][key]["value"],
                      f"{name} trace={trace}: {key} changes with the seed")

    # Without the source tree the benchmark must refuse, not report.
    bare = ROOT / ".bench_build" / "perfbench-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run(names[0], 1, 1, 0, cwd=bare)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          "without the source tree run.py exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
