#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics as one JSON file per change.

Runs `perfbench/run.py --workload W --trace 0` (bench_pairs.run) RUNS = 3
times for every workload that BENCHMARK.json lists, at seeds S, S+1 and S+2,
and writes BENCH_<pr>.json at the repository root (or --out):

    python3 scripts/bench_record.py --pr N [--seed S] [--seconds T] [--size full|smoke]

The file holds "pr", "commit" (`git describe --always --dirty`), "seed" (S),
"seconds", "size" and "workloads", which maps each workload to

    {"correct": AND of the runs', "attempted": sum, "failed": sum,
     "metrics": {name: {"value": median of the runs, "unit": ..., "runs": [3 values, seed order]}}}

so one slow run cannot set a recorded value.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import run

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
RUNS = 3


def commit() -> str:
    # The ceiling keeps git from describing a repository that merely encloses this checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    cmd = ["git", "describe", "--always", "--dirty"]
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def median_of_runs(results: list) -> dict:
    """One workload's entry from its runs' result objects (see the module docstring)."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {**metric, "value": statistics.median(values), "runs": values}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="change number, names BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, default=0, help="seed of the first run; run i uses seed + i")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--out", type=Path, help="output file (default: BENCH_<pr>.json at the root)")
    args = ap.parse_args(argv)
    record = {"pr": args.pr, "commit": commit(), "seed": args.seed, "seconds": args.seconds,
              "size": args.size, "workloads": {}}
    for workload in WORKLOADS:  # a failed run exits 1 with one error line
        results = [run(ROOT, workload, args.seed + i, args.seconds, args.size) for i in range(RUNS)]
        record["workloads"][workload] = median_of_runs(results)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
