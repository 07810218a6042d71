"""choiopt benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds T]      # every workload, both runs

Workloads (see workloads.py): shifter-scan, wide-solve, sampled-pipeline.
Each is a closed loop: one caller in one process makes the next call only
after the previous one returned.  BLAS and OpenMP threads are capped at the
processor count.

With --trace 0 the end-to-end metrics are printed: setup_s (median over
several fresh interpreters of importing choiopt, building the inputs from the
seed and one warm-up call), wall_s (median time of one pass), items_per_s,
call_ms_p50 and call_ms_p90 (latency of each top-level public call),
fail_frac and peak_rss_mb.  Every time is in seconds at a fixed reference
speed of the machine, measured by a kernel interleaved with the calls (see
speed.py); the measured wall times are printed beside them.  --seconds sets
the number of passes (see worker.py), the same on every commit.  With
--trace 1 a separate, traced run prints the per-layer metrics, the tracing
overhead and the fixed iteration table.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {"value",
"unit"}}}; fail_frac is failed / attempted and is printed above it.

The package is imported from src/ next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("shifter-scan", "wide-solve", "sampled-pipeline")
SETUP_PROBES = {"full": 9, "smoke": 1}
TIME_LIMIT_S = 170.0
RUN_SECONDS = 20.0  # BENCHMARK.json run_seconds
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = 0
        env[var] = str(current if 0 < current < nproc else nproc)
    return env


def run_worker(args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the run finished")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker exceeded the time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_env(env: dict) -> None:
    caps = " ".join(f"{k}={v}" for k, v in env["thread_caps"].items())
    print(
        f"env: python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
        f"nproc {env['nproc']}  {caps}  commit {env['commit']}  seed {env['seed']}"
    )
    print(f"     blas config: {env['blas_config']}")


def _print_failures(res: dict) -> None:
    for message in res["failures"]:
        print(f"FAIL {message}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':<34}{frac:>14.6g} 1     ({res['failed']}/{res['attempted']} items)")


def measure_end_to_end(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    probes = [run_worker(args, deadline, "--setup-only") for _ in range(SETUP_PROBES[args.size])]
    res = run_worker(args, deadline)
    probes.append(res)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": res["wall_s"],
        "items_per_s": res["items_per_s"],
        "call_ms_p50": res["call_ms_p50"],
        "call_ms_p90": res["call_ms_p90"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    factors = res["factors"]
    notes = {
        "setup_s": (
            f"median of {len(probes)} fresh interpreters "
            f"(measured {statistics.median(p['raw_setup_s'] for p in probes):.4g} s)"
        ),
        "wall_s": (
            f"median of {res['passes']} passes (measured {res['raw_wall_s']:.4g} s; "
            f"speed factors {min(factors):.3f}-{max(factors):.3f})"
        ),
        "call_ms_p50": f"n={res['calls']} calls",
        "call_ms_p90": f"n={res['calls']} calls",
    }
    _print_env(res["env"])
    print(f"{args.workload}  seed={args.seed}  trace=0  seconds={args.seconds}  size={args.size}")
    for name, unit in END_TO_END:
        print(f"  {name:<34}{values[name]:>14.6g} {unit:<5} {notes.get(name, '')}")
    _print_failures(res)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def measure_per_layer(args) -> dict:
    res = run_worker(args, time.monotonic() + TIME_LIMIT_S)
    _print_env(res["env"])
    print(
        f"{args.workload}  seed={args.seed}  trace=1  seconds={args.seconds}  size={args.size}  "
        f"traced passes={res['passes']}  untraced passes={res['untraced_passes']}"
    )
    for name, (value, unit) in res["per_layer"].items():
        ref = "  (reference section: not called by this workload)" if name in res["from_reference"] else ""
        print(f"  {name:<34}{value:>14.6g} {unit:<5}{ref}")
    print("  iteration table (flops and bytes per iteration are computed from the dimensions):")
    print(f"    {'row':<22}{'init':<10}{'iters':>7} {'conv':<6}{'true error':>12}{'flops/iter':>12}{'bytes/iter':>12}")
    for row in res["table"]:
        flag = "  > 1e-9 while converged" if row["converged"] and row["true_error"] > 1e-9 else ""
        print(
            f"    {row['name']:<22}{row['init']:<10}{row['iterations']:>7} {str(row['converged']):<6}"
            f"{row['true_error']:>12.3e}{row['computed_flops_per_iter']:>12}"
            f"{row['computed_bytes_per_iter']:>12}{flag}"
        )
    _print_failures(res)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in res["per_layer"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all, both runs)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SETUP_PROBES), default="full")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "choiopt" / "__init__.py").is_file():
        print(f"error: no choiopt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = (
        [(args.workload, args.trace)]
        if args.workload
        else [(w, t) for w in WORKLOADS for t in (0, 1)]
    )
    try:
        for workload, trace in runs:
            one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            result = measure_per_layer(one) if trace else measure_end_to_end(one)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
