"""One workload in one process: set-up, timed passes, checks, tracing.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1
        [--size full|smoke] [--setup-only]

run.py starts this script once per set-up probe and once for the measured
run; it prints one JSON object as its last line of standard output.

The timed section is a fixed number of passes: T divided by the workload's
nominal pass time, and at least enough passes for MIN_CALLS top-level calls,
so the 90th percentile has ten calls beyond it.  The count depends only on
the arguments, never on how fast the code runs.  A slice of the speed.py
kernel runs before every unit, outside the timed calls, and every time of a
pass is rescaled by that pass's slices (see speed.py).  wall_s is the median
pass time, items_per_s the items over the summed pass times, and the latency
percentiles are over all calls.  Outputs are checked after each pass,
outside the timed section.

With --trace 1, untraced and traced passes alternate; per-layer metrics come
from the traced passes, and the difference between their median pass times
is the tracing overhead.  The spans of the first traced pass are written to
.perfbench_out/spans-<workload>.npz when the run ends.
"""

import time

_START = time.perf_counter()  # set-up is timed from before choiopt's import

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import choiopt  # noqa: E402
import numpy as np  # noqa: E402

import speed  # noqa: E402
import table  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_CALLS = 100
SETUP_SLICES = 15

SCALE = {"us": 1e6, "ms": 1e3}
SAMPLE_SPANS = {
    "targets": ("targets.build_r_quadrature", "targets.build_r_montecarlo"),
    "analysis": ("analysis.mc_fidelity", "analysis.state_fidelity_curve"),
}


def _check_source() -> None:
    where = Path(choiopt.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"error: choiopt imported from {where}, not from {ROOT / 'src'}")


def _git_commit() -> str:
    # The ceiling keeps git from reporting a repository that merely encloses
    # a checkout which is not one itself.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "commit": _git_commit(),
    }


def run_pass(units) -> dict:
    """Run one pass: a kernel slice, then a unit, for every unit.  Returns the
    outputs, the pass time (the units' time only), the latency of every
    top-level call and the slice times."""
    latencies, slices, outputs, wall = [], [], [], 0.0

    def timed(fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            latencies.append(time.perf_counter() - t0)

    for unit in units:
        slices.append(speed.slice_s())
        t0 = time.perf_counter()
        try:
            outputs.append(unit.run(timed))
        except Exception as exc:  # an item that raises is a failed item
            outputs.append(exc)
        wall += time.perf_counter() - t0
    return {"outputs": outputs, "wall": wall, "latencies": latencies, "factor": speed.factor(slices)}


def check_pass(units, outputs) -> tuple[int, int, list[str]]:
    attempted, failed, messages = 0, 0, []
    for unit, out in zip(units, outputs):
        attempted += unit.items
        if isinstance(out, Exception):
            found = [f"raised {type(out).__name__}: {out}"] * unit.items
        else:
            try:
                found = unit.check(out)
            except Exception as exc:  # a check that cannot read the output fails the unit
                found = [f"check raised {type(exc).__name__}: {exc}"] * unit.items
        failed += min(len(found), unit.items)
        messages += [f"{unit.label}: {m}" for m in found]
    return attempted, failed, messages


def _per_call(s: tracing.Summary, name: str, unit: str) -> float:
    return s.self_s[name] / s.calls[name] * SCALE[unit] if s.calls[name] else 0.0


def layer_metrics(work: tracing.Summary, first: Counter, ref: tracing.Summary, rows, overhead_s):
    """Per-layer metrics as {name: (value, unit)}, and the names of those
    taken from the reference section because none of their spans ran in the
    workload's traced passes."""
    metrics, from_ref = {}, []

    def put(name, unit, spans, value_of):
        # value_of(summary, exact counts of one pass) -> value
        if any(work.calls[n] for n in spans):
            metrics[name] = (value_of(work, first), unit)
        else:
            metrics[name] = (value_of(ref, ref.counts), unit)
            from_ref.append(name)

    for span, unit in tracing.TRACED.items():
        put(f"{span}.{unit}", unit, [span], lambda s, c, n=span, u=unit: _per_call(s, n, u))
    solve = ["solver.solve"]
    put("solver.iterations", "count", solve, lambda s, c: c["solver.iterations"])
    put("solver.unconverged", "count", solve, lambda s, c: c["solver.unconverged"])
    put("solver.iter_us", "us", solve, lambda s, c: s.incl_s["solver.solve"] / s.counts["solver.iterations"] * 1e6)
    for layer, spans in SAMPLE_SPANS.items():
        put(
            f"{layer}.samples_per_s", "1/s", spans,
            lambda s, c, spans=spans: sum(s.counts[f"samples:{n}"] for n in spans) / sum(s.incl_s[n] for n in spans),
        )
    put("serialize.bytes", "B", ["serialize.dump_json", "serialize.load_json"], lambda s, c: c["serialize.bytes"])
    metrics["trace.overhead_s"] = (overhead_s, "s")
    for row in rows:
        metrics[f"table.{row['name']}.iterations"] = (row["iterations"], "count")
    return metrics, from_ref


def pass_count(args, units) -> int:
    calls = sum(u.calls for u in units)
    nominal = round(args.seconds / workloads.SIZES[args.size]["pass_s"][args.workload])
    return max(nominal, math.ceil(MIN_CALLS / calls), 2 if args.trace else 1)


def measure(args, workload, units, tracer, setup_spans, workdir) -> dict:
    passes = {False: [], True: []}
    attempted = failed = 0
    failures: Counter = Counter()
    work = tracing.Summary()
    work.add(setup_spans)
    first_counts = None
    for k in range(pass_count(args, units)):
        on = args.trace == 1 and k % 2 == 1
        tracer.on = on
        record = run_pass(units)
        tracer.on = False
        record["items"] = sum(u.items for u in units)
        passes[on].append(record)
        if on:
            work.add(tracer.summarize(), scale=record["factor"])
            if first_counts is None:
                first_counts = Counter(tracer.counts)
                first_spans = tracer.arrays()
            tracer.reset()
        a, f, messages = check_pass(units, record.pop("outputs"))
        attempted, failed = attempted + a, failed + f
        failures.update(messages)
        units = workload.passes(k + 1)
    result = {
        "passes": len(passes[args.trace == 1]),
        "attempted": attempted,
        "failed": failed,
        "failures": [f"{m} (x{n})" for m, n in failures.items()],
    }
    untraced = passes[False]
    walls = [r["wall"] * r["factor"] for r in untraced]
    if args.trace == 0:
        latencies = [t * r["factor"] for r in untraced for t in r["latencies"]]
        p50, p90 = np.percentile(np.asarray(latencies) * 1e3, [50, 90])
        result.update(
            wall_s=statistics.median(walls),
            items_per_s=sum(r["items"] for r in untraced) / sum(walls),
            raw_wall_s=statistics.median(r["wall"] for r in untraced),
            factors=[r["factor"] for r in untraced],
            calls=len(latencies),
            call_ms_p50=float(p50),
            call_ms_p90=float(p90),
        )
        return result
    # Reference section: the fixed iteration table and one fixed unit per
    # public entry point, traced apart from the workload.
    tracer.on = True
    rows = table.iteration_table()
    ref_units = workloads.reference_units(args.size, workdir)
    record = run_pass(ref_units)
    tracer.on = False
    ref = tracing.Summary()
    ref.add(tracer.summarize(), scale=record["factor"])
    tracer.reset()
    a, f, messages = check_pass(ref_units, record["outputs"])
    result["attempted"] += a
    result["failed"] += f
    result["failures"] += messages
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    np.savez(out_dir / f"spans-{args.workload}.npz", names=np.asarray(tracer.names), **first_spans)
    overhead = statistics.median(r["wall"] * r["factor"] for r in passes[True]) - statistics.median(walls)
    metrics, from_ref = layer_metrics(work, first_counts, ref, rows, overhead)
    result.update(
        untraced_passes=len(untraced),
        per_layer=metrics,
        from_reference=from_ref,
        table=rows,
    )
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    _check_source()

    traced = args.trace == 1 and not args.setup_only
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        tracer.on = traced  # input building counts towards the per-layer times
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        units = workload.passes(0)
        tracer.on = False
        setup_spans = tracer.summarize()
        tracer.reset()
        workload.warmup()
        setup_s = time.perf_counter() - _START
        factor = speed.factor([speed.slice_s() for _ in range(SETUP_SLICES)])
        result = {"setup_s": setup_s * factor, "raw_setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(args, workload, units, tracer, setup_spans, workdir))
            result["env"] = environment(args.seed)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
