"""The three benchmark workloads: inputs from a seed, the calls, the checks.

A workload is a deterministic stream of passes drawn from its seed.  A pass
is a list of units; a unit is one or more top-level public calls into
choiopt, with the number of items it does (scan rows, solves or pipeline
tasks) and a check that compares its outputs with an independent reference.
Pass k draws its inputs from (seed, k), so the same seed gives the same
inputs, and a longer run (more passes) sees more distinct inputs.  The
timed loop lives in worker.py; this module never reads the clock.

Seeded values are stratified within a pass (one jittered draw per
equal-width stratum), so every pass covers the same ranges and passes cost
about the same.

The shifter angles stay out of two regions where the solver misreports
convergence, so that the gates below measure regressions rather than these
known defects (the stopping rule is not a certificate):

- |alpha - ALPHA_THRESHOLD| < 2e-3: below about 4e-4 it stops with
  converged=True more than 1e-9 (up to 3.6e-9) from the closed-form optimum;
  the rest of the window costs 1800 to 8500 iterations a row, so a single
  row there would swing the time of a whole pass;
- alpha > 3.0: iteration counts climb steeply (249 at 3.0, 2128 at 3.1,
  6926 at 3.12); from about 3.122 it stops unconverged at max_iters, and at
  pi - 1e-3 it stops after 8 iterations with converged=True, 6e-7 off.

The iteration table in table.py keeps one angle from each region, so the
defects stay visible in every traced run.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from choiopt import analysis, cli, models, serialize, solver, targets

F_TOL = 1e-9  # solved fidelity against the closed-form optimum
R_QUAD_TOL = 1e-12  # quadrature target against the closed form, per entry
MC_DELTA = 1e-9  # failure probability allowed to the Monte-Carlo entry bound
THRESHOLD_GAP = 2e-3
CLUSTER_HALF_WIDTH = 0.02
UNIFORM_MAX_ALPHA = 3.0

SIZES = {
    # shifter-scan: calls per pass, uniform rows per call, calls with a cluster row
    # wide-solve: copy range N for unot and cloner, solves per entangler
    # sampled-pipeline: tasks per model kind, samples M, curve steps
    # pass_s: nominal seconds of one pass, which fixes the pass count of a run
    "full": {
        "scan_calls": 20, "scan_uniform": 4, "scan_cluster": 20,
        "solve_copies": (10, 30), "solve_entanglers": 16,
        "pipe_tasks": 8, "pipe_samples": 20000, "pipe_curve_steps": 100,
        "pass_s": {"shifter-scan": 1.9, "wide-solve": 1.9, "sampled-pipeline": 1.7},
    },
    "smoke": {
        "scan_calls": 20, "scan_uniform": 1, "scan_cluster": 2,
        "solve_copies": (4, 8), "solve_entanglers": 4,
        "pipe_tasks": 1, "pipe_samples": 2000, "pipe_curve_steps": 20,
        "pass_s": {"shifter-scan": 0.1, "wide-solve": 0.1, "sampled-pipeline": 0.1},
    },
}


@dataclass
class Unit:
    """One unit of a pass.

    run(timed) makes the unit's `calls` top-level calls through
    timed(fn, *args) and returns what check needs; check(output) returns one
    message per failed item (an empty list when every item passed).
    """

    label: str
    items: int
    run: Callable
    check: Callable
    calls: int = 1


@dataclass
class Workload:
    """passes(k) builds the units of pass k from (seed, k); warmup() is the
    untimed call made once during set-up, after pass 0 is built."""

    passes: Callable[[int], list[Unit]]
    warmup: Callable[[], object]


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw in each of n equal strata of [lo, hi)."""
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n


def _seed_values(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=n)]


def _shuffled(rng: np.random.Generator, units: list[Unit]) -> list[Unit]:
    return [units[i] for i in rng.permutation(len(units))]


# ---------------------------------------------------------------- shifter-scan


def _uniform_angles(rng: np.random.Generator, n_calls: int, per_call: int) -> np.ndarray:
    """(n_calls, per_call) angles, uniform on [0, UNIFORM_MAX_ALPHA] minus the
    cluster region; call i takes one angle from each of per_call equal
    blocks of strata, so every call spans the whole range."""
    lo, hi = models.ALPHA_THRESHOLD - CLUSTER_HALF_WIDTH, models.ALPHA_THRESHOLD + CLUSTER_HALF_WIDTH
    x = stratified(rng, n_calls * per_call, 0.0, UNIFORM_MAX_ALPHA - (hi - lo))
    angles = np.where(x < lo, x, x + (hi - lo)).reshape(per_call, n_calls)
    return np.stack([rng.permutation(block) for block in angles], axis=1)


def _cluster_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    """n angles, half on each side of the threshold, with offsets stratified
    in [THRESHOLD_GAP, CLUSTER_HALF_WIDTH]; in random order."""
    right = n // 2
    left = n - right
    angles = np.concatenate(
        [
            models.ALPHA_THRESHOLD - stratified(rng, left, THRESHOLD_GAP, CLUSTER_HALF_WIDTH),
            models.ALPHA_THRESHOLD + stratified(rng, right, THRESHOLD_GAP, CLUSTER_HALF_WIDTH),
        ]
    )
    return rng.permutation(angles)


def _check_scan(alphas: list[float], rows) -> list[str]:
    if [row.alpha for row in rows] != sorted(alphas):
        return [f"rows came back for {[row.alpha for row in rows]}"] * len(alphas)
    failures = []
    for row in rows:
        ref = models.shifter_closed_forms(row.alpha).fidelity
        err = abs(row.F_solver - ref)
        if row.error is not None or not row.converged or not err <= F_TOL:
            failures.append(
                f"alpha={row.alpha!r}: F={row.F_solver!r} closed form={ref!r} "
                f"|err|={err:.3e} converged={row.converged} error={row.error}"
            )
    return failures


def _scan_unit(alphas: list[float]) -> Unit:
    return Unit(
        label=f"alpha_scan({alphas})",
        items=len(alphas),
        run=lambda timed: timed(analysis.alpha_scan, alphas),
        check=lambda rows: _check_scan(alphas, rows),
    )


def shifter_scan(seed: int, size: str, workdir: Path) -> Workload:
    """Each unit is one alpha_scan call over a few uniform angles plus, in the
    first scan_cluster calls of a pass, one angle from the cluster around
    ALPHA_THRESHOLD."""
    p = SIZES[size]

    def passes(k: int) -> list[Unit]:
        rng = np.random.default_rng([seed, 1, k])
        uniform = _uniform_angles(rng, p["scan_calls"], p["scan_uniform"])
        cluster = _cluster_angles(rng, p["scan_cluster"])
        calls = [[float(a) for a in row] for row in uniform]
        for call, alpha in zip(calls, cluster):
            call.append(float(alpha))
        return _shuffled(rng, [_scan_unit(call) for call in calls])

    return Workload(passes, lambda: analysis.alpha_scan([0.5]))


# ---------------------------------------------------------------- wide-solve


def _check_solve(spec: models.ModelSpec, init: str, result) -> list[str]:
    ref = models.known_optimum(spec).fidelity
    err = abs(result.fidelity - ref)
    if result.converged and err <= F_TOL:
        return []
    return [
        f"{spec} init={init}: F={result.fidelity!r} known={ref!r} |err|={err:.3e} "
        f"iterations={result.iterations} converged={result.converged}"
    ]


def _solve_unit(spec: models.ModelSpec, r, init: str) -> Unit:
    opts = solver.SolverOptions(init=init)
    return Unit(
        label=f"solve({spec}, init={init})",
        items=1,
        run=lambda timed: timed(solver.solve, r, opts),
        check=lambda result: _check_solve(spec, init, result),
    )


def wide_solve(seed: int, size: str, workdir: Path) -> Workload:
    """Each unit is one solve(analytic_r(spec), SolverOptions(init=...)).

    Every pass runs unot and cloner at every N in the copy range, once from
    maxmix and once from a random start seeded per pass, and the entanglers
    alternating the two starts.  The targets are built once, as inputs, so
    analytic_r is part of set-up.
    """
    p = SIZES[size]
    lo, hi = p["solve_copies"]
    specs = [models.ModelSpec(kind, copies=n) for kind in ("unot", "cloner") for n in range(lo, hi + 1) for _ in (0, 1)]
    specs += [models.ModelSpec(kind) for kind in ("entangler_a", "entangler_b") for _ in range(p["solve_entanglers"])]
    r_of = {spec: models.analytic_r(spec) for spec in dict.fromkeys(specs)}

    def passes(k: int) -> list[Unit]:
        rng = np.random.default_rng([seed, 2, k])
        seeds = _seed_values(rng, len(specs))
        inits = ["maxmix" if i % 2 else f"random:{s}" for i, s in enumerate(seeds)]
        return _shuffled(rng, [_solve_unit(spec, r_of[spec], init) for spec, init in zip(specs, inits)])

    warm_r = models.analytic_r(models.ModelSpec("entangler_a"))
    return Workload(passes, lambda: solver.solve(warm_r, solver.SolverOptions()))


# ---------------------------------------------------------------- sampled-pipeline

# The pipeline runs models whose sampled target the solver still settles
# quickly: entangler-a, cloner N = 2 and the shifter away from both defect
# regions.  Targets with a degenerate exact optimum (unot, cloner N >= 3,
# entangler-b) lose the degeneracy under sampling, and their sampled solves
# then run for thousands of iterations or stop unconverged at max_iters; the
# solver would dominate this workload instead of targets, analysis,
# serialize and cli.
PIPELINE_CLONER_COPIES = 2
PIPELINE_SHIFTER_ALPHAS = (1.0, 2.6)


def mc_entry_bound(samples: int, dim: int, delta: float = MC_DELTA) -> float:
    """Hoeffding bound on max |R_mc - R| over the entries.

    Each entry of R_mc is a mean of `samples` independent terms whose real
    and imaginary parts lie in [-1, 1]; a union bound over the 2 dim^2 real
    parts gives a deviation above the bound with probability below delta.
    """
    return math.sqrt(2.0 * math.log(4.0 * dim * dim / delta) / samples)


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _model_args(spec: models.ModelSpec) -> list[str]:
    args = ["--model", spec.kind.replace("_", "-")]
    if spec.kind == "cloner":
        args += ["--copies", str(spec.copies)]
    if spec.kind == "shifter":
        args += ["--alpha", repr(spec.alpha)]
    return args


def _pipeline_unit(spec: models.ModelSpec, task_dir: Path, seeds, p) -> Unit:
    init_seed, validate_seed, mc_seed = seeds
    family = models.model_family(spec)
    model = _model_args(spec)
    f = {name: str(task_dir / name) for name in ("r.json", "chi.json", "kraus.json", "iso.json", "curve.csv")}
    argvs = [
        ["rmatrix", *model, "--quadrature", "--out", f["r.json"]],
        ["solve", "--r", f["r.json"], "--init", f"random:{init_seed}", "--out", f["chi.json"]],
        ["kraus", "--chi", f["chi.json"], "--out", f["kraus.json"]],
        ["dilate", "--chi", f["chi.json"], "--out", f["iso.json"]],
        ["curve", *model, "--chi", f["chi.json"], "--steps", str(p["pipe_curve_steps"]), "--csv", f["curve.csv"]],
        ["validate", *model, "--chi", f["chi.json"], "--samples", str(p["pipe_samples"]), "--seed", str(validate_seed)],
    ]

    def run(timed):
        codes = [(argv[0], *timed(_call_cli, argv)) for argv in argvs]
        r_mc = timed(targets.build_r_montecarlo, family, p["pipe_samples"], mc_seed)
        solved = timed(solver.solve, r_mc)
        return codes, r_mc, solved

    def check(output) -> list[str]:
        codes, r_mc, solved = output
        problems = [f"{cmd} exited {code}: {err}" for cmd, code, err in codes if code != 0]
        if problems:
            return ["; ".join(problems)]
        exact = models.analytic_r(spec)
        r_quad = serialize.target_from_obj(serialize.load_json(f["r.json"]))
        d_quad = float(np.abs(r_quad.matrix - exact.matrix).max())
        if not d_quad <= R_QUAD_TOL:
            problems.append(f"quadrature R off by {d_quad:.3e}")
        best = models.known_optimum(spec).fidelity
        cli_solved = serialize.load_json(f["chi.json"])
        if not cli_solved["converged"] or not abs(cli_solved["fidelity"] - best) <= F_TOL:
            problems.append(
                f"CLI solve F={cli_solved['fidelity']!r} known={best!r} converged={cli_solved['converged']}"
            )
        bound = mc_entry_bound(p["pipe_samples"], exact.matrix.shape[0])
        d_mc = float(np.abs(r_mc.matrix - exact.matrix).max())
        if not d_mc <= bound:
            problems.append(f"Monte-Carlo R off by {d_mc:.3e} > {bound:.3e}")
        # |max Tr[chi R_mc] - max Tr[chi R]| <= dim_in * ||R_mc - R||_2.
        slack = exact.dim_in * float(np.linalg.norm(r_mc.matrix - exact.matrix, 2)) + F_TOL
        if not solved.converged or not abs(solved.fidelity - best) <= slack:
            problems.append(
                f"sampled solve F={solved.fidelity!r} known={best!r} slack={slack:.3e} "
                f"converged={solved.converged}"
            )
        return ["; ".join(problems)] if problems else []

    return Unit(
        label=f"pipeline({spec}, seeds={tuple(seeds)})", items=1, run=run, check=check, calls=len(argvs) + 2
    )


def sampled_pipeline(seed: int, size: str, workdir: Path) -> Workload:
    """Each unit is one task: six CLI calls on a model, a Monte-Carlo target
    and a solve of it."""
    p = SIZES[size]
    n = p["pipe_tasks"]

    def passes(k: int) -> list[Unit]:
        rng = np.random.default_rng([seed, 3, k])
        alphas = stratified(rng, n, *PIPELINE_SHIFTER_ALPHAS)
        specs = (
            [models.ModelSpec("entangler_a")] * n
            + [models.ModelSpec("cloner", copies=PIPELINE_CLONER_COPIES)] * n
            + [models.ModelSpec("shifter", alpha=float(a)) for a in alphas]
        )
        seeds = _seed_values(rng, 3 * len(specs))
        units = []
        for i, spec in enumerate(specs):
            task_dir = workdir / f"task{i}"
            task_dir.mkdir(parents=True, exist_ok=True)
            units.append(_pipeline_unit(spec, task_dir, seeds[3 * i : 3 * i + 3], p))
        return _shuffled(rng, units)

    return Workload(passes, lambda: _call_cli(["bound", "--model", "entangler-a"]))


def reference_units(size: str, workdir: Path) -> list[Unit]:
    """Fixed units that reach every traced entry point whatever the workload:
    one scan row and one pipeline task on entangler-a."""
    task_dir = workdir / "reference"
    task_dir.mkdir(parents=True, exist_ok=True)
    return [
        _scan_unit([3.0]),
        _pipeline_unit(models.ModelSpec("entangler_a"), task_dir, (1, 2, 3), SIZES[size]),
    ]


WORKLOADS = {
    "shifter-scan": shifter_scan,
    "wide-solve": wide_solve,
    "sampled-pipeline": sampled_pipeline,
}
