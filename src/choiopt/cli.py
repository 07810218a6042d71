"""Command-line front end.

Subcommands: solve, bound, rmatrix, kraus, dilate, apply, scan, curve,
validate.  Exit codes: 0 success, 2 usage error, 3 numerical failure,
4 non-convergence under --strict.  Errors go to stderr as a single
"error: ..." line.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, models, serialize, solver
from .channels import (
    KRAUS_CUTOFF,
    DensityMatrix,
    apply,
    density_from_state,
    dilation,
    fidelity,
    kraus_from_choi,
    kraus_trace_deviation,
    validate_choi,
)
from .errors import ChoiOptError, InvalidSpecError, OutOfRangeError
from .targets import (
    build_r_quadrature,
    default_phi_nodes,
    default_theta_nodes,
    fidelity_bound,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage failures become the same single-line stderr format as every
    # other error, with exit code 2.
    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _add_model_args(p: argparse.ArgumentParser, required: bool = False) -> None:
    choices = [kind.replace("_", "-") for kind in models.MODEL_KINDS]
    p.add_argument("--model", choices=choices, required=required)
    p.add_argument("--copies", type=int, default=1, help="copy count N for unot/cloner")
    p.add_argument("--alpha", type=float, default=0.0, help="shift angle in radians")


def _model_spec(args) -> models.ModelSpec:
    return models.parse_model(args.model, copies=args.copies, alpha=args.alpha)


def _resolve_target(args):
    """Exactly one operator source: --model or --r FILE."""
    has_model = getattr(args, "model", None) is not None
    has_file = getattr(args, "r", None) is not None
    if has_model == has_file:
        raise _UsageError("exactly one of --model and --r is required")
    if has_model:
        return models.analytic_r(_model_spec(args))
    return serialize.target_from_obj(serialize.load_json(args.r))


def _load_choi(path: str):
    # Finite check only: every library call that takes chi validates it.
    obj = serialize.load_json(path)
    if "chi" in obj:  # accept solver-result files directly
        obj = obj["chi"]
    return serialize.choi_from_obj(obj, validate=False)


def _parse_init(value: str):
    if value in ("maxmix",) or value.startswith("random:"):
        return value
    return _load_choi(value)


def _cmd_solve(args) -> int:
    r = _resolve_target(args)
    opts = solver.SolverOptions(
        max_iters=args.max_iters,
        fid_tol=args.tol,
        init=_parse_init(args.init),
    )
    result = solver.solve(r, opts)
    print(
        f"F = {_fmt(result.fidelity)}  bound = {_fmt(result.bound)}  "
        f"iters = {result.iterations}  converged = {str(result.converged).lower()}"
    )
    if args.out:
        serialize.dump_json(serialize.result_to_obj(result), args.out)
    if args.strict and not result.converged:
        print("error: iteration did not converge", file=sys.stderr)
        return 4
    return 0


def _cmd_bound(args) -> int:
    r = _resolve_target(args)
    print(f"bound = {_fmt(fidelity_bound(r))}")
    return 0


def _cmd_rmatrix(args) -> int:
    spec = _model_spec(args)
    if args.quadrature:
        family = models.model_family(spec)
        nt = args.nodes_theta if args.nodes_theta is not None else default_theta_nodes(family.trig_degree)
        nph = args.nodes_phi if args.nodes_phi is not None else default_phi_nodes(family.trig_degree)
        r = build_r_quadrature(family, nodes_theta=nt, nodes_phi=nph)
        print(f"nodes_theta = {nt}  nodes_phi = {nph}")
    else:
        r = models.analytic_r(spec)
    print(
        f"dims = {r.dim_in}x{r.dim_out}  lambda_max = {_fmt(r.lambda_max)}  "
        f"bound = {_fmt(fidelity_bound(r))}"
    )
    if args.out:
        serialize.dump_json(serialize.target_to_obj(r), args.out)
    return 0


def _cmd_kraus(args) -> int:
    chi = _load_choi(args.chi)
    ks = kraus_from_choi(chi, cutoff=args.cutoff)
    print(
        f"operators = {len(ks.operators)}  "
        f"trace_condition_deviation = {kraus_trace_deviation(ks):.3e}"
    )
    if args.out:
        serialize.dump_json(serialize.kraus_to_obj(ks), args.out)
    return 0


def _cmd_dilate(args) -> int:
    chi = _load_choi(args.chi)
    ks = kraus_from_choi(chi)
    d = dilation(ks)
    ortho_dev = np.abs(d.conj().T @ d - np.eye(ks.dim_in)).max()
    print(f"isometry = {d.shape[0]}x{d.shape[1]}  column_orthonormality_deviation = {ortho_dev:.3e}")
    if args.out:
        serialize.dump_json(serialize.matrix_to_obj(d), args.out)
    return 0


def _cmd_apply(args) -> int:
    chi = _load_choi(args.chi)
    if (args.state is None) == (args.rho is None):
        raise _UsageError("exactly one of --state and --rho is required")
    if args.state is not None:
        theta, phi = (float(v) for v in args.state.split(","))
        rho = density_from_state(models.bloch_state(theta, phi))
    else:
        rho = DensityMatrix(serialize.matrix_from_obj(serialize.load_json(args.rho)))
    out = apply(chi, rho)
    for row in out.matrix:
        print("  ".join(f"{z.real:+.10g}{z.imag:+.10g}j" for z in row))
    if args.out:
        serialize.dump_json(serialize.matrix_to_obj(out.matrix), args.out)
    return 0


def _cmd_scan(args) -> int:
    if args.model != "shifter":
        raise _UsageError("scan supports only --model shifter")
    alphas = np.linspace(args.start, args.stop, args.steps)
    rows = analysis.alpha_scan(alphas, jobs=args.jobs)
    serialize.write_scan_csv(rows, args.csv)
    failed = [row for row in rows if row.error is not None]
    print(f"wrote {args.csv}  rows = {len(rows)}  failed = {len(failed)}")
    return 0


def _cmd_curve(args) -> int:
    spec = _model_spec(args)
    chi = _load_choi(args.chi)
    family = models.model_family(spec)
    curve = analysis.state_fidelity_curve(chi, family, args.steps)
    serialize.write_curve_csv(curve, args.csv)
    imin = int(np.argmin(curve[:, 1]))
    print(
        f"wrote {args.csv}  rows = {len(curve)}  "
        f"min F = {_fmt(curve[imin, 1])} at theta = {_fmt(curve[imin, 0])}"
    )
    return 0


def _cmd_validate(args) -> int:
    chi = _load_choi(args.chi)
    spec = _model_spec(args)
    report = validate_choi(chi)
    print(
        f"min_eigenvalue = {report.min_eigenvalue:.6e}  "
        f"trace_preservation_deviation = {report.trace_preservation_deviation:.6e}  "
        f"hermiticity_deviation = {report.hermiticity_deviation:.6e}"
    )
    family = models.model_family(spec)
    est = analysis.mc_fidelity(chi, family, samples=args.samples, seed=args.seed)
    trace_f = fidelity(chi, models.analytic_r(spec))
    print(
        f"mc_fidelity = {_fmt(est.mean)} +/- {est.std_error:.3e}  "
        f"trace_fidelity = {_fmt(trace_f)}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="choiopt",
        description="Optimal trace-preserving CP maps by fixed-point iteration on the process matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve for the optimal channel")
    _add_model_args(p)
    p.add_argument("--r", help="target-operator JSON file instead of --model")
    defaults = solver.SolverOptions  # the CLI defaults are its field defaults
    p.add_argument("--tol", type=float, default=defaults.fid_tol, help="fidelity-delta tolerance")
    p.add_argument("--max-iters", type=int, default=defaults.max_iters)
    p.add_argument("--init", default=defaults.init, help="maxmix | random:SEED | chi JSON file")
    p.add_argument("--strict", action="store_true", help="exit 4 when not converged")
    p.add_argument("--out", help="write the solver result as JSON")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("bound", help="fidelity upper bound of a target")
    _add_model_args(p)
    p.add_argument("--r", help="target-operator JSON file instead of --model")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("rmatrix", help="emit a model's target operator")
    _add_model_args(p, required=True)
    p.add_argument("--quadrature", action="store_true", help="build by quadrature instead of the closed form")
    p.add_argument("--nodes-theta", type=int, default=None)
    p.add_argument("--nodes-phi", type=int, default=None)
    p.add_argument("--out", help="write the operator as JSON")
    p.set_defaults(handler=_cmd_rmatrix)

    p = sub.add_parser("kraus", help="Kraus operators of a process matrix")
    p.add_argument("--chi", required=True)
    p.add_argument("--cutoff", type=float, default=KRAUS_CUTOFF)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_kraus)

    p = sub.add_parser("dilate", help="isometric dilation of a process matrix")
    p.add_argument("--chi", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_dilate)

    p = sub.add_parser("apply", help="apply a channel to a state")
    p.add_argument("--chi", required=True)
    p.add_argument("--state", help="THETA,PHI Bloch angles of a pure input state")
    p.add_argument("--rho", help="density-matrix JSON file")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("scan", help="shift-angle scan of the shifter model")
    _add_model_args(p, required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes, at most one per row (default: processor count)",
    )
    p.add_argument("--csv", required=True)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("curve", help="state-dependent fidelity curve of a channel")
    _add_model_args(p, required=True)
    p.add_argument("--chi", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("validate", help="constraint report and sampled fidelity of a channel")
    _add_model_args(p, required=True)
    p.add_argument("--chi", required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (_UsageError, ChoiOptError, OSError, KeyError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Spec errors are ChoiOptErrors and LinAlgError is a ValueError, so
        # the usage-or-numerical split cannot follow the class tree alone.
        if isinstance(exc, (InvalidSpecError, OutOfRangeError)):
            return 2
        return 3 if isinstance(exc, (ChoiOptError, np.linalg.LinAlgError)) else 2


if __name__ == "__main__":
    sys.exit(main())
