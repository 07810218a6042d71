"""Command-line front end (README's "Command line"): main returns the exit code,
0 success, 2 usage error, 3 numerical failure, 4 non-convergence under
--strict, and reports an error as one "error: ..." line on stderr.  Each
_cmd_* handler returns its exit code and the JSON object for --out (None for
a command without --out); main writes that file after the handler's output.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import analysis, linalg, models, serialize, solver
from .channels import (
    KRAUS_CUTOFF,
    DensityMatrix,
    apply,
    density_from_state,
    dilation,
    fidelity,
    kraus_from_choi,
    kraus_trace_deviation,
    require_same_dims,
    validate_choi,
)
from .errors import ChoiOptError, InvalidSpecError, OutOfRangeError
from .targets import build_r_quadrature, fidelity_bound, quadrature_nodes


class _Parser(argparse.ArgumentParser):
    # Usage failures become the same single-line stderr format as every
    # other error, with exit code 2.
    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _model_spec(args) -> models.ModelSpec:
    return models.parse_model(args.model, copies=args.copies, alpha=args.alpha)


def _resolve_target(args):
    """The operator from the one source the parser admits: --model or --r FILE."""
    if args.model is not None:
        return models.analytic_r(_model_spec(args))
    if (args.copies, args.alpha) != (models.ModelSpec.copies, models.ModelSpec.alpha):
        raise InvalidSpecError("--copies and --alpha need --model")
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


def _cmd_solve(args) -> tuple[int, dict | None]:
    r = _resolve_target(args)
    opts = solver.SolverOptions(
        max_iters=args.max_iters,
        fid_tol=args.tol,
        init=_parse_init(args.init),
    )
    result = solver.solve(r, opts)
    certified = "" if np.isnan(result.gap) else f"  gap = {_fmt(result.gap)}"
    print(
        f"F = {_fmt(result.fidelity)}  bound = {_fmt(result.bound)}  "
        f"iters = {result.iterations}  converged = {str(result.converged).lower()}{certified}"
    )
    code = 4 if args.strict and not result.converged else 0
    if code:
        print("error: iteration did not converge", file=sys.stderr)
    return code, serialize.result_to_obj(result)


def _cmd_bound(args) -> tuple[int, dict | None]:
    r = _resolve_target(args)
    print(f"bound = {_fmt(fidelity_bound(r))}")
    return 0, None


def _cmd_rmatrix(args) -> tuple[int, dict | None]:
    spec = _model_spec(args)
    if not args.quadrature and (args.nodes_theta, args.nodes_phi) != (None, None):
        raise InvalidSpecError("--nodes-theta and --nodes-phi need --quadrature")
    if args.quadrature:
        family = models.model_family(spec)
        nt, nph = quadrature_nodes(family.trig_degree, args.nodes_theta, args.nodes_phi)
        r = build_r_quadrature(family, nodes_theta=nt, nodes_phi=nph)
        print(f"nodes_theta = {nt}  nodes_phi = {nph}")
    else:
        r = models.analytic_r(spec)
    print(
        f"dims = {r.dim_in}x{r.dim_out}  lambda_max = {_fmt(r.lambda_max)}  "
        f"bound = {_fmt(fidelity_bound(r))}"
    )
    return 0, serialize.target_to_obj(r)


def _cmd_kraus(args) -> tuple[int, dict | None]:
    chi = _load_choi(args.chi)
    ks = kraus_from_choi(chi, cutoff=args.cutoff)
    print(f"operators = {len(ks.operators)}  trace_condition_deviation = {kraus_trace_deviation(ks):.3e}")
    return 0, serialize.kraus_to_obj(ks)


def _cmd_dilate(args) -> tuple[int, dict | None]:
    chi = _load_choi(args.chi)
    ks = kraus_from_choi(chi)
    d = dilation(ks)
    ortho_dev = np.abs(d.conj().T @ d - np.eye(ks.dim_in)).max()
    print(f"isometry = {d.shape[0]}x{d.shape[1]}  column_orthonormality_deviation = {ortho_dev:.3e}")
    return 0, serialize.matrix_to_obj(d)


def _bloch_angles(value: str) -> tuple[float, float]:
    """--state's THETA,PHI: exactly two finite numbers, else a usage error."""
    try:
        theta, phi = (float(v) for v in value.split(","))
        if np.isfinite([theta, phi]).all():
            return theta, phi
    except ValueError:  # not a number, or not two of them
        pass
    raise argparse.ArgumentTypeError(f"expected THETA,PHI, two finite numbers, got {value!r}")


def _cmd_apply(args) -> tuple[int, dict | None]:
    chi = _load_choi(args.chi)
    if args.state is not None:
        rho = density_from_state(models.bloch_state(*args.state))
    else:
        rho = DensityMatrix(serialize.matrix_from_obj(serialize.load_json(args.rho)))
    out = apply(chi, rho)
    for row in out.matrix:
        print("  ".join(f"{z.real:+.10g}{z.imag:+.10g}j" for z in row))
    return 0, serialize.matrix_to_obj(out.matrix)


def _cmd_scan(args) -> tuple[int, dict | None]:
    if not linalg.is_count(args.steps):
        raise ValueError(f"--steps must be an integer >= 1, got {args.steps}")
    alphas = np.linspace(args.start, args.stop, args.steps)
    rows = analysis.alpha_scan(alphas)
    serialize.write_scan_csv(rows, args.csv)
    failed = [row for row in rows if row.error is not None]
    print(f"wrote {args.csv}  rows = {len(rows)}  failed = {len(failed)}")
    return 0, None


def _cmd_curve(args) -> tuple[int, dict | None]:
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
    return 0, None


def _cmd_validate(args) -> tuple[int, dict | None]:
    chi = _load_choi(args.chi)
    spec = _model_spec(args)
    family = models.model_family(spec)
    # The arguments are judged before the report is printed; an invalid chi is reported first.
    analysis.require_samples(args.samples)
    linalg.require_seed(args.seed)
    require_same_dims(chi, family, "channel", "family")
    report = validate_choi(chi)
    print(
        f"min_eigenvalue = {report.min_eigenvalue:.6e}  "
        f"trace_preservation_deviation = {report.trace_preservation_deviation:.6e}  "
        f"hermiticity_deviation = {report.hermiticity_deviation:.6e}"
    )
    est = analysis.mc_fidelity(chi, family, samples=args.samples, seed=args.seed)
    trace_f = fidelity(chi, models.analytic_r(spec))
    print(
        f"mc_fidelity = {_fmt(est.mean)} +/- {est.std_error:.3e}  "
        f"trace_fidelity = {_fmt(trace_f)}"
    )
    return 0, None


@functools.cache  # built once per process: building costs ~20x a parse_args
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="choiopt",
        description="Optimal trace-preserving CP maps by fixed-point iteration on the process matrix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Parent parsers: each option that several subcommands share is declared once.
    spec = models.ModelSpec  # the model defaults are its field defaults
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--copies", type=int, default=spec.copies, help="copy count N (unot and cloner only)")
    params.add_argument("--alpha", type=float, default=spec.alpha, help="shift angle in radians (shifter only)")
    choices = [kind.replace("_", "-") for kind in models.MODEL_KINDS]
    model = argparse.ArgumentParser(add_help=False, parents=[params])
    model.add_argument("--model", choices=choices, required=True)
    target = argparse.ArgumentParser(add_help=False, parents=[params])
    source = target.add_mutually_exclusive_group(required=True)  # exactly one operator source
    source.add_argument("--model", choices=choices)
    source.add_argument("--r", help="target-operator JSON file instead of --model")
    chi = argparse.ArgumentParser(add_help=False)
    chi.add_argument("--chi", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the result as JSON")

    p = sub.add_parser("solve", parents=[target, out], help="solve for the optimal channel")
    defaults = solver.SolverOptions  # the CLI defaults are its field defaults
    p.add_argument("--tol", type=float, default=defaults.fid_tol, help="fidelity-delta tolerance")
    p.add_argument("--max-iters", type=int, default=defaults.max_iters)
    p.add_argument("--init", default=defaults.init, help="maxmix | random:SEED | chi JSON file")
    p.add_argument("--strict", action="store_true", help="exit 4 when not converged")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("bound", parents=[target], help="fidelity upper bound of a target")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("rmatrix", parents=[model, out], help="emit a model's target operator")
    p.add_argument("--quadrature", action="store_true", help="build by quadrature instead of the closed form")
    p.add_argument("--nodes-theta", type=int, default=None)
    p.add_argument("--nodes-phi", type=int, default=None)
    p.set_defaults(handler=_cmd_rmatrix)

    p = sub.add_parser("kraus", parents=[chi, out], help="Kraus operators of a process matrix")
    p.add_argument("--cutoff", type=float, default=KRAUS_CUTOFF)
    p.set_defaults(handler=_cmd_kraus)

    p = sub.add_parser("dilate", parents=[chi, out], help="isometric dilation of a process matrix")
    p.set_defaults(handler=_cmd_dilate)

    p = sub.add_parser("apply", parents=[chi, out], help="apply a channel to a state")
    source = p.add_mutually_exclusive_group(required=True)  # exactly one input state
    source.add_argument(
        "--state", type=_bloch_angles,
        help="THETA,PHI Bloch angles of a pure input state (write --state=THETA,PHI if either is negative)",
    )
    source.add_argument("--rho", help="density-matrix JSON file")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("scan", help="shift-angle scan of the shifter model")
    p.add_argument("--model", choices=["shifter"], required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("curve", parents=[model, chi], help="state-dependent fidelity curve of a channel")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(handler=_cmd_curve)

    p = sub.add_parser("validate", parents=[model, chi], help="constraint report and sampled fidelity of a channel")
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
        code, obj = args.handler(args)
        if obj is not None and args.out is not None:  # only the handlers of commands with --out return an object
            serialize.dump_json(obj, args.out)
        return code
    except (ChoiOptError, OSError, KeyError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Spec errors are ChoiOptErrors and LinAlgError is a ValueError, so
        # the usage-or-numerical split cannot follow the class tree alone.
        if isinstance(exc, (InvalidSpecError, OutOfRangeError)):
            return 2
        return 3 if isinstance(exc, (ChoiOptError, np.linalg.LinAlgError)) else 2


if __name__ == "__main__":
    sys.exit(main())
