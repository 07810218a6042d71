"""JSON and CSV wire formats, loaded strictly (README's "File formats").  Floats
are written in Python's shortest round-trip form, so loading reproduces the
doubles bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import linalg
from .channels import ChoiOperator, KrausSet, require_valid_choi
from .errors import InvalidChoiError
from .solver import SolverResult
from .targets import TargetOperator

ORDERING = "in_tensor_out"
_SCAN_FIELDS = ("alpha", "beta_opt", "F_solver", "F_closed", "F_bound")


def matrix_to_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def _checked(obj, key: str, kind: type = int):
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    if not (linalg.is_count(obj[key]) if kind is int else type(obj[key]) is kind):
        raise ValueError(f"{key!r} must be a {'positive ' * (kind is int)}{kind.__name__}")
    return obj[key]


def matrix_from_obj(obj: dict) -> np.ndarray:
    rows, cols, data = _checked(obj, "rows"), _checked(obj, "cols"), _checked(obj, "data", list)
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != rows*cols {rows * cols}")
    if not all(type(z) is list and len(z) == 2 and {*map(type, z)} <= {int, float} for z in data):
        raise ValueError("matrix data entries must be [re, im] pairs of numbers")
    return np.array([complex(re, im) for re, im in data], dtype=np.complex128).reshape(rows, cols)


def _operator_obj(op, **extra) -> dict:
    obj = {"dim_in": op.dim_in, "dim_out": op.dim_out, "ordering": ORDERING, **extra}
    obj.update(matrix_to_obj(op.matrix))
    return obj


def _dims(obj: dict) -> tuple[int, int]:
    dims = _checked(obj, "dim_in"), _checked(obj, "dim_out")
    if obj.get("ordering", ORDERING) != ORDERING:
        raise ValueError(f"unsupported ordering {obj.get('ordering')!r}")
    return dims


def choi_to_obj(chi: ChoiOperator) -> dict:
    return _operator_obj(chi)


def choi_from_obj(obj: dict, validate: bool = True) -> ChoiOperator:
    chi = ChoiOperator(*_dims(obj), matrix_from_obj(obj))
    if validate:
        require_valid_choi(chi)
    elif not np.isfinite(chi.matrix).all():
        raise InvalidChoiError("process matrix has non-finite entries")
    return chi


def target_to_obj(r: TargetOperator) -> dict:
    return _operator_obj(r, kind="target")


def target_from_obj(obj: dict) -> TargetOperator:
    return TargetOperator(*_dims(obj), matrix_from_obj(obj))


def kraus_to_obj(kraus: KrausSet) -> dict:
    return {
        "dim_in": kraus.dim_in,
        "dim_out": kraus.dim_out,
        "operators": [matrix_to_obj(a) for a in kraus.operators],
        "weights": [float(w) for w in kraus.weights],
    }


def kraus_from_obj(obj: dict) -> KrausSet:
    dim_in, dim_out = _dims(obj)
    ops = tuple(matrix_from_obj(o) for o in _checked(obj, "operators", list))
    if any(a.shape != (dim_out, dim_in) for a in ops):
        raise ValueError(f"Kraus operators must be {dim_out}x{dim_in}")
    weights = _checked(obj, "weights", list)
    if not {*map(type, weights)} <= {int, float}:
        raise ValueError("weights must be numbers")
    if not all(np.isfinite(a).all() for a in ops):
        raise ValueError("Kraus operators must be finite")
    return KrausSet(dim_in, dim_out, ops, weights)  # KrausSet judges the weights' count and finiteness


def result_to_obj(result: SolverResult) -> dict:
    return {
        "fidelity": result.fidelity,
        "bound": result.bound,
        "iterations": result.iterations,
        "converged": result.converged,
        "gap": None if np.isnan(result.gap) else result.gap,  # null unless the endgame certified
        "fidelity_trace": list(result.fidelity_trace),
        "chi": choi_to_obj(result.chi),
    }


def dump_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=1) + "\n")


def load_json(path) -> dict:
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level, got {type(obj).__name__}")
    return obj


def format_float(x: float) -> str:
    """Decimal text with 15 significant digits for CSV cells."""
    return f"{x:.15g}"


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(map(format_float, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_scan_csv(rows, path) -> None:
    _write_csv(path, _SCAN_FIELDS, ([getattr(row, f) for f in _SCAN_FIELDS] for row in rows))


def write_curve_csv(curve: np.ndarray, path) -> None:
    _write_csv(path, ("theta", "F"), curve)
