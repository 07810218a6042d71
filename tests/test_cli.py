import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiopt import serialize
from choiopt.channels import KRAUS_CUTOFF, ChoiOperator, apply, density_from_state, identity_choi
from choiopt.cli import _build_parser, main
from choiopt.models import MODEL_KINDS, ModelSpec, analytic_r, bloch_state
from choiopt.solver import SolverOptions, random_choi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_unot_reaches_bound(self, capsys, tmp_path):
        out_file = tmp_path / "chi.json"
        code, out, _ = run(
            capsys, "solve", "--model", "unot", "--copies", "1", "--out", str(out_file)
        )
        assert code == 0
        assert "F = 0.6666666667" in out
        assert "bound = 0.6666666667" in out
        assert "converged = true" in out
        assert out_file.exists()

    def test_round_trip_apply(self, capsys, tmp_path):
        out_file = tmp_path / "res.json"
        assert run(capsys, "solve", "--model", "identity", "--out", str(out_file))[0] == 0
        chi = serialize.choi_from_obj(serialize.load_json(out_file)["chi"])
        rho = density_from_state(bloch_state(0.7, 1.2))
        expected = apply(chi, rho).matrix

        rho_file = tmp_path / "out.json"
        code, _, _ = run(
            capsys,
            "apply", "--chi", str(out_file), "--state", "0.7,1.2", "--out", str(rho_file),
        )
        assert code == 0
        got = serialize.matrix_from_obj(serialize.load_json(rho_file))
        assert np.abs(got - expected).max() <= 1e-12

    def test_strict_non_convergence(self, capsys):
        code, _, err = run(
            capsys,
            "solve", "--model", "shifter", "--alpha", "0.9", "--max-iters", "1", "--strict",
        )
        assert code == 4
        assert err.startswith("error:")

    def test_random_init(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "unot", "--init", "random:5")
        assert code == 0
        assert "F = 0.6666666667" in out

    def test_model_and_r_conflict(self, capsys, tmp_path):
        r_file = tmp_path / "r.json"
        run(capsys, "rmatrix", "--model", "identity", "--out", str(r_file))
        code, _, err = run(capsys, "solve", "--model", "unot", "--r", str(r_file))
        assert code == 2
        assert err.startswith("error:")

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 2


class TestBound:
    def test_cloner(self, capsys):
        code, out, _ = run(capsys, "bound", "--model", "cloner", "--copies", "3")
        assert code == 0
        assert out.strip() == "bound = 0.5"

    def test_from_file(self, capsys, tmp_path):
        r_file = tmp_path / "r.json"
        run(capsys, "rmatrix", "--model", "entangler-b", "--out", str(r_file))
        code, out, _ = run(capsys, "bound", "--r", str(r_file))
        assert code == 0
        assert out.strip() == "bound = 0.3333333333"


class TestRmatrix:
    def test_quadrature_matches_analytic(self, capsys, tmp_path):
        fa = tmp_path / "a.json"
        fq = tmp_path / "q.json"
        assert run(capsys, "rmatrix", "--model", "entangler-a", "--out", str(fa))[0] == 0
        code, out, _ = run(
            capsys, "rmatrix", "--model", "entangler-a", "--quadrature", "--out", str(fq)
        )
        assert code == 0
        assert "nodes_theta" in out
        ra = serialize.matrix_from_obj(serialize.load_json(fa))
        rq = serialize.matrix_from_obj(serialize.load_json(fq))
        assert np.abs(ra - rq).max() <= 1e-10

    def test_node_overrides(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "rmatrix", "--model", "shifter", "--alpha", "1.0", "--quadrature",
            "--nodes-theta", "40", "--nodes-phi", "12",
        )
        assert code == 0
        assert "nodes_theta = 40  nodes_phi = 12" in out


class TestKrausDilate:
    @pytest.fixture()
    def chi_file(self, tmp_path, capsys):
        path = tmp_path / "chi.json"
        serialize.dump_json(serialize.choi_to_obj(random_choi(2, 2, seed=0)), path)
        return path

    def test_kraus(self, capsys, chi_file, tmp_path):
        out_file = tmp_path / "kraus.json"
        code, out, _ = run(capsys, "kraus", "--chi", str(chi_file), "--out", str(out_file))
        assert code == 0
        assert "operators = 4" in out
        obj = serialize.load_json(out_file)
        assert len(obj["operators"]) == 4

    def test_dilate(self, capsys, chi_file, tmp_path):
        out_file = tmp_path / "d.json"
        code, out, _ = run(capsys, "dilate", "--chi", str(chi_file), "--out", str(out_file))
        assert code == 0
        assert "isometry = 8x2" in out
        d = serialize.matrix_from_obj(serialize.load_json(out_file))
        assert np.abs(d.conj().T @ d - np.eye(2)).max() <= 1e-10

    def test_invalid_chi_is_numerical_failure(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        obj = serialize.choi_to_obj(random_choi(2, 2, seed=1))
        obj["data"][0] = [9.0, 0.0]
        serialize.dump_json(obj, path)
        code, _, err = run(capsys, "kraus", "--chi", str(path))
        assert code == 3
        assert err.startswith("error:")


class TestScanCurve:
    def test_scan_csv(self, capsys, tmp_path):
        csv = tmp_path / "scan.csv"
        code, out, _ = run(
            capsys,
            "scan", "--model", "shifter", "--from", "0", "--to", "3.14159265", "--steps", "5",
            "--csv", str(csv),
        )
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "alpha,beta_opt,F_solver,F_closed,F_bound"
        assert len(lines) == 6
        half_pi_row = lines[3].split(",")  # third grid point sits at pi/2
        assert float(half_pi_row[0]) == pytest.approx(np.pi / 2, abs=1e-8)
        assert float(half_pi_row[2]) == pytest.approx(0.892699, abs=1e-6)

    def test_scan_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["scan", "--model", "shifter", "--from", "0.3", "--to", "2.2", "--steps", "4"]
        assert run(capsys, *args, "--csv", str(a))[0] == 0
        assert run(capsys, *args, "--csv", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scan_rejects_other_models(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "scan", "--model", "unot", "--from", "0", "--to", "1", "--steps", "2",
            "--csv", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_curve(self, capsys, tmp_path):
        chi_file = tmp_path / "chi.json"
        run(capsys, "solve", "--model", "entangler-a", "--out", str(chi_file))
        csv = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys,
            "curve", "--model", "entangler-a", "--chi", str(chi_file), "--steps", "101",
            "--csv", str(csv),
        )
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "theta,F"
        assert len(lines) == 102
        assert "min F = 0.97" in out


class TestValidate:
    def test_reports(self, capsys, tmp_path):
        chi_file = tmp_path / "chi.json"
        run(capsys, "solve", "--model", "entangler-b", "--out", str(chi_file))
        code, out, _ = run(
            capsys,
            "validate", "--model", "entangler-b", "--chi", str(chi_file),
            "--samples", "5000", "--seed", "3",
        )
        assert code == 0
        assert "trace_preservation_deviation" in out
        assert "mc_fidelity = 0.3333333333" in out


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_apply_needs_exactly_one_input(self, capsys, tmp_path):
        chi_file = tmp_path / "chi.json"
        serialize.dump_json(serialize.choi_to_obj(random_choi(2, 2, seed=2)), chi_file)
        assert run(capsys, "apply", "--chi", str(chi_file))[0] == 2


class TestExitCodes:
    def test_lapack_failure_is_numerical(self, capsys, tmp_path, monkeypatch):
        chi_file = tmp_path / "chi.json"
        serialize.dump_json(serialize.choi_to_obj(random_choi(2, 2, seed=0)), chi_file)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, _, err = run(capsys, "kraus", "--chi", str(chi_file))
        assert code == 3
        assert err == "error: Eigenvalues did not converge\n"

    def test_spec_errors_stay_usage_errors(self, capsys):
        assert run(capsys, "bound", "--model", "unot", "--copies", "0")[0] == 2
        assert run(capsys, "bound", "--model", "shifter", "--alpha", "4")[0] == 2

    def test_model_choices_follow_model_kinds(self):
        parser = _build_parser()
        (commands,) = [a for a in parser._actions if a.dest == "command"]
        hyphenated = [kind.replace("_", "-") for kind in MODEL_KINDS]
        seen = 0
        for sub in commands.choices.values():
            for action in sub._actions:
                if action.dest == "model":
                    assert list(action.choices) == hyphenated
                    seen += 1
        assert seen == 6  # solve, bound, rmatrix, scan, curve, validate


def _poisoned(obj: dict, value: float) -> dict:
    obj = dict(obj, data=[list(z) for z in obj["data"]])
    obj["data"][0][0] = value
    return obj


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--r", "{r}"),
        ("bound", "--r", "{r}"),
        ("solve", "--model", "identity", "--init", "{chi}"),
        ("kraus", "--chi", "{chi}"),
        ("dilate", "--chi", "{chi}"),
        ("apply", "--chi", "{chi}", "--state", "0.3,0.4"),
        ("apply", "--chi", "{good_chi}", "--rho", "{rho}"),
        ("curve", "--model", "identity", "--chi", "{chi}", "--steps", "5", "--csv", "{csv}"),
        ("validate", "--model", "identity", "--chi", "{chi}", "--samples", "100"),
    ],
    ids=["solve-r", "bound-r", "solve-init", "kraus", "dilate", "apply-chi", "apply-rho", "curve", "validate"],
)
def test_non_finite_input_is_a_numerical_failure(capsys, tmp_path, argv, value):
    good_chi = serialize.choi_to_obj(identity_choi(2))
    files = {
        "r": serialize.target_to_obj(analytic_r(ModelSpec("identity"))),
        "chi": good_chi,
        "rho": serialize.matrix_to_obj(np.eye(2) / 2),
    }
    paths = {"good_chi": tmp_path / "good_chi.json", "csv": tmp_path / "curve.csv"}
    serialize.dump_json(good_chi, paths["good_chi"])
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        serialize.dump_json(_poisoned(obj, value), paths[name])
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--model", "identity", "--init", "{chi}"),
        ("kraus", "--chi", "{chi}"),
        ("dilate", "--chi", "{chi}"),
        ("apply", "--chi", "{chi}", "--state", "0.3,0.4"),
        ("curve", "--model", "identity", "--chi", "{chi}", "--steps", "5", "--csv", "{csv}"),
    ],
    ids=["solve-init", "kraus", "dilate", "apply", "curve"],
)
def test_non_psd_chi_is_a_numerical_failure(capsys, tmp_path, argv):
    # Finite, Hermitian and trace-preserving, with eigenvalue -1/2.
    chi = ChoiOperator(2, 2, [[1, 0, 0, 1.5], [0, 0, 0, 0], [0, 0, 0, 0], [1.5, 0, 0, 1]])
    paths = {"chi": tmp_path / "chi.json", "csv": tmp_path / "curve.csv"}
    serialize.dump_json(serialize.choi_to_obj(chi), paths["chi"])
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 3 and out == ""
    assert err.startswith("error: minimum eigenvalue") and err.count("\n") == 1
    assert not paths["csv"].exists()


def test_validate_prints_no_report_for_non_finite_chi(capsys, tmp_path):
    chi_file = tmp_path / "chi.json"
    serialize.dump_json(_poisoned(serialize.choi_to_obj(identity_choi(2)), float("nan")), chi_file)
    code, out, err = run(capsys, "validate", "--model", "identity", "--chi", str(chi_file))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "change",
    [
        None,
        {"rows": None},
        {"data": [["a", "b"]] * 16},
        {"data": [1] * 16},
        {"data": 5},
        {"data": [[10**400, 0]] * 16},
    ],
    ids=["list-top-level", "rows-null", "string-pairs", "scalar-entries", "data-scalar", "huge-int"],
)
@pytest.mark.parametrize("argv", [("bound", "--r"), ("kraus", "--chi")], ids=["bound", "kraus"])
def test_malformed_json_is_a_usage_error(capsys, tmp_path, argv, change):
    path = tmp_path / "m.json"
    obj = serialize.choi_to_obj(identity_choi(2))
    path.write_text(json.dumps([1, 2] if change is None else dict(obj, **change)))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# Each file-reading subcommand, with the slot that receives the mangled file.
_FILE_COMMANDS = [
    (("solve", "--r", "{bad}"), "r"),
    (("bound", "--r", "{bad}"), "r"),
    (("solve", "--model", "identity", "--init", "{bad}"), "chi"),
    (("kraus", "--chi", "{bad}"), "chi"),
    (("dilate", "--chi", "{bad}"), "chi"),
    (("apply", "--chi", "{bad}", "--state", "0.3,0.4"), "chi"),
    (("apply", "--chi", "{good_chi}", "--rho", "{bad}"), "rho"),
    (("curve", "--model", "identity", "--chi", "{bad}", "--steps", "5", "--csv", "{csv}"), "chi"),
    (("validate", "--model", "identity", "--chi", "{bad}", "--samples", "100"), "chi"),
]
_GOOD = {
    "r": serialize.target_to_obj(analytic_r(ModelSpec("identity"))),
    "chi": serialize.choi_to_obj(identity_choi(2)),
    "rho": serialize.matrix_to_obj(np.eye(2) / 2),
}
_TEXT = st.text(max_size=3)
_NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(), _TEXT, st.lists(st.integers(), max_size=2))
_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=2)),
    max_leaves=4,
)
_NON_PAIR = _JSON_VALUE.filter(
    lambda v: not (isinstance(v, list) and len(v) == 2 and all(type(x) in (int, float) for x in v))
)


@st.composite
def _mangled(draw, kind: str):
    """A JSON value that a loader of `kind` files must reject."""
    obj = dict(_GOOD[kind], data=list(_GOOD[kind]["data"]))
    n = obj["rows"]
    how = draw(st.sampled_from(["shape", "ragged", "entry", "field", "top"]))
    if how == "shape":
        rows, cols = draw(
            st.tuples(st.integers(-2, 2 * n), st.integers(-2, 2 * n)).filter(lambda rc: rc != (n, n))
        )
        obj.update(rows=rows, cols=cols)
        if draw(st.booleans()) and rows * cols > 0:
            obj["data"] = [[0.25, 0.0]] * (rows * cols)
    elif how == "ragged":
        size = draw(st.integers(0, 2 * n * n).filter(lambda k: k != n * n))
        obj["data"] = (obj["data"] * 2)[:size]
    elif how == "entry":
        obj["data"][draw(st.integers(0, n * n - 1))] = draw(_NON_PAIR)
    elif how == "field":
        key = draw(st.sampled_from(sorted(k for k in obj if k != "kind")))
        obj[key] = draw(_NOT_INT if key != "ordering" else _JSON_VALUE.filter(lambda v: v != obj[key]))
    else:
        top = st.one_of(st.lists(_JSON_VALUE, max_size=3), st.integers(), st.floats(), _TEXT, st.none())
        return draw(top)
    return obj


@st.composite
def _mangled_command(draw):
    argv, kind = draw(st.sampled_from(_FILE_COMMANDS))
    return argv, draw(_mangled(kind))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mangled_command())
def test_mangled_json_never_succeeds(case):
    argv, bad = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in ("bad", "good_chi")}
        paths["csv"] = Path(tmp) / "curve.csv"
        paths["bad"].write_text(json.dumps(bad))
        serialize.dump_json(_GOOD["chi"], paths["good_chi"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.format(**paths) for a in argv])
    assert code in (2, 3), (code, out.getvalue())
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_is_a_usage_error(capsys, tol):
    code, out, err = run(capsys, "solve", "--model", "shifter", "--alpha", "0.7", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "fid_tol" in err and err.count("\n") == 1


def test_defaults_are_the_library_defaults():
    solve_args = _build_parser().parse_args(["solve", "--model", "unot"])
    opts = SolverOptions()
    assert (solve_args.tol, solve_args.max_iters, solve_args.init) == (
        opts.fid_tol,
        opts.max_iters,
        opts.init,
    )
    assert _build_parser().parse_args(["kraus", "--chi", "chi.json"]).cutoff == KRAUS_CUTOFF
