import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiopt import serialize
from choiopt import solver as solver_module
from choiopt.channels import KRAUS_CUTOFF, ChoiOperator, apply, density_from_state, identity_choi
from choiopt.cli import _build_parser, main
from choiopt.models import MODEL_KINDS, ModelSpec, analytic_r, bloch_state
from choiopt.solver import SolverOptions, random_choi
from choiopt.targets import TargetOperator


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

    def test_certified_solve_prints_its_gap(self, capsys, tmp_path):
        out_file = tmp_path / "res.json"
        code, out, _ = run(capsys, "solve", "--model", "shifter", "--alpha", "3.0", "--out", str(out_file))
        gap = serialize.load_json(out_file)["gap"]
        assert code == 0 and gap <= SolverOptions().fid_tol
        assert out.endswith(f"converged = true  gap = {gap:.10g}\n")

    def test_fixed_point_stop_prints_no_gap(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "unot", "--copies", "1")
        assert code == 0 and out.endswith("converged = true\n") and "gap" not in out

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

    @pytest.mark.parametrize("with_out", [False, True], ids=["no-out", "out"])
    def test_strict_non_convergence(self, capsys, tmp_path, with_out):
        out_file = tmp_path / "res.json"
        code, _, err = run(
            capsys,
            "solve", "--model", "shifter", "--alpha", "0.9", "--max-iters", "1", "--strict",
            *(("--out", str(out_file)) if with_out else ()),
        )
        assert code == 4
        assert err == "error: iteration did not converge\n"
        assert out_file.exists() == with_out
        if with_out:
            assert serialize.load_json(out_file)["converged"] is False

    def test_out_in_a_missing_directory(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "res.json"
        code, out, err = run(capsys, "solve", "--model", "unot", "--copies", "1", "--out", str(out_file))
        assert code == 2
        assert out.startswith("F = 0.6666666667") and out.count("\n") == 1
        assert err.startswith("error:") and err.count("\n") == 1 and str(out_file) in err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--model", "unot"),
            ("rmatrix", "--model", "identity"),
            ("kraus", "--chi", "chi.json"),
            ("dilate", "--chi", "chi.json"),
            ("apply", "--chi", "chi.json", "--state", "0.7,1.2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_an_empty_out_is_refused(self, capsys, tmp_path, monkeypatch, argv):
        # --out "" names the working directory, so its write fails as any unwritable --out does.
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "solve", "--model", "unot", "--out", "chi.json")[0] == 0
        code, want, _ = run(capsys, *argv)
        assert code == 0
        code, out, err = run(capsys, *argv, "--out", "")
        assert code == 2 and out == want
        assert err.startswith("error:") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chi.json"]

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

    @pytest.mark.parametrize(
        "options",
        [("--alpha", "2.0", "--copies", "7"), ("--copies", "3"), ("--alpha", "0.5")],
        ids=["both", "copies", "alpha"],
    )
    @pytest.mark.parametrize("command", ["solve", "bound"])
    def test_r_refuses_model_options(self, capsys, tmp_path, command, options):
        r_file = tmp_path / "r.json"
        run(capsys, "rmatrix", "--model", "identity", "--out", str(r_file))
        code, out, err = run(capsys, command, "--r", str(r_file), *options)
        assert (code, out, err) == (2, "", "error: --copies and --alpha need --model\n")
        # The defaults, written out, are what --r reads anyway.
        assert run(capsys, command, "--r", str(r_file), "--copies", "1", "--alpha", "0")[0] == 0


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


    def test_missing_key_is_a_usage_error_on_one_line(self, capsys, tmp_path):
        path = tmp_path / "no_dims.json"
        obj = serialize.choi_to_obj(random_choi(2, 2, seed=1))
        del obj["dim_in"]
        serialize.dump_json(obj, path)
        code, out, err = run(capsys, "kraus", "--chi", str(path))
        assert (code, out, err) == (2, "", "error: missing key 'dim_in'\n")


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

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_scan_rejects_a_step_count_below_one(self, capsys, tmp_path, steps):
        csv = tmp_path / "x.csv"
        code, out, err = run(
            capsys,
            "scan", "--model", "shifter", "--from", "0", "--to", "1", "--steps", steps, "--csv", str(csv),
        )
        assert (code, out, err) == (2, "", f"error: --steps must be an integer >= 1, got {steps}\n")
        assert not csv.exists()

    def test_scan_of_one_step_writes_one_row(self, capsys, tmp_path):
        csv = tmp_path / "x.csv"
        code, out, _ = run(
            capsys, "scan", "--model", "shifter", "--from", "0.5", "--to", "1", "--steps", "1", "--csv", str(csv),
        )
        assert code == 0 and "rows = 1  failed = 0" in out
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == 0.5

    def test_scan_rejects_other_models(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "scan", "--model", "unot", "--from", "0", "--to", "1", "--steps", "2",
            "--csv", str(tmp_path / "x.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("extra", [["--alpha", "2"], ["--jobs", "2"]])
    def test_scan_rejects_options_it_does_not_read(self, capsys, tmp_path, extra):
        csv = tmp_path / "x.csv"
        code, _, err = run(
            capsys,
            "scan", "--model", "shifter", "--from", "0", "--to", "1", "--steps", "2",
            *extra, "--csv", str(csv),
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not csv.exists()

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

    def test_apply_refuses_both_inputs(self, capsys, tmp_path):
        # Each input alone is valid, so only the pair is refused.
        chi_file, rho_file = tmp_path / "chi.json", tmp_path / "rho.json"
        serialize.dump_json(serialize.choi_to_obj(random_choi(2, 2, seed=2)), chi_file)
        serialize.dump_json(serialize.matrix_to_obj(np.eye(2) / 2), rho_file)
        assert run(capsys, "apply", "--chi", str(chi_file), "--rho", str(rho_file))[0] == 0
        code, out, err = run(capsys, "apply", "--chi", str(chi_file), "--state", "0,0", "--rho", str(rho_file))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


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
        for name, sub in commands.choices.items():
            for action in sub._actions:
                if action.dest == "model":
                    # scan solves only the shifter, so that is the one model it offers
                    assert list(action.choices) == (["shifter"] if name == "scan" else hyphenated)
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


def test_parser_is_built_once_and_calls_stay_independent(capsys, monkeypatch):
    seen = []
    real_solve = solver_module.solve

    def recording_solve(r, opts):
        seen.append(opts)
        return real_solve(r, opts)

    monkeypatch.setattr(solver_module, "solve", recording_solve)
    assert _build_parser() is _build_parser()
    model = ["--model", "shifter", "--alpha", "0.9", "--max-iters", "1"]
    assert run(capsys, "solve", *model, "--tol", "1e-6", "--init", "random:3", "--strict")[0] == 4
    # Not converged after one step either, but --strict did not carry over.
    assert run(capsys, "solve", *model)[0] == 0
    assert seen == [
        SolverOptions(max_iters=1, fid_tol=1e-6, init="random:3"),
        SolverOptions(max_iters=1),
    ]


def test_import_starts_no_process_machinery():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, choiopt, choiopt.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _near_identity(kind: str) -> ChoiOperator:
    m = np.array(identity_choi(2).matrix)
    if kind == "trace":  # trace-preservation deviation 5.0e-10 < TP_TOL
        m[0, 0] *= 1 + 5e-10
    else:  # entrywise Hermiticity deviation 9.8e-11 < PSD_TOL
        m[~np.eye(4, dtype=bool)] += 4.9e-11j
    return ChoiOperator(2, 2, m)


@pytest.mark.parametrize("kind", ["trace", "hermiticity"])
@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--model", "identity", "--chi", "{chi}", "--samples", "100"),
        ("apply", "--chi", "{chi}", "--state", "0,0"),
        ("kraus", "--chi", "{chi}"),
        ("dilate", "--chi", "{chi}"),
    ],
    ids=lambda a: a[0] if isinstance(a, tuple) else a,
)
def test_every_subcommand_accepts_what_validate_accepts(capsys, tmp_path, kind, argv):
    chi_file = tmp_path / "chi.json"
    serialize.dump_json(serialize.choi_to_obj(_near_identity(kind)), chi_file)
    code, out, err = run(capsys, *(a.format(chi=chi_file) for a in argv))
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--model", "identity", "--alpha", "0.5"),
        ("bound", "--model", "entangler-a", "--copies", "4"),
        ("rmatrix", "--model", "unot", "--alpha", "1"),
        ("solve", "--model", "unot", "--init", "random:x"),
        ("solve", "--model", "unot", "--init", "random:-1"),
        ("rmatrix", "--model", "unot", "--nodes-theta", "0"),
        ("rmatrix", "--model", "unot", "--nodes-phi", "8"),
    ],
    ids=" ".join,
)
def test_options_the_model_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--nodes-theta", "--nodes-phi"])
def test_quadrature_nodes_without_quadrature_write_nothing(capsys, tmp_path, flag):
    out_file = tmp_path / "r.json"
    code, out, err = run(capsys, "rmatrix", "--model", "unot", flag, "8", "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err == "error: --nodes-theta and --nodes-phi need --quadrature\n"
    assert not out_file.exists()


def test_solve_starts_from_a_channel_within_psd_tol_of_hermitian(capsys, tmp_path):
    r = 0.75 * np.full((4, 4), 0.25) + 0.25 * np.eye(4) / 4  # full rank, unit trace
    r_file, chi_file = tmp_path / "r.json", tmp_path / "chi.json"
    serialize.dump_json(serialize.target_to_obj(TargetOperator(2, 2, r)), r_file)
    serialize.dump_json(serialize.choi_to_obj(_near_identity("hermiticity")), chi_file)
    code, out, err = run(capsys, "solve", "--r", str(r_file), "--init", str(chi_file))
    assert (code, err) == (0, "")
    assert out.startswith("F = 0.875 ") and "converged = true" in out


def test_nan_kraus_cutoff_is_a_usage_error(capsys, tmp_path):
    chi_file = tmp_path / "chi.json"
    serialize.dump_json(serialize.choi_to_obj(identity_choi(2)), chi_file)
    code, out, err = run(capsys, "kraus", "--chi", str(chi_file), "--cutoff", "nan")
    assert (code, out, err) == (2, "", "error: cutoff must not be NaN\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--nodes-phi", "0"), "nodes_phi must be an integer >= 1, got 0"),
        (("--nodes-phi", "-3"), "nodes_phi must be an integer >= 1, got -3"),
        (("--nodes-theta", "0"), "nodes_theta must be an integer >= 1, got 0"),
    ],
    ids=["phi-0", "phi-negative", "theta-0"],
)
def test_bad_node_count_is_a_usage_error(capsys, tmp_path, argv, message):
    out_file = tmp_path / "r.json"
    code, out, err = run(capsys, "rmatrix", "--model", "unot", "--quadrature", *argv, "--out", str(out_file))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not out_file.exists()


@pytest.mark.parametrize("cutoff", ["2", "inf", "-0.5"])
def test_kraus_cutoff_outside_the_unit_interval_is_a_usage_error(capsys, tmp_path, cutoff):
    chi_file, out_file = tmp_path / "chi.json", tmp_path / "kraus.json"
    serialize.dump_json(serialize.choi_to_obj(identity_choi(2)), chi_file)
    code, out, err = run(capsys, "kraus", "--chi", str(chi_file), "--cutoff", cutoff, "--out", str(out_file))
    assert (code, out, err) == (2, "", f"error: cutoff must be in [0, 1], got {float(cutoff)}\n")
    assert not out_file.exists()


@pytest.mark.parametrize("samples", ["1", "0", "-5"])
def test_validate_rejects_the_sample_count_before_printing(capsys, tmp_path, samples):
    chi_file = tmp_path / "chi.json"
    serialize.dump_json(serialize.choi_to_obj(identity_choi(2)), chi_file)
    code, out, err = run(capsys, "validate", "--model", "identity", "--chi", str(chi_file), "--samples", samples)
    assert (code, out, err) == (2, "", "error: samples must be >= 2\n")


def test_validate_rejects_the_seed_before_printing(capsys, tmp_path):
    chi_file = tmp_path / "chi.json"
    serialize.dump_json(serialize.choi_to_obj(identity_choi(2)), chi_file)
    code, out, err = run(capsys, "validate", "--model", "identity", "--chi", str(chi_file), "--seed", "-1")
    assert (code, out, err) == (2, "", "error: seed must be an integer >= 0, got -1\n")


def test_validate_rejects_a_chi_off_the_model_dims_before_printing(capsys, tmp_path):
    chi_file = tmp_path / "chi.json"
    serialize.dump_json(serialize.choi_to_obj(identity_choi(2)), chi_file)
    code, out, err = run(
        capsys, "validate", "--model", "cloner", "--copies", "2", "--chi", str(chi_file), "--samples", "100"
    )
    assert (code, out, err) == (3, "", "error: channel dims (2,2) != family dims (2,3)\n")


def test_validate_reports_a_non_psd_chi_before_failing(capsys, tmp_path):
    # Finite, Hermitian and trace-preserving, with eigenvalue -1/2.
    chi = ChoiOperator(2, 2, [[1, 0, 0, 1.5], [0, 0, 0, 0], [0, 0, 0, 0], [1.5, 0, 0, 1]])
    chi_file = tmp_path / "chi.json"
    serialize.dump_json(serialize.choi_to_obj(chi), chi_file)
    code, out, err = run(capsys, "validate", "--model", "identity", "--chi", str(chi_file), "--samples", "100")
    assert code == 3
    assert out == (
        "min_eigenvalue = -5.000000e-01  trace_preservation_deviation = 0.000000e+00  "
        "hermiticity_deviation = 0.000000e+00\n"
    )
    assert err == "error: minimum eigenvalue -5.000e-01 below -1.0e-10\n"


@pytest.mark.parametrize("state", ["inf,0", "0.3", "1,2,3"])
def test_apply_state_takes_two_finite_numbers(capsys, tmp_path, state):
    chi_file, out_file = tmp_path / "chi.json", tmp_path / "out.json"
    serialize.dump_json(serialize.choi_to_obj(identity_choi(2)), chi_file)
    code, out, err = run(capsys, "apply", "--chi", str(chi_file), "--state", state, "--out", str(out_file))
    message = f"error: argument --state: expected THETA,PHI, two finite numbers, got {state!r}\n"
    assert (code, out, err) == (2, "", message)
    assert not out_file.exists()


def test_apply_state_with_a_negative_angle(capsys, tmp_path):
    # argparse reads a separate "-1,0" as an option; the = form passes it as the value.
    assert _build_parser().parse_args(["apply", "--chi", "chi.json", "--state=-1,0"]).state == (-1.0, 0.0)
    chi_file, out_file = tmp_path / "chi.json", tmp_path / "out.json"
    serialize.dump_json(serialize.choi_to_obj(identity_choi(2)), chi_file)
    code, out, err = run(capsys, "apply", "--chi", str(chi_file), "--state", "-1,0", "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err.startswith("error: argument --state: ") and err.count("\n") == 1 and err.count("error:") == 1
    assert not out_file.exists()


_KINDS = ("unot", "cloner", "entangler-a", "entangler-b", "shifter", "identity")
_TARGET = ("--model", "--r")
_INPUT = ("--state", "--rho")
# Every option of every subcommand, as the parser declares it:
# option: (dest, default, type, choices, required, nargs, mutually exclusive group).
_OPTIONS = {
    "solve": {
        "--model": ("model", None, None, _KINDS, False, None, _TARGET),
        "--r": ("r", None, None, None, False, None, _TARGET),
        "--copies": ("copies", 1, "int", None, False, None, None),
        "--alpha": ("alpha", 0.0, "float", None, False, None, None),
        "--tol": ("tol", 1e-12, "float", None, False, None, None),
        "--max-iters": ("max_iters", 10000, "int", None, False, None, None),
        "--init": ("init", "maxmix", None, None, False, None, None),
        "--strict": ("strict", False, None, None, False, 0, None),
        "--out": ("out", None, None, None, False, None, None),
    },
    "bound": {
        "--model": ("model", None, None, _KINDS, False, None, _TARGET),
        "--r": ("r", None, None, None, False, None, _TARGET),
        "--copies": ("copies", 1, "int", None, False, None, None),
        "--alpha": ("alpha", 0.0, "float", None, False, None, None),
    },
    "rmatrix": {
        "--model": ("model", None, None, _KINDS, True, None, None),
        "--copies": ("copies", 1, "int", None, False, None, None),
        "--alpha": ("alpha", 0.0, "float", None, False, None, None),
        "--quadrature": ("quadrature", False, None, None, False, 0, None),
        "--nodes-theta": ("nodes_theta", None, "int", None, False, None, None),
        "--nodes-phi": ("nodes_phi", None, "int", None, False, None, None),
        "--out": ("out", None, None, None, False, None, None),
    },
    "kraus": {
        "--chi": ("chi", None, None, None, True, None, None),
        "--cutoff": ("cutoff", 1e-10, "float", None, False, None, None),
        "--out": ("out", None, None, None, False, None, None),
    },
    "dilate": {
        "--chi": ("chi", None, None, None, True, None, None),
        "--out": ("out", None, None, None, False, None, None),
    },
    "apply": {
        "--chi": ("chi", None, None, None, True, None, None),
        "--state": ("state", None, "_bloch_angles", None, False, None, _INPUT),
        "--rho": ("rho", None, None, None, False, None, _INPUT),
        "--out": ("out", None, None, None, False, None, None),
    },
    "scan": {
        "--model": ("model", None, None, ("shifter",), True, None, None),
        "--from": ("start", None, "float", None, True, None, None),
        "--to": ("stop", None, "float", None, True, None, None),
        "--steps": ("steps", None, "int", None, True, None, None),
        "--csv": ("csv", None, None, None, True, None, None),
    },
    "curve": {
        "--model": ("model", None, None, _KINDS, True, None, None),
        "--copies": ("copies", 1, "int", None, False, None, None),
        "--alpha": ("alpha", 0.0, "float", None, False, None, None),
        "--chi": ("chi", None, None, None, True, None, None),
        "--steps": ("steps", None, "int", None, True, None, None),
        "--csv": ("csv", None, None, None, True, None, None),
    },
    "validate": {
        "--model": ("model", None, None, _KINDS, True, None, None),
        "--copies": ("copies", 1, "int", None, False, None, None),
        "--alpha": ("alpha", 0.0, "float", None, False, None, None),
        "--chi": ("chi", None, None, None, True, None, None),
        "--samples": ("samples", 100000, "int", None, False, None, None),
        "--seed": ("seed", 0, "int", None, False, None, None),
    },
}


def _subcommands() -> dict:
    (commands,) = [a for a in _build_parser()._actions if a.dest == "command"]
    return commands.choices


def _declared_options(sub) -> dict:
    groups = {
        id(action): tuple(s for member in group._group_actions for s in member.option_strings)
        for group in sub._mutually_exclusive_groups
        for action in group._group_actions
    }
    return {
        option: (
            action.dest,
            action.default,
            getattr(action.type, "__name__", None),
            None if action.choices is None else tuple(action.choices),
            action.required,
            action.nargs,
            groups.get(id(action)),
        )
        for action in sub._actions
        if action.dest != "help"
        for option in action.option_strings
    }


def test_option_inventory():
    # Option order is free (it only moves --help text); everything else is pinned.
    subcommands = _subcommands()
    assert list(subcommands) == list(_OPTIONS)
    for name, sub in subcommands.items():
        assert _declared_options(sub) == _OPTIONS[name], name


@pytest.mark.parametrize("option", ["--copies", "--alpha", "--chi", "--out"])
def test_shared_options_are_declared_once(option):
    # Subcommands that take a shared option take the one declaration of it.
    actions = {id(a) for sub in _subcommands().values() for a in sub._actions if option in a.option_strings}
    assert len(actions) == 1


@pytest.mark.parametrize("columns", ["40", "200"])  # wrapped and unwrapped usage lines
@pytest.mark.parametrize("command", list(_OPTIONS))
def test_each_subcommand_help_exits_zero(capsys, monkeypatch, command, columns):
    monkeypatch.setenv("COLUMNS", columns)
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: choiopt {command} ")
    for option in _OPTIONS[command]:
        assert option in out


def test_model_defaults_are_the_model_spec_defaults():
    args = _build_parser().parse_args(["bound", "--model", "unot"])
    assert (args.copies, args.alpha) == (ModelSpec.copies, ModelSpec.alpha)
