import numpy as np
import pytest

from choiopt import serialize
from choiopt.channels import apply, density_from_state, identity_choi
from choiopt.cli import _build_parser, main
from choiopt.models import MODEL_KINDS, ModelSpec, analytic_r, bloch_state
from choiopt.solver import random_choi


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
