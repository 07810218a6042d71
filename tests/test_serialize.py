import json

import numpy as np
import pytest

from choiopt import serialize
from choiopt.channels import kraus_from_choi
from choiopt.errors import InvalidChoiError
from choiopt.models import ModelSpec, analytic_r
from choiopt.solver import SolverOptions, random_choi, solve


class TestMatrixFormat:
    def test_layout(self):
        m = np.array([[1 + 2j, 3], [4, 5 - 1j]])
        obj = serialize.matrix_to_obj(m)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"][0] == [1.0, 2.0]
        assert obj["data"][3] == [5.0, -1.0]

    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_exact(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        assert np.array_equal(serialize.matrix_from_obj(serialize.matrix_to_obj(m)), m)

    def test_json_text_round_trip_exact(self, tmp_path):
        m = np.random.default_rng(9).standard_normal((4, 4)) * np.pi
        path = tmp_path / "m.json"
        serialize.dump_json(serialize.matrix_to_obj(m), path)
        back = serialize.matrix_from_obj(serialize.load_json(path))
        assert np.array_equal(back, m.astype(complex))

    def test_length_check(self):
        with pytest.raises(ValueError):
            serialize.matrix_from_obj({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    @pytest.mark.parametrize(
        "change",
        [
            {"rows": None},
            {"cols": 2.0},
            {"rows": True},
            {"rows": -2, "cols": -2},
            {"data": 5},
            {"data": [["a", "b"]] * 4},
            {"data": [1] * 4},
            {"data": [[1.0, 0.0, 0.0]] * 4},
            {"data": [[True, False]] * 4},
        ],
        ids=repr,
    )
    def test_shape_and_type_checks(self, change):
        obj = dict(serialize.matrix_to_obj(np.eye(2)), **change)
        with pytest.raises(ValueError):
            serialize.matrix_from_obj(obj)

    @pytest.mark.parametrize("top", [[1, 2], 3, "text", None])
    def test_top_level_must_be_an_object(self, tmp_path, top):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(top))
        with pytest.raises(ValueError, match="JSON object"):
            serialize.load_json(path)
        with pytest.raises(ValueError, match="JSON object"):
            serialize.matrix_from_obj(top)


class TestChoiFormat:
    def test_fields(self):
        obj = serialize.choi_to_obj(random_choi(2, 3, seed=0))
        assert obj["ordering"] == "in_tensor_out"
        assert obj["dim_in"] == 2 and obj["dim_out"] == 3
        assert obj["rows"] == 6

    def test_round_trip(self, tmp_path):
        chi = random_choi(2, 3, seed=1)
        path = tmp_path / "chi.json"
        serialize.dump_json(serialize.choi_to_obj(chi), path)
        back = serialize.choi_from_obj(serialize.load_json(path))
        assert np.array_equal(back.matrix, chi.matrix)

    def test_validation_on_load(self):
        obj = serialize.choi_to_obj(random_choi(2, 2, seed=2))
        obj["data"][0] = [5.0, 0.0]
        with pytest.raises(InvalidChoiError):
            serialize.choi_from_obj(obj)
        lenient = serialize.choi_from_obj(obj, validate=False)
        assert lenient.matrix[0, 0] == 5.0

    @pytest.mark.parametrize("change", [{"dim_in": None}, {"dim_out": "2"}, {"dim_in": 0}], ids=repr)
    def test_dims_must_be_positive_integers(self, change):
        obj = dict(serialize.choi_to_obj(random_choi(2, 2, seed=3)), **change)
        with pytest.raises(ValueError):
            serialize.choi_from_obj(obj)
        with pytest.raises(ValueError):
            serialize.target_from_obj(obj)

    def test_non_finite_rejected_without_validation(self):
        obj = serialize.choi_to_obj(random_choi(2, 2, seed=2))
        obj["data"][0] = [float("nan"), 0.0]
        with pytest.raises(InvalidChoiError, match="non-finite"):
            serialize.choi_from_obj(obj, validate=False)

    def test_rejects_foreign_ordering(self):
        obj = serialize.choi_to_obj(random_choi(2, 2, seed=3))
        obj["ordering"] = "out_tensor_in"
        with pytest.raises(ValueError):
            serialize.choi_from_obj(obj)


class TestTargetFormat:
    def test_round_trip_with_kind(self, tmp_path):
        r = analytic_r(ModelSpec("entangler_a"))
        obj = serialize.target_to_obj(r)
        assert obj["kind"] == "target"
        path = tmp_path / "r.json"
        serialize.dump_json(obj, path)
        back = serialize.target_from_obj(serialize.load_json(path))
        assert np.array_equal(back.matrix, r.matrix)
        assert back.lambda_max == pytest.approx(r.lambda_max, abs=1e-15)

    def test_the_stored_dual_is_not_written(self):
        # A loaded target carries no dual, so its endgame runs the barrier.
        r = analytic_r(ModelSpec("shifter", alpha=0.71))
        obj = serialize.target_to_obj(r)
        assert r.dual is not None and "dual" not in obj
        assert serialize.target_from_obj(obj).dual is None


class TestKrausFormat:
    def test_round_trip(self, tmp_path):
        ks = kraus_from_choi(random_choi(2, 3, seed=4))
        path = tmp_path / "k.json"
        serialize.dump_json(serialize.kraus_to_obj(ks), path)
        back = serialize.kraus_from_obj(serialize.load_json(path))
        assert len(back.operators) == len(ks.operators)
        for a, b in zip(back.operators, ks.operators):
            assert np.array_equal(a, b)
        assert np.array_equal(back.weights, ks.weights)


class TestResultFormat:
    def test_fields(self):
        result = solve(analytic_r(ModelSpec("unot", copies=1)), SolverOptions())
        obj = serialize.result_to_obj(result)
        assert set(obj) == {"fidelity", "bound", "iterations", "converged", "gap", "fidelity_trace", "chi"}
        assert obj["converged"] is True
        assert obj["fidelity"] == result.fidelity
        assert len(obj["fidelity_trace"]) == result.iterations

    def test_certified_gap_round_trip(self, tmp_path):
        result = solve(analytic_r(ModelSpec("shifter", alpha=3.0)))
        assert result.gap <= SolverOptions().fid_tol  # the dual endgame finished this row
        path = tmp_path / "res.json"
        serialize.dump_json(serialize.result_to_obj(result), path)
        back = serialize.load_json(path)
        assert back["gap"] == result.gap and back["converged"] is True
        assert serialize.choi_from_obj(back["chi"]).matrix.tobytes() == result.chi.matrix.tobytes()

    def test_fixed_point_stop_writes_null_gap(self, tmp_path):
        result = solve(analytic_r(ModelSpec("unot", copies=1)))
        assert np.isnan(result.gap)
        path = tmp_path / "res.json"
        serialize.dump_json(serialize.result_to_obj(result), path)
        assert '"gap": null' in path.read_text() and "NaN" not in path.read_text()
        assert serialize.load_json(path)["gap"] is None

    def test_deterministic_bytes(self, tmp_path):
        result = solve(analytic_r(ModelSpec("cloner", copies=2)))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        serialize.dump_json(serialize.result_to_obj(result), p1)
        serialize.dump_json(serialize.result_to_obj(result), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsv:
    def test_scan_csv_header_and_rows(self, tmp_path):
        from choiopt.analysis import alpha_scan

        rows = alpha_scan([0.0, np.pi / 2])
        path = tmp_path / "scan.csv"
        serialize.write_scan_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "alpha,beta_opt,F_solver,F_closed,F_bound"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(1.0, abs=1e-9)

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        serialize.write_curve_csv(np.array([[0.0, 1.0], [np.pi, 0.5]]), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "theta,F"
        assert len(lines) == 3

    def test_significant_digits(self):
        assert serialize.format_float(2 / 3) == "0.666666666666667"


def _kraus_obj():
    # random_choi(2, 3) has full rank, so the set holds six 3x2 operators.
    return serialize.kraus_to_obj(kraus_from_choi(random_choi(2, 3, seed=4)))


def _set(key, value):
    def change(obj):
        obj[key] = value

    return change


def _reshape_first_operator(obj):
    obj["operators"][0] = serialize.matrix_to_obj(np.zeros((2, 3)))


def _drop_a_weight(obj):
    obj["weights"].pop()


def _string_weight(obj):
    obj["weights"][0] = "0.5"


def _non_finite_weight(obj):
    obj["weights"][0] = float("nan")


def _non_finite_operator_entry(obj):
    obj["operators"][0]["data"][0] = [float("nan"), 0.0]


def _infinite_operator_entry(obj):
    obj["operators"][-1]["data"][-1] = [0.0, float("inf")]


class TestKrausReader:
    def test_json_text_round_trip_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "k1.json", tmp_path / "k2.json"
        serialize.dump_json(_kraus_obj(), first)
        back = serialize.kraus_from_obj(serialize.load_json(first))
        serialize.dump_json(serialize.kraus_to_obj(back), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "change",
        [
            _set("dim_in", 2.0),
            _set("dim_in", "2"),
            _set("dim_in", 0),
            _set("dim_out", 0),
            _set("ordering", "out_tensor_in"),
            _set("operators", "A"),
            _set("operators", {"rows": 3, "cols": 2}),
            _reshape_first_operator,
            _set("dim_in", 3),
            _drop_a_weight,
            _string_weight,
            _set("weights", None),
            _non_finite_weight,
            _non_finite_operator_entry,
            _infinite_operator_entry,
        ],
    )
    def test_rejects_malformed(self, change):
        obj = _kraus_obj()
        change(obj)
        with pytest.raises(ValueError):
            serialize.kraus_from_obj(obj)


_OPERATOR_KEYS = ("dim_in", "dim_out", "rows", "cols", "data")
_REQUIRED_KEYS = {
    "matrix_from_obj": (serialize.matrix_to_obj(np.eye(2)), ("rows", "cols", "data")),
    "choi_from_obj": (serialize.choi_to_obj(random_choi(2, 2, seed=1)), _OPERATOR_KEYS),
    "target_from_obj": (serialize.target_to_obj(analytic_r(ModelSpec("cloner", copies=2))), _OPERATOR_KEYS),
    "kraus_from_obj": (_kraus_obj(), ("dim_in", "dim_out", "operators", "weights")),
}


class TestMissingKeys:
    # A missing key is a malformed file: a ValueError that names the key,
    # not a bare KeyError.
    @pytest.mark.parametrize(
        "loader, key", [(loader, key) for loader, (_, keys) in _REQUIRED_KEYS.items() for key in keys]
    )
    def test_each_loader_names_the_missing_key(self, loader, key):
        obj = dict(_REQUIRED_KEYS[loader][0])
        del obj[key]
        with pytest.raises(ValueError, match=f"^missing key '{key}'$"):
            getattr(serialize, loader)(obj)

    def test_an_empty_object(self):
        with pytest.raises(ValueError, match="^missing key 'dim_in'$"):
            serialize.choi_from_obj({})
