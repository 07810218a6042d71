import numpy as np
import pytest

import choiopt.analysis
from choiopt.analysis import alpha_scan, mc_fidelity, ppt_check, state_fidelity_curve
from choiopt.channels import DensityMatrix, fidelity
from choiopt.errors import DimensionMismatchError
from choiopt.models import (
    ALPHA_THRESHOLD,
    ENTANGLER_A_MIN_FIDELITY,
    ModelSpec,
    analytic_r,
    entangler_a_state_fidelity,
    known_optimum,
    model_family,
    shifter_closed_forms,
)
from choiopt.solver import SolverOptions
from choiopt.targets import fidelity_bound
from helpers import entangler_b_mixed_state


class TestMcFidelity:
    def test_unot_state_independent(self):
        spec = ModelSpec("unot", copies=1)
        est = mc_fidelity(known_optimum(spec).chi, model_family(spec), samples=2000, seed=1)
        assert abs(est.mean - 2 / 3) <= 1e-12
        assert est.std_error <= 1e-12

    def test_entangler_b_constant(self):
        spec = ModelSpec("entangler_b")
        est = mc_fidelity(known_optimum(spec).chi, model_family(spec), samples=2000, seed=2)
        assert abs(est.mean - 1 / 3) <= 1e-12
        assert est.std_error <= 1e-12

    def test_entangler_a_against_closed_form(self):
        spec = ModelSpec("entangler_a")
        est = mc_fidelity(known_optimum(spec).chi, model_family(spec), samples=10**6, seed=3)
        target = known_optimum(spec).fidelity
        assert abs(est.mean - target) <= 3 * est.std_error

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec("unot", copies=1),
            ModelSpec("cloner", copies=2),
            ModelSpec("entangler_a"),
            ModelSpec("entangler_b"),
            ModelSpec("shifter", alpha=1.1),
            ModelSpec("identity"),
        ],
        ids=str,
    )
    def test_agrees_with_trace_formula(self, spec):
        chi = known_optimum(spec).chi
        if chi is None:
            from choiopt.solver import solve

            chi = solve(analytic_r(spec)).chi
        est = mc_fidelity(chi, model_family(spec), samples=10**5, seed=11)
        exact = fidelity(chi, analytic_r(spec))
        assert abs(est.mean - exact) <= 4 * max(est.std_error, 1e-12)

    def test_deterministic(self):
        spec = ModelSpec("shifter", alpha=0.8)
        chi = known_optimum(spec).chi
        a = mc_fidelity(chi, model_family(spec), samples=1000, seed=7)
        b = mc_fidelity(chi, model_family(spec), samples=1000, seed=7)
        assert a == b

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mc_fidelity(
                known_optimum(ModelSpec("identity")).chi,
                model_family(ModelSpec("entangler_a")),
                samples=10,
                seed=0,
            )


class TestStateFidelityCurve:
    def test_entangler_a_endpoints_and_minimum(self):
        spec = ModelSpec("entangler_a")
        curve = state_fidelity_curve(known_optimum(spec).chi, model_family(spec), theta_steps=501)
        assert abs(curve[0, 1] - 1.0) <= 1e-12
        assert abs(curve[-1, 1] - 1.0) <= 1e-12
        assert abs(curve[:, 1].min() - ENTANGLER_A_MIN_FIDELITY) <= 1e-4

    def test_matches_pointwise_formula(self):
        spec = ModelSpec("entangler_a")
        curve = state_fidelity_curve(known_optimum(spec).chi, model_family(spec), theta_steps=41)
        assert np.abs(curve[:, 1] - entangler_a_state_fidelity(curve[:, 0])).max() <= 1e-10

    def test_grid_shape(self):
        spec = ModelSpec("identity")
        curve = state_fidelity_curve(known_optimum(spec).chi, model_family(spec), theta_steps=11)
        assert curve.shape == (11, 2)
        assert curve[0, 0] == 0.0 and abs(curve[-1, 0] - np.pi) <= 1e-15


class TestPptCheck:
    def test_constant_entangler_output_is_ppt(self):
        report = ppt_check(DensityMatrix(entangler_b_mixed_state()), 2, 2)
        assert report.ppt
        assert report.certifies_separability
        assert report.min_pt_eigenvalue >= -1e-12

    def test_maximally_entangled_fails(self):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        report = ppt_check(DensityMatrix(np.outer(v, v.conj())), 2, 2)
        assert not report.ppt
        assert abs(report.min_pt_eigenvalue - (-0.5)) <= 1e-12

    def test_maximally_mixed(self):
        report = ppt_check(DensityMatrix(np.eye(4) / 4), 2, 2)
        assert report.ppt and report.certifies_separability

    def test_large_dims_do_not_certify(self):
        report = ppt_check(DensityMatrix(np.eye(9) / 9), 3, 3)
        assert report.ppt
        assert not report.certifies_separability

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ppt_check(DensityMatrix(np.eye(4) / 4), 2, 3)


@pytest.fixture(scope="module")
def rows():
    return alpha_scan(np.linspace(0.0, np.pi, 16))


class TestAlphaScan:

    def test_rows_ordered_and_clean(self, rows):
        assert [r.alpha for r in rows] == sorted(r.alpha for r in rows)
        assert all(r.error is None and r.converged for r in rows)

    def test_endpoint_values(self, rows):
        assert abs(rows[0].F_solver - 1.0) <= 1e-9
        assert abs(rows[0].F_bound - 1.0) <= 1e-12
        assert abs(rows[-1].F_solver - 2 / 3) <= 1e-9
        assert abs(rows[-1].F_bound - 2 / 3) <= 1e-12

    def test_closed_form_never_beats_solver(self, rows):
        for r in rows:
            assert r.F_closed <= r.F_solver + 1e-8
            assert r.F_solver <= r.F_bound + 1e-9

    def test_solver_rediscovers_damping_ansatz(self, rows):
        for r in rows:
            assert abs(r.F_solver - r.F_closed) <= 1e-8
        # The ansatz shape is recovered away from the fully degenerate endpoint
        # alpha = pi, where several distinct channels reach the same optimum and
        # the iteration happens to pick the inverting gate.
        for r in rows:
            if r.alpha < np.pi - 1e-9:
                assert r.fit_residual <= 1e-4, f"alpha={r.alpha}"
        assert rows[-1].fit_residual > 1e-2

    def test_beta_matches_closed_form(self, rows):
        for r in rows:
            if r.alpha < np.pi - 1e-9:
                want = shifter_closed_forms(r.alpha).beta_opt
                assert abs(np.cos(r.beta_opt) - np.cos(want)) <= 1e-5

    def test_parallel_jobs_identical(self):
        alphas = np.linspace(0.2, 2.8, 6)
        serial = alpha_scan(alphas, jobs=1)
        parallel = alpha_scan(alphas, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.alpha == b.alpha
            assert a.F_solver == b.F_solver
            assert a.beta_opt == b.beta_opt

    def test_row_flagged_on_failure(self):
        rows = alpha_scan([0.5], solver_opts=SolverOptions(max_iters=1))
        assert rows[0].error is None  # non-convergence is reported, not an error
        assert not rows[0].converged


class TestScanWorkers:
    @pytest.fixture()
    def pools(self, monkeypatch):
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(choiopt.analysis, "ProcessPoolExecutor", RecordingPool)
        return made

    def test_one_row_builds_no_pool(self, pools):
        (row,) = alpha_scan([1.2], jobs=8)
        assert pools == [] and row.error is None

    def test_never_more_workers_than_rows(self, pools):
        rows = alpha_scan([2.0, 0.5, 1.2], jobs=8)
        assert pools == [3]
        assert [row.alpha for row in rows] == [0.5, 1.2, 2.0]

    def test_zero_jobs_rejected(self, pools):
        with pytest.raises(ValueError, match="jobs"):
            alpha_scan([1.2], jobs=0)
        assert pools == []


class TestTypedErrors:
    def test_mc_fidelity_needs_two_samples(self):
        spec = ModelSpec("identity")
        with pytest.raises(ValueError, match="samples"):
            mc_fidelity(known_optimum(spec).chi, model_family(spec), samples=1, seed=0)

    def test_curve_needs_two_steps(self):
        spec = ModelSpec("identity")
        with pytest.raises(ValueError, match="theta_steps"):
            state_fidelity_curve(known_optimum(spec).chi, model_family(spec), theta_steps=1)

    def test_curve_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            state_fidelity_curve(
                known_optimum(ModelSpec("identity")).chi,
                model_family(ModelSpec("entangler_a")),
                theta_steps=5,
            )

    def test_scan_row_records_a_solver_exception(self, monkeypatch):
        def fail(r, opts):
            raise RuntimeError("no convergence today")

        monkeypatch.setattr(choiopt.analysis, "solve", fail)
        (row,) = alpha_scan([1.2], jobs=1)
        assert row.alpha == 1.2
        assert row.F_closed == shifter_closed_forms(1.2).fidelity
        assert row.F_bound == fidelity_bound(analytic_r(ModelSpec("shifter", alpha=1.2)))
        assert row.converged is False
        assert np.isnan(row.F_solver) and np.isnan(row.beta_opt)
        assert row.error == "RuntimeError: no convergence today"
