import tracemalloc

import numpy as np
import pytest

import choiopt.analysis
from choiopt.analysis import alpha_scan, mc_fidelity, ppt_check, state_fidelity_curve
from choiopt.channels import ChoiOperator, DensityMatrix, fidelity
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
from choiopt.solver import SolverOptions, random_choi
from choiopt.targets import SAMPLE_BLOCK, StateFamily, fidelity_bound, integrand_rows, sphere_samples
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

    @pytest.mark.parametrize("samples", [2, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, 2 * SAMPLE_BLOCK + 7])
    def test_blocked_equals_one_shot(self, samples):
        spec = ModelSpec("entangler_a")
        chi, family = known_optimum(spec).chi, model_family(spec)
        est = mc_fidelity(chi, family, samples, seed=21)
        v = integrand_rows(family, *sphere_samples(samples, 21))
        f = np.einsum("sa,ab,sb->s", v.conj(), chi.matrix, v).real
        assert abs(est.mean - f.mean()) <= 1e-15
        assert abs(est.std_error - f.std(ddof=1) / np.sqrt(samples)) <= 1e-15

    def test_memory_is_per_block(self):
        # Angle and fidelity arrays (with the uniform draw the angles come
        # from), plus a few blocks of rows; scoring every sample at once held
        # all rows and their products (~58 MB here).
        samples, n = 200_000, 8
        spec = ModelSpec("entangler_a")
        chi, family = known_optimum(spec).chi, model_family(spec)
        mc_fidelity(chi, family, 1000, seed=0)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            mc_fidelity(chi, family, samples, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * samples * 8 + 8 * SAMPLE_BLOCK * n * 16

    def test_full_rank_contraction_memory_is_per_block(self):
        # A full-rank chi keeps all n eigenvectors, and the contraction still holds
        # one block's (SAMPLE_BLOCK, n) overlaps: never a block's SAMPLE_BLOCK n^2
        # entries (~17 MB here) nor every sample's rows (~51 MB).
        samples, spec = 200_000, ModelSpec("cloner", copies=7)
        family, n = model_family(spec), 16
        chi = random_choi(*spec.dims, seed=3)
        mc_fidelity(chi, family, 1000, seed=0)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            mc_fidelity(chi, family, samples, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * samples * 8 + 8 * SAMPLE_BLOCK * n * 16

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


def quadratic_form_fidelities(chi: ChoiOperator, family: StateFamily, thetas, phis) -> np.ndarray:
    """v_s† chi v_s per sample through chi's n x n matrix: the oracle of the
    eigenvector contraction in _pointwise_fidelities."""
    v = integrand_rows(family, thetas, phis)
    return np.einsum("sb,sb->s", v.conj() @ chi.matrix, v).real


def chi_with_eigenvalue(w: float) -> ChoiOperator:
    """The qubit channel |0><0| -> |1><1|, |1><1| fixed, with its |00><00| entry
    set to w: eigenvalues w, 0, 1, 1, trace-preserving within |w|."""
    m = np.diag([w, 1.0, 0.0, 1.0]).astype(np.complex128)
    return ChoiOperator(2, 2, m)


def scalar_only(evaluator):
    """evaluator as one that raises on arrays, so evaluate_family calls it per sample."""

    def ev(theta, phi):
        if not np.isscalar(theta):
            raise TypeError("scalars only")
        return evaluator(theta, phi)

    return ev


class TestPointwiseFidelitiesFromEigenvectors:
    # Each sampled fidelity is sum_l w_l |<e_l, v>|^2 over chi's eigenpairs on
    # the support of |w|; it must equal v† chi v to rounding, whatever chi's rank
    # and whatever the sign of its small eigenvalues.
    ANGLES = sphere_samples(2 * SAMPLE_BLOCK + 7, 31)

    @pytest.mark.parametrize(
        "name, chi, spec",
        [
            ("full-rank", random_choi(2, 4, seed=8), ModelSpec("entangler_a")),
            ("rank-1 isometry", known_optimum(ModelSpec("entangler_a")).chi, ModelSpec("entangler_a")),
            ("eigenvalue -1e-17", chi_with_eigenvalue(-1e-17), ModelSpec("shifter", alpha=1.2)),
            ("eigenvalue -5e-11", chi_with_eigenvalue(-5e-11), ModelSpec("shifter", alpha=1.2)),
            ("full-rank cloner", random_choi(2, 4, seed=9), ModelSpec("cloner", copies=3)),
        ],
        ids=lambda x: x if isinstance(x, str) else "",
    )
    def test_equal_to_the_quadratic_form(self, name, chi, spec):
        family = model_family(spec)
        got = choiopt.analysis._pointwise_fidelities(chi, family, *self.ANGLES)
        assert np.abs(got - quadratic_form_fidelities(chi, family, *self.ANGLES)).max() <= 1e-14

    def test_a_kept_negative_eigenvalue_counts(self):
        # -5e-11 passes the support rule on |w| (relative cutoff 1e-12), so the
        # |00> component of each sample lowers its fidelity by 5e-11 |v_0|^2.
        family = model_family(ModelSpec("shifter", alpha=1.2))
        base = choiopt.analysis._pointwise_fidelities(chi_with_eigenvalue(0.0), family, *self.ANGLES)
        got = choiopt.analysis._pointwise_fidelities(chi_with_eigenvalue(-5e-11), family, *self.ANGLES)
        v0 = integrand_rows(family, *self.ANGLES)[:, 0]
        assert np.abs(got - (base - 5e-11 * np.abs(v0) ** 2)).max() <= 1e-15

    def test_a_scalar_only_family_gives_the_same_fidelities(self):
        spec = ModelSpec("entangler_a")
        family = model_family(spec)
        per_sample = StateFamily(2, 4, scalar_only(family.evaluator), family.trig_degree)
        chi = random_choi(2, 4, seed=8)
        thetas, phis = sphere_samples(300, 4)
        got = choiopt.analysis._pointwise_fidelities(chi, per_sample, thetas, phis)
        assert np.array_equal(got, choiopt.analysis._pointwise_fidelities(chi, family, thetas, phis))
        assert np.abs(got - quadratic_form_fidelities(chi, family, thetas, phis)).max() <= 1e-14
        assert mc_fidelity(chi, per_sample, 300, 4) == mc_fidelity(chi, family, 300, 4)


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

    # (2, 3) does not factor 4; the others fail the count rule (channels.require_dims).
    @pytest.mark.parametrize("dims", [(2, 3), (2.0, 2), (4, 1.0), (True, 4), (-2, -2)], ids=str)
    def test_dim_mismatch(self, dims):
        with pytest.raises(DimensionMismatchError):
            ppt_check(DensityMatrix(np.eye(4) / 4), *dims)


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

    def test_row_flagged_on_failure(self):
        rows = alpha_scan([0.5], solver_opts=SolverOptions(max_iters=1))
        assert rows[0].error is None  # non-convergence is reported, not an error
        assert not rows[0].converged


class TestTypedErrors:
    def test_mc_fidelity_needs_two_samples(self):
        spec = ModelSpec("identity")
        with pytest.raises(ValueError, match="samples"):
            mc_fidelity(known_optimum(spec).chi, model_family(spec), samples=1, seed=0)

    def test_curve_needs_two_steps(self):
        spec = ModelSpec("identity")
        with pytest.raises(ValueError, match="theta_steps"):
            state_fidelity_curve(known_optimum(spec).chi, model_family(spec), theta_steps=1)

    @pytest.mark.parametrize("samples", [True, 2.5, 3.0, "3", None])
    def test_mc_fidelity_samples_follow_the_count_rule(self, samples):
        spec = ModelSpec("identity")
        with pytest.raises(ValueError, match=r"^samples must be >= 2$"):
            mc_fidelity(known_optimum(spec).chi, model_family(spec), samples=samples, seed=0)

    @pytest.mark.parametrize("theta_steps", [True, 2.5, 3.0, "3", None])
    def test_curve_steps_follow_the_count_rule(self, theta_steps):
        spec = ModelSpec("identity")
        with pytest.raises(ValueError, match=r"^theta_steps must be >= 2$"):
            state_fidelity_curve(known_optimum(spec).chi, model_family(spec), theta_steps=theta_steps)

    def test_numpy_counts_accepted(self):
        spec = ModelSpec("identity")
        chi, family = known_optimum(spec).chi, model_family(spec)
        assert mc_fidelity(chi, family, np.int64(3), 0) == mc_fidelity(chi, family, 3, 0)
        curve = state_fidelity_curve(chi, family, 3)
        assert np.array_equal(state_fidelity_curve(chi, family, np.int64(3)), curve)

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
        (row,) = alpha_scan([1.2])
        assert row.alpha == 1.2
        assert row.F_closed == shifter_closed_forms(1.2).fidelity
        assert row.F_bound == fidelity_bound(analytic_r(ModelSpec("shifter", alpha=1.2)))
        assert row.converged is False
        assert np.isnan(row.F_solver) and np.isnan(row.beta_opt)
        assert row.error == "RuntimeError: no convergence today"
