import numpy as np
import pytest

from choiopt.channels import ChoiOperator, apply_matrix, fidelity, maxmix_choi, validate_choi
from choiopt.errors import (
    DimensionMismatchError,
    InvalidChoiError,
    InvalidSpecError,
    NegativeEigenvalueError,
    SingularLambdaError,
)
from choiopt.linalg import hermitian_part, partial_trace, psd_sqrt, reg_inverse
from choiopt.models import (
    ModelSpec,
    analytic_r,
    damping_channel,
    known_optimum,
)
from choiopt.solver import PINV_CUTOFF, SolverOptions, initial_choi, iterate_once, random_choi, solve
from choiopt.targets import TargetOperator
from helpers import (
    entangler_b_mixed_state,
    random_density,
    random_hermitian,
    random_target_matrix,
    unot_channel_action,
)

UNOT1 = analytic_r(ModelSpec("unot", copies=1))


class TestIterateOnce:
    def test_single_step_reaches_inverting_gate(self):
        chi1 = iterate_once(maxmix_choi(2, 2), UNOT1)
        # One step from the unbiased start lands on twice the target projector,
        # whose action is the optimal state-independent inverting channel.
        assert np.abs(chi1.matrix - 2.0 * UNOT1.matrix).max() <= 1e-12
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                got = apply_matrix(chi1, unit)
                assert np.abs(got - unot_channel_action(unit)).max() <= 1e-12

    def test_entangler_a_optimum_is_a_fixed_point(self):
        spec = ModelSpec("entangler_a")
        chi = known_optimum(spec).chi
        again = iterate_once(chi, analytic_r(spec))
        assert np.linalg.norm(again.matrix - chi.matrix) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_step_preserves_constraints(self, seed):
        r = analytic_r(ModelSpec("shifter", alpha=1.9))
        chi = random_choi(2, 2, seed=seed)
        out = iterate_once(chi, r)
        report = validate_choi(out)
        assert report.trace_preservation_deviation <= 1e-9
        assert report.min_eigenvalue >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            iterate_once(maxmix_choi(2, 3), UNOT1)

    def test_singular_multiplier_detected(self):
        # Target supported on |00><00| only, channel sending everything to |1>:
        # R chi R vanishes identically.
        target = TargetOperator(2, 2, np.diag([1.0, 0.0, 0.0, 0.0]))
        constant_one = damping_channel(np.pi / 2)
        with pytest.raises(SingularLambdaError):
            iterate_once(constant_one, target)


def reference_step(chi: ChoiOperator, r: TargetOperator) -> np.ndarray:
    """The update as the paper writes it: a Kronecker sandwich with
    Lambda^{-1} = (Tr_K[R chi R])^{-1/2} (x) 1_K."""
    m = r.matrix @ chi.matrix @ r.matrix
    lam_inv = reg_inverse(psd_sqrt(partial_trace(m, r.dim_in, r.dim_out)), PINV_CUTOFF)
    sandwich = np.kron(lam_inv, np.eye(r.dim_out))
    return hermitian_part(sandwich @ m @ sandwich)


class TestStepAgainstReference:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (31, 2)], ids=str)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_start(self, dims, seed):
        rng = np.random.default_rng(seed)
        r = TargetOperator(*dims, random_target_matrix(rng, dims[0] * dims[1]))
        chi = random_choi(*dims, seed=seed)
        assert np.abs(iterate_once(chi, r).matrix - reference_step(chi, r)).max() <= 1e-13

    def test_rank_deficient_multiplier(self):
        # R lives on input |0> only, so lambda is singular and its
        # pseudo-inverse drops the |1> direction.
        r = TargetOperator(2, 2, np.diag([0.5, 0.5, 0.0, 0.0]))
        chi = random_choi(2, 2, seed=5)
        assert np.abs(iterate_once(chi, r).matrix - reference_step(chi, r)).max() <= 1e-13

    def test_negative_marginal_raises(self):
        # Hermitian chi whose marginal Tr_K chi = diag(1, -1) is indefinite;
        # with R = 1/4 the marginal of R chi R keeps that sign.
        r = TargetOperator(2, 2, np.eye(4) / 4)
        chi = ChoiOperator(2, 2, np.kron(np.diag([1.0, -1.0]), np.eye(2) / 2))
        with pytest.raises(NegativeEigenvalueError):
            iterate_once(chi, r)

    def test_marginal_below_clip_tolerance_is_singular(self):
        # Tr_K[R chi R] = diag(1e-13, 0): every eigenvalue clips to zero.
        r = TargetOperator(2, 2, np.diag([1.0, 0.0, 0.0, 0.0]))
        chi = ChoiOperator(2, 2, np.diag([1e-13, 1.0, 1.0, 0.0]))
        with pytest.raises(SingularLambdaError):
            iterate_once(chi, r)

    @pytest.mark.parametrize("n", [4, 6, 62])
    def test_fidelity_matches_trace_of_product(self, n):
        rng = np.random.default_rng(n)
        chi = random_hermitian(rng, n) / n
        r = random_hermitian(rng, n) / n
        got = fidelity(ChoiOperator(n // 2, 2, chi), r)
        assert abs(got - np.trace(chi @ r).real) <= 1e-14


class TestSolve:
    def test_cloner_two_copies(self):
        result = solve(analytic_r(ModelSpec("cloner", copies=2)))
        assert result.converged
        assert result.iterations <= 200
        assert abs(result.fidelity - 2 / 3) < 1e-10

    def test_entangler_b_constant_output(self):
        result = solve(analytic_r(ModelSpec("entangler_b")))
        assert abs(result.fidelity - 1 / 3) <= 1e-9
        expected = entangler_b_mixed_state()
        for seed in range(5):
            rho = random_density(np.random.default_rng(seed), 2)
            out = apply_matrix(result.chi, rho)
            assert np.abs(out - expected).max() <= 1e-8

    def test_half_pi_shift_value(self):
        result = solve(analytic_r(ModelSpec("shifter", alpha=np.pi / 2)))
        assert abs(result.fidelity - (4 + np.pi) / 8) <= 1e-9

    def test_unot_value_independent_of_start(self):
        fids = [solve(UNOT1).fidelity]
        for seed in range(10):
            fids.append(solve(UNOT1, SolverOptions(init=f"random:{seed}")).fidelity)
        assert all(abs(f - 2 / 3) <= 1e-8 for f in fids)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_unot_multi_copy_saturates_bound(self, n):
        result = solve(analytic_r(ModelSpec("unot", copies=n)))
        assert abs(result.fidelity - (n + 1) / (n + 2)) <= 1e-10

    def test_degenerate_optimum_reported(self):
        # The inverting-gate multiplier is proportional to the identity, so
        # its eigenvalue gap collapses and the solution manifold is flat.
        assert solve(UNOT1).lambda_gap <= 1e-10

    def test_trace_respects_bound(self):
        result = solve(analytic_r(ModelSpec("entangler_a")))
        assert all(f <= result.bound + 1e-9 for f in result.fidelity_trace)
        assert len(result.fidelity_trace) == result.iterations

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec("unot", copies=1),
            ModelSpec("cloner", copies=2),
            ModelSpec("entangler_a"),
            ModelSpec("entangler_b"),
            ModelSpec("shifter", alpha=2.0),
            ModelSpec("identity"),
        ],
        ids=str,
    )
    def test_converged_chi_is_a_fixed_point(self, spec):
        r = analytic_r(spec)
        result = solve(r)
        assert result.converged
        again = iterate_once(result.chi, r)
        assert np.linalg.norm(again.matrix - result.chi.matrix) <= 1e-9

    def test_non_convergence_is_reported_not_raised(self):
        result = solve(analytic_r(ModelSpec("shifter", alpha=0.9)), SolverOptions(max_iters=2))
        assert not result.converged
        assert result.iterations == 2
        assert len(result.fidelity_trace) == 2

    def test_explicit_init_at_fixed_point_converges_immediately(self):
        spec = ModelSpec("entangler_a")
        result = solve(analytic_r(spec), SolverOptions(init=known_optimum(spec).chi))
        assert result.converged
        assert result.iterations == 1

    @pytest.mark.parametrize(
        "spec", [ModelSpec("shifter", alpha=0.5), ModelSpec("cloner", copies=10)], ids=str
    )
    def test_stops_when_successive_fidelities_agree(self, spec):
        # Here chi moves by less than 1e-10 per step before the fidelity settles.
        result = solve(analytic_r(spec))
        trace = result.fidelity_trace
        assert result.converged
        assert abs(trace[-1] - trace[-2]) < SolverOptions().fid_tol

    def test_random_init_deterministic(self):
        a = solve(UNOT1, SolverOptions(init="random:7"))
        b = solve(UNOT1, SolverOptions(init="random:7"))
        assert np.array_equal(a.chi.matrix, b.chi.matrix)
        assert a.fidelity_trace == b.fidelity_trace


class TestOptionsAndInit:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(InvalidSpecError):
            SolverOptions(fid_tol=0.0)
        with pytest.raises(InvalidSpecError):
            SolverOptions(max_iters=0)

    def test_initial_choi_maxmix(self):
        chi = initial_choi(UNOT1, "maxmix")
        assert np.abs(chi.matrix - np.eye(4) / 2).max() <= 1e-15

    def test_initial_choi_random_satisfies_constraint(self):
        chi = initial_choi(UNOT1, "random:3")
        assert validate_choi(chi).trace_preservation_deviation <= 1e-9

    def test_initial_choi_explicit_dim_check(self):
        with pytest.raises(DimensionMismatchError):
            initial_choi(UNOT1, maxmix_choi(2, 3))

    def test_initial_choi_rejects_non_psd_start(self):
        # Hermitian and trace-preserving (Tr_K of Z (x) Z vanishes), but with
        # eigenvalue -1/2.
        z = np.diag([1.0, -1.0])
        start = ChoiOperator(2, 2, np.eye(4) / 2 + np.kron(z, z))
        with pytest.raises(InvalidChoiError, match="minimum eigenvalue"):
            initial_choi(UNOT1, start)
        with pytest.raises(InvalidChoiError):
            solve(UNOT1, SolverOptions(init=start))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_initial_choi_rejects_non_finite_start(self, value):
        m = np.eye(4) / 2
        m[1, 1] = value
        start = ChoiOperator(2, 2, m)
        with pytest.raises(InvalidChoiError):
            initial_choi(UNOT1, start)
        with pytest.raises(InvalidChoiError):
            solve(UNOT1, SolverOptions(init=start))

    def test_initial_choi_unknown_keyword(self):
        with pytest.raises(InvalidSpecError):
            initial_choi(UNOT1, "warmstart")


class TestFidTolMustBeFinite:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_rejected(self, tol):
        with pytest.raises(InvalidSpecError, match="fid_tol"):
            SolverOptions(fid_tol=tol)

    def test_smallest_positive_accepted(self):
        assert SolverOptions(fid_tol=5e-324).fid_tol > 0
