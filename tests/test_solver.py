import copy
import dataclasses
import json
import pickle
import tracemalloc

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
from choiopt.linalg import (
    clip_roots,
    hermitian_part,
    inverse_on_support,
    partial_trace,
    psd_sqrt,
    reg_inverse,
    support,
)
from choiopt.models import (
    ModelSpec,
    analytic_r,
    damping_channel,
    known_optimum,
)
from choiopt.solver import PINV_CUTOFF, SolverOptions, initial_choi, iterate_once, random_choi, solve
from choiopt.targets import TargetOperator, block_plan
from choiopt import channels as channels_module
from choiopt import solver as solver_module
from choiopt import targets as targets_module
from choiopt.models import ALPHA_THRESHOLD, model_family, shifter_closed_forms
from choiopt.targets import build_r_montecarlo, build_r_quadrature
from choiopt.channels import TP_TOL, identity_choi, require_valid_choi
from helpers import (
    entangler_b_mixed_state,
    same_bytes,
    random_density,
    random_hermitian,
    random_target_matrix,
    unot_channel_action,
)

UNOT1 = analytic_r(ModelSpec("unot", copies=1))


def barrier_r(spec: ModelSpec) -> TargetOperator:
    """analytic_r(spec) without its stored dual, so that the dual endgame runs the barrier."""
    return TargetOperator(*spec.dims, analytic_r(spec).matrix)


# analytic_r's shifter carries its optimal dual; barrier_r's finishes through the barrier.
ROUTES = pytest.mark.parametrize("build", [analytic_r, barrier_r], ids=["stored-dual", "barrier"])


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


ANALYTIC_SPECS = [
    *(ModelSpec("unot", copies=n) for n in (1, 2, 10, 30)),
    *(ModelSpec("cloner", copies=n) for n in (1, 2, 10, 30)),
    ModelSpec("entangler_a"),
    ModelSpec("entangler_b"),
    *(ModelSpec("shifter", alpha=a) for a in (0.5, ALPHA_THRESHOLD, 2.0, np.pi)),
    ModelSpec("identity"),
]
SAMPLED_SPECS = [
    ModelSpec("unot", copies=10),
    ModelSpec("cloner", copies=10),
    ModelSpec("entangler_a"),
    ModelSpec("entangler_b"),
    ModelSpec("shifter", alpha=2.0),
]


def _refuse_eigh(*args, **kwargs):
    raise AssertionError("np.linalg.eigh called")


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

    # Inputs whose marginal Tr_K[R chi R] is exactly diagonal take the step
    # without an eigendecomposition; the paper's form must not notice.
    @pytest.mark.parametrize("init", ["maxmix", "random:4"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_diagonal_marginal_on_analytic_targets(self, spec, init, monkeypatch):
        r = analytic_r(spec)
        chi = initial_choi(r, init)
        want = reference_step(chi, r)
        monkeypatch.setattr(np.linalg, "eigh", _refuse_eigh)
        assert np.abs(iterate_once(chi, r).matrix - want).max() <= 1e-13

    def test_singular_diagonal_marginal(self, monkeypatch):
        # From maxmix, Tr_K[R chi R] = diag(1/4, 0): the support rule must zero
        # the kernel of lambda, the input |1>, as the pseudo-inverse does.
        r = TargetOperator(2, 2, np.diag([0.5, 0.5, 0.0, 0.0]))
        chi = maxmix_choi(2, 2)
        want = reference_step(chi, r)
        monkeypatch.setattr(np.linalg, "eigh", _refuse_eigh)
        got = iterate_once(chi, r).matrix
        assert np.abs(got - want).max() <= 1e-13
        assert not got[2:, :].any() and not got[:, 2:].any()

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

    def test_one_input_has_no_lambda_gap(self):
        # With dim_in = 1, lambda has one root and no two to compare.
        result = solve(TargetOperator(1, 3, np.diag([0.5, 0.5, 0.0])))
        assert result.converged and result.fidelity == pytest.approx(0.5, abs=1e-12)
        assert result.lambda_gap == np.inf and type(result.lambda_gap) is float

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


def block_labels(r: np.ndarray) -> np.ndarray:
    """Component label of each index in the graph r != 0, by depth-first search."""
    labels = np.full(len(r), -1)
    for start in range(len(r)):
        if labels[start] >= 0:
            continue
        labels[start], stack = start, [start]
        while stack:
            for j in np.flatnonzero(r[stack.pop()]):
                if labels[j] < 0:
                    labels[j] = start
                    stack.append(j)
    return labels


def pinched_wishart_start(r, seed):
    """The random start built densely: random_choi's W W^dagger from the same
    draws of np.random.default_rng(seed), zeroed off R's blocks (block_labels),
    then scaled on both sides by its Tr_K's diagonal to the power -1/2."""
    n = r.dim_in * r.dim_out
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    labels = block_labels(r.matrix)
    g = np.where(labels[:, None] == labels[None, :], w @ w.conj().T, 0.0)
    scale = np.repeat(np.diag(partial_trace(g, r.dim_in, r.dim_out)).real ** -0.5, r.dim_out)
    return g * scale[:, None] * scale[None, :]


class TestPinchedStart:
    # initial_choi builds a random start on R's blocks where they keep the
    # trace condition: every analytic built-in target, none sampled.  It is
    # W W^dagger pinched to the blocks, then made trace-preserving.
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_on_the_blocks_of_analytic_targets(self, spec):
        r = analytic_r(spec)
        chi = initial_choi(r, "random:3")
        report = validate_choi(chi)
        assert report.min_eigenvalue >= 0.0
        assert report.trace_preservation_deviation <= TP_TOL
        labels = block_labels(r.matrix)
        off = labels[:, None] != labels[None, :]
        assert off.any() and not chi.matrix[off].any()
        assert np.abs(chi.matrix - pinched_wishart_start(r, 3)).max() <= 1e-14
        assert same_bytes(initial_choi(r, "random:3").matrix, chi.matrix)

    @pytest.mark.parametrize(
        "build",
        [build_r_quadrature, lambda family: build_r_montecarlo(family, 500, 1)],
        ids=["quadrature", "montecarlo"],
    )
    @pytest.mark.parametrize("spec", SAMPLED_SPECS, ids=str)
    def test_sampled_targets_keep_the_raw_start(self, build, spec):
        r = build(model_family(spec))
        assert np.array_equal(initial_choi(r, "random:3").matrix, random_choi(r.dim_in, r.dim_out, 3).matrix)

    def test_no_eigh_after_the_start(self, monkeypatch):
        # The start is normalized on the blocks, with no eigh of its own, and
        # so is every step; if a BLAS broke the exact zeros, every step would
        # fall back to eigh.  The start's calls and the steps' are counted apart.
        r = analytic_r(ModelSpec("unot", copies=10))
        calls, at_start = [], []
        real_eigh, real_init = np.linalg.eigh, solver_module.initial_choi

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real_eigh(*args, **kwargs)

        def start(r, init):
            chi = real_init(r, init)
            at_start.extend(calls)
            calls.clear()
            return chi

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(solver_module, "initial_choi", start)
        result = solve(r, SolverOptions(init="random:1"))
        assert result.converged and result.iterations > 10
        assert at_start == [] and calls == []


class TestStartOnTheBlocks:
    # On a target with a block plan, both named starts are built as their
    # (B, s, s) stack on R's plan: no eigh, no random_choi, maxmix_choi or
    # dense extremal step, and no gather or scatter of an n x n matrix.
    @pytest.fixture
    def dense_calls(self, monkeypatch):
        calls = []

        def counted(name, real):
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for module, name in [
            (np.linalg, "eigh"),
            (np.linalg, "eigvalsh"),
            (solver_module, "random_choi"),
            (solver_module, "maxmix_choi"),
            (solver_module, "_extremal_step"),
            (targets_module.BlockPlan, "gather"),
            (targets_module.BlockPlan, "scatter"),
        ]:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    @pytest.mark.parametrize("init", ["maxmix", "random:3"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_no_dense_work_in_the_start(self, spec, init, dense_calls):
        r = analytic_r(spec)  # which finds lambda_max(R) by eigvalsh
        dense_calls.clear()
        chi = initial_choi(r, init)
        plan, stack = chi._stack
        assert dense_calls == []
        assert plan is r.blocks and "matrix" not in chi.__dict__
        assert stack.shape == plan.pad.shape and not stack.flags.writeable

    @pytest.mark.parametrize("init", ["maxmix", "random:3"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_admissible_and_zero_off_the_blocks(self, spec, init):
        r = analytic_r(spec)
        chi = initial_choi(r, init)
        report = validate_choi(chi)
        assert report.min_eigenvalue >= 0.0
        assert report.trace_preservation_deviation <= TP_TOL
        labels = block_labels(r.matrix)
        assert not chi.matrix[labels[:, None] != labels[None, :]].any()
        assert same_bytes(chi._stack[1], r.blocks.gather(chi.matrix))  # zero on the padding too

    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_seeds_give_different_stacks(self, spec):
        r = analytic_r(spec)
        stacks = [initial_choi(r, f"random:{seed}")._stack[1] for seed in (1, 2, 3)]
        assert all(not np.array_equal(a, b) for i, a in enumerate(stacks) for b in stacks[i + 1 :])

    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_maxmix_is_the_gather_of_maxmix_choi(self, spec):
        r = analytic_r(spec)
        chi = initial_choi(r, "maxmix")
        want = maxmix_choi(r.dim_in, r.dim_out).matrix
        assert same_bytes(chi._stack[1], r.blocks.gather(want))
        assert same_bytes(chi.matrix, want)

    @pytest.mark.parametrize("spec", [ModelSpec("unot", copies=10), ModelSpec("shifter", alpha=0.5)], ids=str)
    def test_the_first_step_from_maxmix_gathers_nothing(self, spec, monkeypatch):
        r = analytic_r(spec)
        chi = initial_choi(r, "maxmix")
        want = iterate_once(ChoiOperator(r.dim_in, r.dim_out, chi.matrix), r)  # gathered and tested
        gathers = []
        real = targets_module.BlockPlan.gather
        monkeypatch.setattr(targets_module.BlockPlan, "gather", lambda plan, m: gathers.append(1) or real(plan, m))
        got = iterate_once(chi, r)
        assert gathers == []
        assert same_bytes(got._stack[1], want._stack[1])

    @pytest.mark.parametrize("spec", SAMPLED_SPECS, ids=str)
    def test_sampled_targets_keep_maxmix_choi(self, spec):
        r = build_r_quadrature(model_family(spec))
        chi = initial_choi(r, "maxmix")
        assert r.blocks is None and chi._stack == (None, None)
        assert same_bytes(chi.matrix, maxmix_choi(r.dim_in, r.dim_out).matrix)


class TestFidTolMustBeFinite:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_rejected(self, tol):
        with pytest.raises(InvalidSpecError, match="fid_tol"):
            SolverOptions(fid_tol=tol)

    def test_smallest_positive_accepted(self):
        assert SolverOptions(fid_tol=5e-324).fid_tol > 0


def plain_iteration(r: TargetOperator, opts: SolverOptions):
    """The fixed-point loop alone: iterate_once until successive fidelities
    agree within fid_tol or max_iters steps are done."""
    chi = initial_choi(r, opts.init)
    fids = [fidelity(chi, r)]
    while len(fids) <= opts.max_iters:
        chi = iterate_once(chi, r)
        fids.append(fidelity(chi, r))
        if abs(fids[-1] - fids[-2]) < opts.fid_tol:
            break
    return chi, tuple(fids[1:])


class Calls(list):
    """One entry per dual-endgame call, and in .chis the iterate each call got."""

    def __init__(self):
        super().__init__()
        self.chis = []


def call_step(chi: ChoiOperator, r: TargetOperator, opts: SolverOptions) -> int:
    """The number of plain-iteration steps from opts.init after which the
    iterate is exactly chi: the step at which an endgame call received chi."""
    it = initial_choi(r, opts.init)
    for step in range(opts.max_iters + 1):
        if np.array_equal(it.matrix, chi.matrix):
            return step
        it = iterate_once(it, r)
    raise AssertionError("chi is not an iterate of the plain loop")


@pytest.fixture
def endgame_calls(monkeypatch):
    """Replace the dual endgame by a recorder that reports failure."""
    calls = Calls()

    def fake(r, chi):
        calls.append((r.dim_in, r.dim_out))
        calls.chis.append(chi)
        return None

    monkeypatch.setattr(solver_module, "_dual_endgame", fake)
    return calls


class TestDualEndgame:
    @ROUTES
    @pytest.mark.parametrize("alpha", [ALPHA_THRESHOLD + 1e-4, 0.7, 3.13], ids=str)
    def test_slow_shifter_rows_finish_certified(self, alpha, build, endgame_results):
        r = build(ModelSpec("shifter", alpha=alpha))
        result = solve(r)
        assert len(endgame_results) == 1
        assert result.converged
        assert result.iterations == call_step(endgame_results.chis[0], r, SolverOptions()) + 1
        assert result.gap <= SolverOptions().fid_tol
        assert abs(result.fidelity - shifter_closed_forms(alpha).fidelity) <= 1e-12
        assert len(result.fidelity_trace) == result.iterations
        assert np.diff(result.fidelity_trace).min() >= -1e-15

    def test_fixed_point_stop_has_no_gap(self):
        assert np.isnan(solve(analytic_r(ModelSpec("shifter", alpha=0.5))).gap)

    @pytest.mark.parametrize("alpha", [0.71, 3.0], ids=str)
    def test_failed_endgame_leaves_the_iteration_unchanged(self, alpha, endgame_calls):
        r = analytic_r(ModelSpec("shifter", alpha=alpha))
        opts = SolverOptions()
        result = solve(r, opts)
        chi, trace = plain_iteration(r, opts)
        assert endgame_calls == [(2, 2)]
        assert np.array_equal(result.chi.matrix, chi.matrix)
        assert result.fidelity_trace == trace
        assert result.iterations == len(trace) > call_step(endgame_calls.chis[0], r, opts)
        assert np.isnan(result.gap)

    def test_uncertified_endgame_is_discarded(self):
        # No barrier gap reaches fid_tol = 1e-300, so the endgame's answer is dropped
        # (a stored dual's gap, clamped at 0, may reach any fid_tol).
        r = barrier_r(ModelSpec("shifter", alpha=0.7))
        opts = SolverOptions(max_iters=300, fid_tol=1e-300)
        result = solve(r, opts)
        chi, trace = plain_iteration(r, opts)
        assert not result.converged
        assert np.array_equal(result.chi.matrix, chi.matrix)
        assert result.fidelity_trace == trace

    def test_not_called_within_the_step_budget(self, endgame_calls):
        # A budget that ends at the step where the rule fires leaves no step for the endgame.
        r = analytic_r(ModelSpec("shifter", alpha=0.7))
        solve(r)
        step = call_step(endgame_calls.chis[0], r, SolverOptions())
        result = solve(r, SolverOptions(max_iters=step))
        assert not result.converged
        assert result.iterations == step
        assert endgame_calls == [(2, 2)]  # the first solve's call only

    def test_not_called_when_the_solve_stops_early(self, endgame_calls):
        result = solve(analytic_r(ModelSpec("shifter", alpha=0.5)))
        assert result.iterations > solver_module.RATE_FROM  # the rule was read, and never fired
        assert endgame_calls == []

    @pytest.mark.parametrize("copies", [2, 3])
    def test_not_called_when_dim_in_exceeds_dim_out(self, copies, endgame_calls):
        # A sampled unot target loses its degenerate optimum and runs long.
        r = build_r_montecarlo(model_family(ModelSpec("unot", copies=copies)), 500, 1)
        assert r.dim_in > r.dim_out
        result = solve(r, SolverOptions(max_iters=300))
        assert result.iterations == 300
        assert endgame_calls == []


def rising(prev: float, step: float, fid_tol: float = 2.0**-70) -> tuple[list, float]:
    """Fidelities F_0 .. F_RATE_FROM whose last two increments are prev and
    step, exact in binary for powers of two; and fid_tol."""
    return [0.0] * (solver_module.RATE_FROM - 2) + [0.5, 0.5 + prev, 0.5 + prev + step], fid_tol


class TestRateRule:
    slow_tail = staticmethod(solver_module._slow_tail)

    @pytest.mark.parametrize("prev, step", [(2.0**-10, 2.0**-10), (2.0**-10, 2.0**-9)], ids=["rho1", "rho2"])
    def test_rate_at_least_one_fires(self, prev, step):
        assert self.slow_tail(*rising(prev, step))

    @pytest.mark.parametrize("extra, fires", [(-2, False), (0, False), (2, True)])
    def test_predicted_tail_against_steps_left(self, extra, fires):
        # rho = 1/2 and dF = fid_tol * 2^(STEPS_LEFT + extra) predict STEPS_LEFT + extra more steps.
        fid_tol = 2.0 ** -(10 + solver_module.STEPS_LEFT + extra)
        assert self.slow_tail(*rising(2.0**-9, 2.0**-10, fid_tol)) is fires

    @pytest.mark.parametrize(
        "prev, step",
        [(2.0**-10, 0.0), (2.0**-10, -(2.0**-10)), (0.0, 2.0**-10), (-(2.0**-10), 2.0**-10), (0.0, 0.0)],
    )
    def test_non_positive_increment_never_fires(self, prev, step):
        assert not self.slow_tail(*rising(prev, step))

    def test_nothing_fires_before_rate_from(self):
        fids, fid_tol = rising(2.0**-10, 2.0**-9)
        assert self.slow_tail(fids, fid_tol)
        for n in range(3, len(fids)):  # the same last two increments at step n - 1 < RATE_FROM
            assert not self.slow_tail(fids[-n:], fid_tol)

    @pytest.mark.parametrize("alpha", [ALPHA_THRESHOLD + 1e-4, 0.7, 0.71, 3.0, 3.13], ids=str)
    def test_budget_at_the_firing_step(self, alpha, endgame_results):
        # The endgame's answer is one step more, so it needs max_iters > the firing step.
        r = analytic_r(ModelSpec("shifter", alpha=alpha))
        solve(r)
        step = call_step(endgame_results.chis[0], r, SolverOptions())
        assert step >= solver_module.RATE_FROM
        short = solve(r, SolverOptions(max_iters=step))
        assert short.iterations == step and not short.converged
        fits = solve(r, SolverOptions(max_iters=step + 1))
        assert fits.iterations == step + 1 and fits.converged and fits.gap <= SolverOptions().fid_tol
        assert len(endgame_results) == 2  # one call per solve that had a step left at the firing step

    @pytest.mark.parametrize("copies", [2, 3])
    def test_dims_keep_a_firing_rule_out(self, copies, endgame_calls):
        # Sampled unot (dim_in > dim_out) meets the rate rule, yet never calls the endgame.
        r = build_r_montecarlo(model_family(ModelSpec("unot", copies=copies)), 500, 1)
        opts = SolverOptions(max_iters=300)
        result = solve(r, opts)
        fids = [fidelity(initial_choi(r, opts.init), r), *result.fidelity_trace]
        assert any(self.slow_tail(fids[:k], opts.fid_tol) for k in range(1, len(fids) + 1))
        assert endgame_calls == []


@pytest.fixture
def endgame_results(monkeypatch):
    """Record what each call of the real dual endgame returns."""
    results = Calls()
    real = solver_module._dual_endgame

    def recorded(r, chi):
        results.chis.append(chi)
        results.append(real(r, chi))
        return results[-1]

    monkeypatch.setattr(solver_module, "_dual_endgame", recorded)
    return results


_psd_solve = solver_module._psd_solve
_dual_endgame = solver_module._dual_endgame


def _overshooting_psd_solve(m, v):
    # A Newton step 1e6 times too long: the damped update leaves the feasible set.
    return 1e6 * _psd_solve(m, v)


def _failing_psd_solve(m, v):
    raise np.linalg.LinAlgError("eigh did not converge")


class TestEndgameRejects:
    # Each way _dual_endgame can give up must leave solve exactly where the
    # plain iteration goes.  Inputs reach two of these exits (the slack
    # leaving the feasible set, a stage not centring) only through rounding at
    # the 1e-15 level, which differs between platforms, so each test sets the
    # constant or the helper that its exit reads.
    @pytest.mark.parametrize(
        "name, value",
        [
            ("_psd_solve", _overshooting_psd_solve),  # Y leaves the feasible set
            ("MAX_NEWTON", 1),  # the first barrier stage does not centre
            ("BARRIER_GAP", 1e6),  # mu stays large: no slack eigenvalue falls below sqrt(mu)
            ("PSD_TOL", -np.inf),  # every recovered X counts as indefinite
            ("_psd_solve", _failing_psd_solve),  # LAPACK fails
        ],
        ids=["infeasible-slack", "newton-budget", "empty-kernel", "indefinite-x", "linalg-error"],
    )
    def test_each_reject_leaves_the_iteration_unchanged(self, name, value, monkeypatch, endgame_results):
        r = barrier_r(ModelSpec("shifter", alpha=0.71))
        opts = SolverOptions()
        chi, trace = plain_iteration(r, opts)
        monkeypatch.setattr(solver_module, name, value)
        result = solve(r, opts)
        assert endgame_results == [None]
        assert np.array_equal(result.chi.matrix, chi.matrix)
        assert result.fidelity_trace == trace
        assert result.iterations == len(trace) > call_step(endgame_results.chis[0], r, opts)
        assert np.isnan(result.gap)

    @ROUTES
    @pytest.mark.parametrize("routine", ["eigvalsh", "eigh"])
    def test_lapack_error_leaves_the_iteration_unchanged(self, routine, build, monkeypatch, endgame_results):
        # From maxmix every step of this row is a block step, which calls
        # neither routine, so the first call inside solve is the endgame's.
        r = build(ModelSpec("shifter", alpha=0.71))
        opts = SolverOptions()
        chi, trace = plain_iteration(r, opts)
        real, calls = getattr(np.linalg, routine), []

        def failing_once(*args, **kwargs):
            calls.append(routine)
            if len(calls) == 1:
                raise np.linalg.LinAlgError(f"{routine} did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, routine, failing_once)
        result = solve(r, opts)
        assert calls and endgame_results == [None]
        assert np.array_equal(result.chi.matrix, chi.matrix)
        assert result.fidelity_trace == trace
        assert result.iterations == len(trace)
        assert np.isnan(result.gap)


def _tangent_off_the_feasible_set(m, v):
    # The Newton step as it is, and a tangent so long that every predictor
    # fraction moves y below R's spectrum: each predictor step is dropped.
    # The shifter's R has a block plan, so the tangent is 1e30 times the 1 of the diagonal y.
    out = _psd_solve(m, v)
    if out.ndim == 2:
        out[:, 1] = 1e30
    return out


@pytest.fixture
def newton_steps(monkeypatch):
    """newton_steps(r, chi) -> (Newton steps, result) of one real endgame call.
    Every Newton step makes one _psd_solve call, and the recovery of X exactly
    one more on either layout (TestDiagonalDual::test_recovery_makes_one_psd_solve),
    so the budget rows' counts do not depend on how X is fitted."""
    count = [0]

    def counted(m, v):
        count[0] += 1
        return _psd_solve(m, v)

    def run(r, chi):
        count[0] = 0
        done = _dual_endgame(r, chi)
        return count[0] - 1, done

    monkeypatch.setattr(solver_module, "_psd_solve", counted)
    return run


class TestPredictorCorrector:
    # With mu falling 10x per stage and no predictor these calls took 54-63
    # Newton steps on the shifter rows and 130 on the cloner; with the cut at
    # 100x and no predictor, 38-49 and 104.
    BUDGET = 45

    # alpha0 + 1e-4 takes 43, 38 and 41 steps from maxmix, random:1 and random:2.
    @pytest.mark.parametrize("init", ["maxmix", "random:1", "random:2"])
    @pytest.mark.parametrize("alpha", [ALPHA_THRESHOLD + 1e-4, 0.71, 3.13], ids=str)
    def test_newton_budget_at_the_firing_iterate(self, alpha, init, endgame_calls, newton_steps):
        r = barrier_r(ModelSpec("shifter", alpha=alpha))
        solve(r, SolverOptions(init=init))
        steps, done = newton_steps(r, endgame_calls.chis[0])
        assert 1 <= steps <= self.BUDGET
        assert done is not None and done[1] <= SolverOptions().fid_tol
        assert abs(fidelity(done[0], r) - shifter_closed_forms(alpha).fidelity) <= 1e-12

    def test_newton_budget_forced_on_a_wide_output(self, newton_steps):
        # cloner N = 10 (2 x 11), one step from maxmix: far from the optimum.
        spec = ModelSpec("cloner", copies=10)
        r = analytic_r(spec)
        steps, done = newton_steps(r, iterate_once(maxmix_choi(r.dim_in, r.dim_out), r))
        assert 1 <= steps <= self.BUDGET
        assert done is not None and done[1] <= SolverOptions().fid_tol
        assert abs(fidelity(done[0], r) - known_optimum(spec).fidelity) <= 1e-12

    def test_every_predictor_step_infeasible(self, monkeypatch, endgame_results):
        # Without a usable predictor the Newton steps alone re-centre each stage.
        monkeypatch.setattr(solver_module, "_psd_solve", _tangent_off_the_feasible_set)
        r = barrier_r(ModelSpec("shifter", alpha=0.71))
        result = solve(r)
        assert len(endgame_results) == 1
        assert result.converged and result.gap <= SolverOptions().fid_tol
        assert result.iterations == call_step(endgame_results.chis[0], r, SolverOptions()) + 1
        assert abs(result.fidelity - shifter_closed_forms(0.71).fidelity) <= 1e-12


class TestInitCheckedWhereBuilt:
    @pytest.mark.parametrize(
        "init", ["bogus", "random:abc", "random:", "random:1.5", "random:-1", "random: 3", "maxmix ", None, 5]
    )
    def test_rejected_by_the_options(self, init):
        with pytest.raises(InvalidSpecError, match="unknown init"):
            SolverOptions(init=init)

    @pytest.mark.parametrize("init", ["random:abc", "random:", "random:1.5", "random:-1"])
    def test_rejected_by_initial_choi(self, init):
        with pytest.raises(InvalidSpecError, match="unknown init"):
            initial_choi(UNOT1, init)

    @pytest.mark.parametrize("init", ["maxmix", "random:0", "random:12"])
    def test_accepted(self, init):
        assert SolverOptions(init=init).init == init


class TestMaxItersCheckedWhereBuilt:
    @pytest.mark.parametrize("max_iters", [2.5, 3.0, "10", None, 0])
    def test_rejected(self, max_iters):
        with pytest.raises(InvalidSpecError, match="max_iters must be an integer >= 1"):
            SolverOptions(max_iters=max_iters)

    def test_numpy_integer_runs_that_many_steps(self):
        result = solve(UNOT1, SolverOptions(max_iters=np.int64(1), init="random:0"))
        assert result.iterations == 1

    def test_start_within_psd_tol_of_hermitian(self):
        # Entrywise Hermiticity deviation 9.8e-11: admissible, so the start's
        # fidelity must not fail on its imaginary part.
        m = np.array(identity_choi(2).matrix)
        m[~np.eye(4, dtype=bool)] += 4.9e-11j
        r = TargetOperator(2, 2, 0.75 * np.full((4, 4), 0.25) + 0.25 * np.eye(4) / 4)
        result = solve(r, SolverOptions(init=ChoiOperator(2, 2, m)))
        assert result.converged and result.fidelity == pytest.approx(0.875, abs=1e-12)


class TestSingularMultiplier:
    # Valid input that the solver fails on today: lambda is singular where R
    # vanishes on an input, and the pseudo-inverse zeroes that input's block.
    # strict=True turns a fix into a failure here, so that the mark goes.
    @pytest.mark.xfail(strict=True, raises=InvalidChoiError, reason="trace condition lost on ker lambda")
    def test_target_vanishing_on_an_input(self):
        # R = |0><0| (x) 1/2: every channel has F = 1/2.
        result = solve(TargetOperator(2, 2, np.diag([0.5, 0.5, 0.0, 0.0])))
        assert result.converged and result.fidelity == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.xfail(strict=True, raises=NegativeEigenvalueError, reason="-PSD_TOL start, -CLIP_TOL step")
    def test_admissible_start_with_a_negative_eigenvalue(self):
        # R = 1/2 (x) |0><0|: the channel that always outputs |0> has F = 1.
        start = ChoiOperator(2, 2, np.diag([-5e-11, 1 + 5e-11, 0.5, 0.5]))
        result = solve(TargetOperator(2, 2, np.diag([0.5, 0.0, 0.5, 0.0])), SolverOptions(init=start))
        assert result.converged and result.fidelity == pytest.approx(1.0, abs=1e-12)


def _refuse_dense_step(*args, **kwargs):
    raise AssertionError("dense step called")


def eigh_step(chi: ChoiOperator, r: TargetOperator) -> np.ndarray:
    """The dense step as it stood before the block step: one eigh of
    Tr_K[R chi R], then Lambda^{-1} applied to the (dim_in, -1) views."""
    d = r.dim_in
    m = r.matrix @ chi.matrix @ r.matrix
    w, v = np.linalg.eigh(hermitian_part(partial_trace(m, d, r.dim_out)))
    roots = clip_roots(w)
    inv = np.divide(1.0, roots, out=np.zeros_like(roots), where=support(roots, PINV_CUTOFF))
    lam_inv = (v * inv) @ v.conj().T
    half = (lam_inv @ m.reshape(d, -1)).reshape(m.shape)
    full = (lam_inv @ half.conj().T.reshape(d, -1)).reshape(m.shape)
    return (full + full.conj().T) / 2


def off_blocks(r: TargetOperator) -> np.ndarray:
    labels = block_labels(r.matrix)
    return labels[:, None] != labels[None, :]


def block_diagonal_target(sizes) -> TargetOperator:
    """A target on C^1 (x) C^n, n = sum(sizes), with dense random blocks of the given sizes."""
    rng = np.random.default_rng(7)
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex)
    for start, size in zip(np.cumsum([0, *sizes]), sizes):
        m[start : start + size, start : start + size] = random_target_matrix(rng, size)
    return TargetOperator(1, n, m / len(sizes))


class TestBlockStep:
    # On R's blocks the step never forms an n x n product or calls the dense step.
    @pytest.mark.parametrize("init", ["maxmix", "random:4"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_matches_the_reference_without_the_dense_step(self, spec, init, monkeypatch):
        r = analytic_r(spec)
        chi = initial_choi(r, init)
        want = reference_step(chi, r)
        monkeypatch.setattr(solver_module, "_extremal_step", _refuse_dense_step)
        assert np.abs(iterate_once(chi, r).matrix - want).max() <= 1e-13

    @pytest.mark.parametrize("spec", [ModelSpec("unot", copies=10), ModelSpec("shifter", alpha=2.0)], ids=str)
    def test_one_off_block_entry_takes_the_dense_step(self, spec, monkeypatch):
        # The smallest subnormal, in the imaginary part of one entry: the test is exact.
        r = analytic_r(spec)
        m = np.array(initial_choi(r, "random:4").matrix)
        i, j = np.argwhere(off_blocks(r))[0]
        m[i, j] = 5e-324j
        chi = ChoiOperator(r.dim_in, r.dim_out, m)
        calls = []
        real = solver_module._extremal_step

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(solver_module, "_extremal_step", counted)
        assert np.abs(iterate_once(chi, r).matrix - reference_step(chi, r)).max() <= 1e-13
        assert len(calls) == 1

    def test_fortran_ordered_chi(self):
        r = analytic_r(ModelSpec("unot", copies=2))
        chi = initial_choi(r, "random:4")
        flipped = ChoiOperator(r.dim_in, r.dim_out, np.asfortranarray(chi.matrix))
        assert np.array_equal(iterate_once(flipped, r).matrix, iterate_once(chi, r).matrix)

    @pytest.mark.parametrize(
        "build",
        [build_r_quadrature, lambda family: build_r_montecarlo(family, 500, 1)],
        ids=["quadrature", "montecarlo"],
    )
    @pytest.mark.parametrize("spec", SAMPLED_SPECS, ids=str)
    def test_sampled_targets_step_as_before(self, build, spec):
        r = build(model_family(spec))
        assert r.blocks is None
        for init in ("maxmix", "random:3"):
            chi = initial_choi(r, init)
            assert np.array_equal(iterate_once(chi, r).matrix, eigh_step(chi, r))

    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_labels_of_analytic_targets(self, spec):
        r = analytic_r(spec)
        assert np.array_equal(r.blocks.labels, block_labels(r.matrix))

    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_sandwich_of_analytic_targets(self, spec):
        # sandwich[b] is R_b (x) R_b^T on block b's positions and zero on its padding.
        r = analytic_r(spec)
        labels = block_labels(r.matrix)
        sandwich = r.blocks.sandwich
        s = round(np.sqrt(sandwich.shape[1]))
        assert sandwich.shape == (len(np.unique(labels)), s * s, s * s)
        for b, label in enumerate(np.unique(labels)):
            index = np.flatnonzero(labels == label)
            k = len(index)
            rb = r.matrix[np.ix_(index, index)]
            got = sandwich[b].reshape(s, s, s, s).copy()
            assert np.array_equal(got[:k, :k, :k, :k], np.kron(rb, rb.T).reshape(k, k, k, k))
            got[:k, :k, :k, :k] = 0
            assert not got.any()

    # B s^4 against n^3: 2 * 20^4 > 40^3 (though B s^2 = 800 < 40^2), 2 * 4^4 = 8^3, 3 * 3^4 < 8^3.
    @pytest.mark.parametrize("sizes", [(20, 20), (4, 4), (3, 3, 2)], ids=str)
    def test_plan_only_while_b_s4_is_below_n3(self, sizes):
        r = block_diagonal_target(sizes)
        b, s, n = len(sizes), max(sizes), sum(sizes)
        assert (r.blocks is None) == (b * s**4 >= n**3)
        for init in ("maxmix", "random:3"):
            chi = initial_choi(r, init)
            if r.blocks is None:
                assert np.array_equal(iterate_once(chi, r).matrix, eigh_step(chi, r))
            else:
                assert np.abs(iterate_once(chi, r).matrix - reference_step(chi, r)).max() <= 1e-13

    # R = |psi><psi| / 2 + the other two basis projectors / 4.  psi = (|00> + |10>) / sqrt 2
    # puts (0, 0) and (1, 0) in one block, whose pinch would change Tr_K, so only the
    # same-output rule refuses the plan (B s^4 = 48 < n^3 = 64); (|00> + |11>) / sqrt 2 keeps it.
    @pytest.mark.parametrize("joined, has_plan", [((0, 2), False), ((0, 3), True)], ids=["same-output", "entangled"])
    def test_a_block_on_one_output_twice_has_no_plan(self, joined, has_plan, monkeypatch):
        m = np.diag([0.25] * 4)
        m[np.ix_(joined, joined)] = 0.25
        r = TargetOperator(2, 2, m)
        assert (r.blocks is not None) == has_plan
        if has_plan:
            return
        steps, checked = [], []
        real_step, real_check = solver_module._extremal_step, channels_module.require_admissible
        monkeypatch.setattr(solver_module, "_extremal_step", lambda *a: steps.append(1) or real_step(*a))
        monkeypatch.setattr(channels_module, "require_admissible", lambda m, *a: checked.append(m) or real_check(m, *a))
        result = solve(r)
        assert result.converged and result.iterations > 1 and len(steps) == result.iterations  # lambda_gap takes no step
        assert checked[-1] is result.chi.matrix

    @pytest.mark.parametrize("seed", range(20))
    def test_labels_of_shuffled_paths(self, seed):
        # Components that are paths in a shuffled order need more than one sweep;
        # a zero row is a component of its own.  Six singletons keep B s^4 = 9 * 5^4
        # below n^3 = 18^3, so the 5-index path gets a plan.
        rng = np.random.default_rng(seed)
        order = rng.permutation(18)
        m = np.zeros((18, 18))
        for path in np.split(order, [5, 9, 12, 13, 14, 15, 16, 17]):
            m[path[:-1], path[1:]] = m[path[1:], path[:-1]] = rng.uniform(0.5, 1.0, len(path) - 1)
            m[path, path] = 1.0
        m[order[-1], order[-1]] = 0.0
        assert np.array_equal(block_plan(m, 1, 18).labels, block_labels(m))

    def test_plan_is_made_once_per_target(self, monkeypatch):
        calls = []
        real = targets_module.block_plan

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(targets_module, "block_plan", counted)
        r = analytic_r(ModelSpec("unot", copies=10))
        assert calls == []
        assert solve(r, SolverOptions(init="random:1")).iterations > 10
        solve(r)
        assert len(calls) == 1

    @pytest.mark.parametrize("init", ["maxmix", "random:4"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_lambda_gap_matches_the_dense_formula(self, spec, init):
        r = analytic_r(spec)
        result = solve(r, SolverOptions(init=init))
        assert abs(result.lambda_gap - dense_lambda_gap(result.chi, r)) <= 1e-12

    # A solve off R's blocks reads lambda_gap from the dense step's roots; an
    # endgame's answer (cloner-2 from this start) is pinched back to the blocks.
    @pytest.mark.parametrize(
        "target, off_block_start",
        [
            (lambda: analytic_r(ModelSpec("unot", copies=2)), True),
            (lambda: analytic_r(ModelSpec("cloner", copies=2)), True),
            (lambda: build_r_montecarlo(model_family(ModelSpec("unot", copies=2)), 500, 1), False),
        ],
        ids=["unot-2-off-block-start", "cloner-2-off-block-start", "sampled-unot-2"],
    )
    def test_lambda_gap_off_the_blocks_matches_the_dense_formula(self, target, off_block_start):
        r = target()
        init = random_choi(r.dim_in, r.dim_out, 7) if off_block_start else "maxmix"
        result = solve(r, SolverOptions(init=init))
        assert (solver_module._blocks_of(result.chi, r) is None) == np.isnan(result.gap)
        assert abs(result.lambda_gap - dense_lambda_gap(result.chi, r)) <= 1e-12


def dense_lambda_gap(chi: ChoiOperator, r: TargetOperator) -> float:
    """The smallest gap between adjacent roots of lambda = (Tr_K[R chi R])^{1/2}, from one eigvalsh."""
    m = r.matrix @ chi.matrix @ r.matrix
    roots = clip_roots(np.linalg.eigvalsh(hermitian_part(partial_trace(m, r.dim_in, r.dim_out))))
    return np.diff(roots).min()


class TestRootsInAnyOrder:
    # On R's blocks lambda's roots come in input order, off them ascending;
    # sorted, they agree, and lambda_gap sorts them once.
    @pytest.mark.parametrize("init", ["maxmix", "random:4"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_block_roots_sorted_equal_the_dense_roots(self, spec, init):
        r = analytic_r(spec)
        chi = initial_choi(r, init)
        assert solver_module._blocks_of(chi, r) is not None
        dense_step = solver_module._extremal_step(r.matrix @ chi.matrix @ r.matrix, r.dim_in, r.dim_out)
        assert np.abs(iterate_once(chi, r).matrix - dense_step).max() <= 1e-13
        block_roots, dense_roots = solver_module._roots(chi, r), solver_module._roots(chi, without_plan(r))
        assert np.abs(np.sort(block_roots) - dense_roots).max() <= 1e-13

    def test_unsorted_block_roots(self, monkeypatch):
        # From maxmix on R = diag(.6, 0, 0, .4), Tr_K[R chi R] = diag(.18, .08) is not ascending by input.
        r = TargetOperator(2, 2, np.diag([0.6, 0, 0, 0.4]))
        chi = maxmix_choi(r.dim_in, r.dim_out)
        want = reference_step(chi, r)
        monkeypatch.setattr(solver_module, "_extremal_step", _refuse_dense_step)
        roots = solver_module._roots(chi, r)
        assert not np.array_equal(roots, np.sort(roots))
        assert np.abs(iterate_once(chi, r).matrix - want).max() <= 1e-13

    def test_an_all_zero_marginal_is_singular_on_both_paths(self, monkeypatch):
        r = analytic_r(ModelSpec("unot", copies=2))
        zero = np.zeros((r.dim_in * r.dim_out,) * 2, dtype=complex)
        with pytest.raises(SingularLambdaError, match=r"Tr_K\[R chi R\] vanished"):
            solver_module._extremal_step(zero, r.dim_in, r.dim_out)
        monkeypatch.setattr(solver_module, "_extremal_step", _refuse_dense_step)
        chi = ChoiOperator(r.dim_in, r.dim_out, zero)
        for call in (solver_module._roots, iterate_once):
            with pytest.raises(SingularLambdaError, match=r"Tr_K\[R chi R\] vanished"):
                call(chi, r)


class TestRootsRefuseWhatTheStepRefuses:
    # lambda_gap reads _roots, whose clip rule alone passes a NaN marginal
    # (a NaN root); _roots refuses first by the step's own rule, on R's
    # blocks and off them.  chi = diag(marginal) (x) 1_K / K is on any plan.
    @pytest.mark.parametrize("hidden", [False, True], ids=["blocks", "without-plan"])
    @pytest.mark.parametrize(
        "marginal", [[1.0, -1.0, 1.0], [0.0, 0.0, 0.0], [np.nan, 1.0, 1.0]], ids=["negative", "all-zero", "nan"]
    )
    @pytest.mark.parametrize(
        "target",
        [lambda: TargetOperator(3, 2, np.eye(6) / 6), lambda: analytic_r(ModelSpec("unot", copies=2))],
        ids=["diagonal", "unot-2"],
    )
    def test_same_error_as_the_step(self, target, marginal, hidden):
        r = without_plan(target()) if hidden else target()
        chi = ChoiOperator(3, 2, np.diag(np.repeat(marginal, 2) / 2))
        assert (solver_module._blocks_of(chi, r) is None) == hidden
        raised = []
        for call in (solver_module._roots, iterate_once):
            with pytest.raises(Exception) as info:
                call(chi, r)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]


class TestEndgameOnTheBlocks:
    # The recovered chi is pinched to R's blocks, so the endgame's last step
    # takes the block step and its answer stays on the blocks.
    def check(self, r, chi, monkeypatch):
        monkeypatch.setattr(solver_module, "_extremal_step", _refuse_dense_step)
        done = _dual_endgame(r, chi)
        assert done is not None and done[1] <= SolverOptions().fid_tol
        assert not done[0].matrix[off_blocks(r)].any()

    @ROUTES
    @pytest.mark.parametrize("alpha", [0.71, 3.13], ids=str)
    def test_at_the_firing_iterate(self, alpha, build, endgame_calls, monkeypatch):
        r = build(ModelSpec("shifter", alpha=alpha))
        solve(r)
        self.check(r, endgame_calls.chis[0], monkeypatch)

    def test_forced_on_a_wide_output(self, monkeypatch):
        r = analytic_r(ModelSpec("cloner", copies=10))
        self.check(r, iterate_once(maxmix_choi(r.dim_in, r.dim_out), r), monkeypatch)


def without_plan(r: TargetOperator) -> TargetOperator:
    """R with its block plan hidden, and its dual kept: the endgame then takes the dense layout."""
    hidden = TargetOperator(r.dim_in, r.dim_out, r.matrix, dual=r.dual)
    hidden.__dict__["blocks"] = None
    return hidden


def firing_iterate(alpha: float, init: str) -> ChoiOperator:
    """The iterate the shifter row's endgame gets from init."""
    chis = []
    r = analytic_r(ModelSpec("shifter", alpha=alpha))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_dual_endgame", lambda r, chi: chis.append(chi))
        solve(r, SolverOptions(init=init))
    return chis[0]


def cloner_10_iterate() -> ChoiOperator:
    r = analytic_r(ModelSpec("cloner", copies=10))
    return iterate_once(maxmix_choi(r.dim_in, r.dim_out), r)


# (spec, the iterate its endgame gets): the budget rows' firing iterates, then the forced cloner N = 10 call.
STARTS = ("maxmix", "random:1", "random:2")
ENDGAME_ROWS = [
    *(
        (ModelSpec("shifter", alpha=a), lambda a=a, init=init: firing_iterate(a, init))
        for a in (ALPHA_THRESHOLD + 1e-4, 0.71, 3.13)
        for init in STARTS
    ),
    (ModelSpec("cloner", copies=10), cloner_10_iterate),
]
ENDGAME_IDS = [f"{a}-{init}" for a in ("a0+1e-4", "0.71", "3.13") for init in STARTS] + ["cloner-10"]


def forced_iterate(r: TargetOperator, init: str, steps: int = 3) -> ChoiOperator:
    """The iterate after a few steps from init: an endgame forced far from the optimum."""
    chi = initial_choi(r, init)
    for _ in range(steps):
        chi = iterate_once(chi, r)
    return chi


# unot N = 10 has 12 blocks of at most 2 indices.
UNOT10 = ModelSpec("unot", copies=10)
LAYOUT_ROWS = ENDGAME_ROWS + [
    (UNOT10, lambda init=init: forced_iterate(analytic_r(UNOT10), init)) for init in ("maxmix", "random:1")
]
LAYOUT_IDS = ENDGAME_IDS + ["unot-10-maxmix", "unot-10-random:1"]


class TestDiagonalDual:
    # With a block plan the endgame's unknowns are a diagonal y and its slack a
    # (B, s, s) stack; the dense Y, taken when the plan is hidden, is the reference.
    @pytest.mark.parametrize("spec, chi", LAYOUT_ROWS, ids=LAYOUT_IDS)
    def test_both_layouts_certify_the_same_value(self, spec, chi):
        r, chi = barrier_r(spec), chi()
        optimum = known_optimum(spec).fidelity
        answers = [_dual_endgame(target, chi) for target in (r, without_plan(r))]
        for done in answers:
            assert done is not None and done[1] <= SolverOptions().fid_tol
            assert done[1] >= abs(fidelity(done[0], r) - optimum)
        assert abs(fidelity(answers[0][0], r) - fidelity(answers[1][0], r)) <= 1e-12

    @pytest.mark.parametrize("spec, chi", [ENDGAME_ROWS[3], ENDGAME_ROWS[-1]], ids=["0.71-maxmix", "cloner-10"])
    def test_empty_kernel_rejects_on_the_blocks(self, spec, chi, monkeypatch):
        # mu stays large, so every slack eigenvalue of R's positions lies above
        # sqrt(mu), while the padding's 1 lies below it: the kernel must be
        # empty, and the recovery rejects it.
        r, chi = barrier_r(spec), chi()
        on_r = (r.blocks.input_labels < r.dim_in)[:, :, None]  # R's positions, not the padding
        assert not on_r.all()
        kernels, errors, real = [], [], solver_module._diagonal_dual

        def recorded(r, chi):
            *layout, recover = real(r, chi)

            def spied(z_eigs, z_vecs, cut):
                below = z_eigs < cut
                of_r = (np.abs(z_vecs) ** 2 * on_r).sum(axis=1) > 0.5  # each eigenvector lives on R or the padding
                kernels.append((np.count_nonzero(below & of_r), np.count_nonzero(below & ~of_r)))
                try:
                    return recover(z_eigs, z_vecs, cut)
                except InvalidChoiError as e:
                    errors.append(str(e))
                    raise

            return (*layout, spied)

        monkeypatch.setattr(solver_module, "_diagonal_dual", recorded)
        monkeypatch.setattr(solver_module, "BARRIER_GAP", 1e6)
        assert _dual_endgame(r, chi) is None
        assert len(kernels) == 1 and kernels[0][0] == 0 and kernels[0][1] > 0
        assert errors == ["the slack has no kernel"]

    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_padding_is_never_a_kernel_direction(self, spec):
        # Below an infinite cut the kernel spans each block's positions of R,
        # so the fit gives 1/dim_out on their diagonal (maxmix's stack), and the
        # padding's eigenvectors add nothing: the stack is exactly 0 on plan.pad.
        r = analytic_r(spec)
        maxmix = initial_choi(r, "maxmix")
        y, _, slack, _, recover = solver_module._diagonal_dual(r, maxmix)
        plan, stack = recover(*slack(y + 1.0), np.inf)._stack
        assert plan is r.blocks
        assert not stack[plan.pad].any()
        assert np.abs(stack - maxmix._stack[1]).max() <= 1e-12

    @pytest.mark.parametrize("spec", [ModelSpec("entangler_a"), ModelSpec("entangler_b"), UNOT10], ids=str)
    def test_block_fit_is_the_dense_fit(self, spec, monkeypatch):
        # A random complex kernel of rank 2 in each block (rank 1 where a block
        # has one position of R): the block fit and the dense fit of the same
        # kernel, scattered, give the same operator.  Their X may be indefinite.
        # entangler-a's 3-position blocks get a kernel that is not the whole
        # block, where a fit that misplaces a conjugate gives another answer.
        r = analytic_r(spec)
        plan, d, n = r.blocks, r.dim_in, r.dim_in * r.dim_out
        on_r = plan.input_labels < d  # the padding comes last in each block
        g = np.random.default_rng(3).standard_normal((*plan.pad.shape, 2)) @ np.array([1, 1j])
        g = np.where(on_r[:, :, None] & on_r[:, None, :], g, np.eye(g.shape[1]))
        z_vecs = np.linalg.qr(g)[0]  # unitary, the identity on the padding
        z_eigs = np.where(np.arange(g.shape[1]) < np.minimum(2, on_r.sum(axis=1))[:, None], 0.0, 10.0)
        monkeypatch.setattr(solver_module, "PSD_TOL", np.inf)
        chi = initial_choi(r, "maxmix")
        stack = solver_module._diagonal_dual(r, chi)[-1](z_eigs, z_vecs, 1.0)._stack[1]
        b, i = np.nonzero(z_eigs < 1.0)
        p = np.zeros((n + 1, len(b)), dtype=complex)
        p[plan.flat[b, :, 0] // n, np.arange(len(b))[:, None]] = z_vecs[b, :, i]  # the padding to row n
        dense = solver_module._dense_dual(without_plan(r), chi)[-1](np.zeros(len(b)), p[:n], 1.0)
        assert np.abs(plan.scatter(stack) - dense.matrix).max() <= 1e-12

    @pytest.mark.parametrize("hidden", [False, True], ids=["blocks", "dense"])
    def test_recovery_makes_one_psd_solve(self, hidden, monkeypatch):
        # newton_steps counts every _psd_solve call of an endgame but this one.
        r = analytic_r(ModelSpec("shifter", alpha=0.71))
        chi = ENDGAME_ROWS[3][1]()
        name = "_dense_dual" if hidden else "_diagonal_dual"
        calls, recoveries, real = [], [], getattr(solver_module, name)

        def recorded(r, chi):
            *layout, recover = real(r, chi)

            def spied(*args):
                before = len(calls)
                answer = recover(*args)
                recoveries.append(len(calls) - before)
                return answer

            return (*layout, spied)

        monkeypatch.setattr(solver_module, name, recorded)
        monkeypatch.setattr(solver_module, "_psd_solve", lambda m, v: calls.append(m.shape) or _psd_solve(m, v))
        done = _dual_endgame(without_plan(r) if hidden else r, chi)
        assert done is not None and done[1] <= SolverOptions().fid_tol
        assert recoveries == [1]

    def test_many_blocks_recover_in_little_memory(self, monkeypatch):
        # unot N = 30 has 32 blocks and a rank-32 kernel: a dense fit's
        # (rank^2, rank^2) normal matrix alone would take 16 MB.
        spec = ModelSpec("unot", copies=30)
        r = analytic_r(spec)
        chi = forced_iterate(r, "maxmix")
        monkeypatch.setattr(targets_module.BlockPlan, "scatter", refuse_scatter)
        tracemalloc.start()
        try:
            done = _dual_endgame(r, chi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6
        assert done is not None and done[1] <= SolverOptions().fid_tol
        assert done[0]._stack[0] is r.blocks
        assert abs(fidelity(done[0], r) - known_optimum(spec).fidelity) <= 1e-12

    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_warm_start_is_the_diagonal_of_the_dense_one(self, spec, monkeypatch):
        r = analytic_r(spec)
        chi = initial_choi(r, "random:1")  # carries its stack, and no matrix until one is read
        with monkeypatch.context() as mp:
            mp.setattr(targets_module.BlockPlan, "scatter", refuse_scatter)
            y = solver_module._diagonal_dual(r, chi)[0]
        dense = solver_module._dense_dual(without_plan(r), chi)[0]
        assert np.allclose(y, dense.diagonal().real, atol=1e-15)
        assert np.abs(dense - np.diag(dense.diagonal())).max() <= 1e-15


# Shifter angles for the stored-dual endgame: a grid on [0, pi], alpha0 +- 10^-k, alpha0, and the rows near pi.
STORED_DUAL_ALPHAS = [
    *np.linspace(0.0, np.pi, 401).tolist(),
    *(ALPHA_THRESHOLD + sign * 10.0**-k for k in range(2, 16) for sign in (1, -1)),
    ALPHA_THRESHOLD,
    np.pi - 1e-3,
    3.13,
]


def refuse_barrier(*args):
    raise AssertionError("the barrier ran")


class TestStoredDual:
    # analytic_r's shifter carries its optimum's dual: the endgame takes its
    # slack in one eigh, recovers chi on its kernel and never runs the barrier.
    @pytest.mark.parametrize("hidden", [False, True], ids=["blocks", "dense"])
    @pytest.mark.parametrize("init", ["maxmix", "random:1"])
    def test_recovers_the_closed_form(self, init, hidden, monkeypatch):
        monkeypatch.setattr(solver_module, "_barrier", refuse_barrier)
        for alpha in STORED_DUAL_ALPHAS:
            r = analytic_r(ModelSpec("shifter", alpha=alpha))
            done = _dual_endgame(without_plan(r) if hidden else r, forced_iterate(r, init))
            assert done is not None, alpha
            assert abs(fidelity(done[0], r) - shifter_closed_forms(alpha).fidelity) <= 1e-15, alpha
            assert type(done[1]) is float and 0.0 <= done[1] <= 1e-15, alpha

    @pytest.mark.parametrize("hidden", [False, True], ids=["blocks", "dense"])
    @pytest.mark.parametrize("alpha", [0.3, ALPHA_THRESHOLD + 1e-4, 0.71, 2.0, 3.13], ids=str)
    def test_a_moved_dual_forges_no_certificate(self, alpha, hidden):
        # Tr y + dim_in max(0, -lambda_min(Z)) bounds F* for any y: a wrong dual
        # fails or certifies a gap no smaller than the true one.
        r = analytic_r(ModelSpec("shifter", alpha=alpha))
        optimum = shifter_closed_forms(alpha).fidelity
        chi = forced_iterate(r, "maxmix")
        moves = [0.0, 1e-9, -1e-9, 1e-3, -1e-3]
        for move in ((m0, m1) for m0 in moves for m1 in moves if (m0, m1) != (0.0, 0.0)):
            moved = TargetOperator(2, 2, r.matrix, dual=r.dual + move)
            done = _dual_endgame(without_plan(moved) if hidden else moved, chi)
            assert done is None or done[1] >= optimum - fidelity(done[0], r) - 1e-15, move

    def test_a_failing_dual_leaves_the_iteration_unchanged(self, monkeypatch, endgame_results):
        # y one above the optimum: the slack has no kernel, and the endgame
        # returns None without falling back to the barrier.
        r = analytic_r(ModelSpec("shifter", alpha=0.71))
        opts = SolverOptions()
        chi, trace = plain_iteration(r, opts)
        monkeypatch.setattr(solver_module, "_barrier", refuse_barrier)
        result = solve(TargetOperator(2, 2, r.matrix, dual=r.dual + 1.0), opts)
        assert endgame_results == [None]
        assert np.array_equal(result.chi.matrix, chi.matrix)
        assert result.fidelity_trace == trace
        assert np.isnan(result.gap)

    @pytest.mark.parametrize("init", STARTS)
    @pytest.mark.parametrize("alpha", [ALPHA_THRESHOLD + 1e-4, 0.7, 0.71, 3.0, 3.13], ids=str)
    def test_a_stored_dual_stop_has_python_types(self, alpha, init, monkeypatch, endgame_results):
        # The gap and converged are a float and a bool, as a barrier stop's are,
        # also where the slack's least eigenvalue is a rounding-level negative.
        monkeypatch.setattr(solver_module, "_barrier", refuse_barrier)
        result = solve(analytic_r(ModelSpec("shifter", alpha=alpha)), SolverOptions(init=init))
        assert len(endgame_results) == 1 and result.converged
        assert type(result.gap) is float and type(result.converged) is bool
        assert 0.0 <= result.gap <= 1e-15
        json.dumps({"gap": result.gap, "converged": result.converged})

    def test_one_psd_solve_per_call(self, monkeypatch):
        # No Newton step: the recovery's solve is the call's only one.
        r = analytic_r(ModelSpec("shifter", alpha=0.71))
        calls = []
        monkeypatch.setattr(solver_module, "_psd_solve", lambda m, v: calls.append(m.shape) or _psd_solve(m, v))
        assert _dual_endgame(r, forced_iterate(r, "maxmix")) is not None
        assert len(calls) == 1


def refuse_scatter(self, blocks):
    raise AssertionError("the stack was scattered")


def full_block(r: TargetOperator) -> int:
    """The first of R's blocks that has no padding."""
    return int(np.flatnonzero(~r.blocks.pad.any(axis=(1, 2)))[0])


def negative_in_one_block(r: TargetOperator, m: np.ndarray) -> None:
    """Give one block of m the eigenvalue -1e-3 in place of its smallest."""
    idx = r.blocks.flat[full_block(r)]
    block = m.ravel()[idx]
    w, v = np.linalg.eigh(block)
    m.ravel()[idx] = block - (w[0] + 1e-3) * np.outer(v[:, 0], v[:, 0].conj())


def trace_off_on_one_input(r: TargetOperator, m: np.ndarray) -> None:
    m[0, 0] += 1e-6


def non_hermitian_pair(r: TargetOperator, m: np.ndarray) -> None:
    m.ravel()[r.blocks.flat[full_block(r), 0, 1]] += 1e-6


def nan_entry(r: TargetOperator, m: np.ndarray) -> None:
    m.ravel()[r.blocks.flat[full_block(r), 1, 0]] = np.nan


def refuse_dense_check(*args):
    raise AssertionError("dense admissibility check called")


class TestClosingCheckOnTheBlocks:
    # require_valid_choi measures a chi that carries its (B, s, s) stack on its
    # blocks; solve's closing check and the endgame's check of its answer run
    # through it, and channels' one rule judges both measurements alike.
    SPECS = [
        ModelSpec("unot", copies=2),
        ModelSpec("cloner", copies=10),
        ModelSpec("entangler_a"),
        ModelSpec("entangler_b"),
        ModelSpec("shifter", alpha=1.0),
    ]

    @pytest.mark.parametrize(
        "fault",
        [negative_in_one_block, trace_off_on_one_input, non_hermitian_pair, nan_entry],
        ids=["negative-eigenvalue", "trace", "non-hermitian", "nan"],
    )
    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_a_fault_raises_as_the_dense_check_does(self, spec, fault, monkeypatch):
        r = analytic_r(spec)
        m = np.array(solve(r).chi.matrix)
        fault(r, m)
        chi = ChoiOperator(r.dim_in, r.dim_out, m)
        assert solver_module._blocks_of(chi, r) is not None
        with pytest.raises(InvalidChoiError) as dense:
            require_valid_choi(chi)
        carried = ChoiOperator._frozen(r.dim_in, r.dim_out, None, (r.blocks, r.blocks.gather(m)))
        monkeypatch.setattr(channels_module, "require_admissible", refuse_dense_check)
        with pytest.raises(InvalidChoiError) as blocked:
            require_valid_choi(carried)
        assert type(blocked.value) is type(dense.value) and str(blocked.value) == str(dense.value)

    @pytest.mark.parametrize("init", ["maxmix", "random:2"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_solves_on_the_blocks_skip_the_dense_check(self, spec, init, monkeypatch):
        r = analytic_r(spec)
        want = solve(r, SolverOptions(init=init))
        monkeypatch.setattr(channels_module, "require_admissible", refuse_dense_check)
        got = solve(r, SolverOptions(init=init))
        assert same_bytes(got.chi.matrix, want.chi.matrix) and got.iterations == want.iterations

    def test_a_certified_answer_is_checked_once(self, monkeypatch, endgame_results):
        # _dual_endgame checks its answer; solve does not check it again.
        checked = []
        real = solver_module.require_valid_choi
        monkeypatch.setattr(solver_module, "require_valid_choi", lambda chi: checked.append(chi) or real(chi))
        result = solve(analytic_r(ModelSpec("shifter", alpha=0.71)))
        assert result.gap <= SolverOptions().fid_tol
        assert len(checked) == 1 and checked[0] is endgame_results[0][0]
        assert result.chi.matrix is checked[0].matrix  # the result wraps the checked answer's matrix

    def test_endgame_answer_is_checked_on_the_blocks(self, monkeypatch):
        r = analytic_r(ModelSpec("cloner", copies=10))
        monkeypatch.setattr(channels_module, "require_admissible", refuse_dense_check)
        assert _dual_endgame(r, iterate_once(maxmix_choi(r.dim_in, r.dim_out), r)) is not None

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    def test_a_carried_stack_is_checked_without_its_matrix(self, spec, monkeypatch):
        r = analytic_r(spec)
        chi = iterate_once(initial_choi(r, "random:2"), r)
        monkeypatch.setattr(targets_module.BlockPlan, "scatter", refuse_scatter)
        require_valid_choi(chi)
        assert "matrix" not in chi.__dict__

    def test_an_init_off_the_blocks_takes_the_dense_check(self, monkeypatch):
        r = analytic_r(ModelSpec("unot", copies=2))
        init = random_choi(r.dim_in, r.dim_out, 7)
        assert r.blocks is not None and solver_module._blocks_of(init, r) is None
        checked = []
        real = solver_module.require_valid_choi
        monkeypatch.setattr(solver_module, "require_valid_choi", lambda chi: checked.append(chi) or real(chi))
        result = solve(r, SolverOptions(init=init))
        assert solver_module._blocks_of(result.chi, r) is None
        assert checked[0] is init and checked[-1].matrix is result.chi.matrix and len(checked) == 2

    @pytest.mark.parametrize("spec", SAMPLED_SPECS[:2], ids=str)
    def test_a_target_without_a_plan_takes_the_dense_check(self, spec, monkeypatch):
        r = build_r_montecarlo(model_family(spec), 500, 1)
        checked = []
        real = solver_module.require_valid_choi
        monkeypatch.setattr(solver_module, "require_valid_choi", lambda chi: checked.append(chi) or real(chi))
        result = solve(r)
        assert r.blocks is None and checked[-1].matrix is result.chi.matrix  # the endgame's answer may come first


class TestIterateOnceTrustsItsStep:
    # iterate_once checks its operands' dims, then freezes the step's fresh
    # array in place: the bytes the public constructor's copy would hold.
    @pytest.mark.parametrize(
        "spec, sampled, init",
        [
            (ModelSpec("unot", copies=2), False, "maxmix"),
            (ModelSpec("cloner", copies=10), False, "random:3"),
            (ModelSpec("entangler_a"), False, "random:3"),
            (ModelSpec("unot", copies=2), False, None),  # a start off the blocks
            (ModelSpec("cloner", copies=2), True, "random:3"),
        ],
        ids=["unot-2", "cloner-10", "entangler-a", "off-blocks", "sampled"],
    )
    def test_read_only_same_bytes_no_alias(self, spec, sampled, init):
        r = build_r_montecarlo(model_family(spec), 500, 1) if sampled else analytic_r(spec)
        chi = random_choi(r.dim_in, r.dim_out, 7) if init is None else initial_choi(r, init)
        out = iterate_once(chi, r).matrix
        plan, m = solver_module._sandwich(chi, r)
        if plan is None:
            step = solver_module._extremal_step(m, r.dim_in, r.dim_out)
        else:
            step = plan.scatter(solver_module._normalized(plan, m, r.dim_in))
        want = ChoiOperator(r.dim_in, r.dim_out, step).matrix
        assert same_bytes(out, want) and out.flags.c_contiguous == want.flags.c_contiguous
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 0.0
        assert not np.shares_memory(out, chi.matrix) and not np.shares_memory(out, r.matrix)

    def test_public_constructor_keeps_its_checks(self):
        with pytest.raises(DimensionMismatchError):
            ChoiOperator(2, 2, np.eye(3))
        m = np.eye(4, dtype=complex)
        chi = ChoiOperator(2, 2, m)
        assert not np.shares_memory(chi.matrix, m) and m.flags.writeable

    def test_dims_still_checked(self):
        with pytest.raises(DimensionMismatchError):
            iterate_once(maxmix_choi(2, 3), UNOT1)


class TestCarriedStack:
    # An iterate of the block step carries its (B, s, s) stack with R's plan;
    # the next step and fidelity read it instead of gathering chi's matrix.
    @pytest.mark.parametrize("init", ["maxmix", "random:4"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_stack_is_the_gather_of_the_matrix(self, spec, init):
        r = analytic_r(spec)
        chi = iterate_once(iterate_once(initial_choi(r, init), r), r)
        plan, stack = chi._stack
        assert plan is r.blocks
        assert same_bytes(stack, plan.gather(chi.matrix))
        assert not stack.flags.writeable and not chi.matrix.flags.writeable

    @pytest.mark.parametrize("init", ["maxmix", "random:4"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_same_bits_with_and_without_the_stack(self, spec, init):
        r = analytic_r(spec)
        chi = iterate_once(initial_choi(r, init), r)
        plain = ChoiOperator(r.dim_in, r.dim_out, chi.matrix)
        assert plain._stack == (None, None)
        assert same_bytes(iterate_once(chi, r).matrix, iterate_once(plain, r).matrix)
        assert same_bytes(np.float64(fidelity(chi, r)), np.float64(fidelity(plain, r)))

    @pytest.mark.parametrize("init", ["maxmix", "random:4"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_fidelity_is_the_trace_of_the_product(self, spec, init):
        r = analytic_r(spec)
        for chi in (initial_choi(r, init), iterate_once(initial_choi(r, init), r)):
            assert abs(fidelity(chi, r) - np.einsum("ij,ji->", chi.matrix, r.matrix).real) <= 1e-15

    @pytest.mark.parametrize("spec", [ModelSpec("unot", copies=2), ModelSpec("shifter", alpha=0.5)], ids=str)
    def test_a_stack_from_another_plan_is_ignored(self, spec):
        # A zero stack read on r's plan gives F = 0; on an equal target with
        # its own plan it is not read.
        r = analytic_r(spec)
        other = TargetOperator(r.dim_in, r.dim_out, r.matrix)
        matrix = iterate_once(initial_choi(r, "maxmix"), r).matrix
        plain = ChoiOperator(r.dim_in, r.dim_out, matrix)
        wrong = ChoiOperator._frozen(r.dim_in, r.dim_out, matrix, (r.blocks, np.zeros_like(r.blocks.gather(matrix))))
        assert other.blocks is not r.blocks
        assert fidelity(wrong, r) == 0.0 != fidelity(plain, r)
        assert same_bytes(iterate_once(wrong, other).matrix, iterate_once(plain, other).matrix)
        assert fidelity(wrong, other) == fidelity(plain, other)

    def test_a_stack_on_a_target_without_a_plan_is_ignored(self):
        spec = ModelSpec("unot", copies=2)
        chi = iterate_once(initial_choi(analytic_r(spec), "random:4"), analytic_r(spec))
        sampled = build_r_montecarlo(model_family(spec), 500, 1)
        plain = ChoiOperator(chi.dim_in, chi.dim_out, chi.matrix)
        assert sampled.blocks is None and chi._stack[0] is not None
        assert solver_module._blocks_of(chi, sampled) is None
        assert same_bytes(iterate_once(chi, sampled).matrix, iterate_once(plain, sampled).matrix)

    def test_a_solve_returns_no_stack(self):
        r = analytic_r(ModelSpec("unot", copies=2))
        result = solve(r)
        assert result.chi._stack == (None, None)
        assert fidelity(result.chi, r) == result.fidelity

    def test_dense_steps_carry_no_stack(self):
        r = analytic_r(ModelSpec("unot", copies=2))
        off = iterate_once(random_choi(r.dim_in, r.dim_out, 7), r)  # a start off the blocks
        sampled = build_r_montecarlo(model_family(ModelSpec("unot", copies=2)), 500, 1)
        assert off._stack == (None, None)
        assert iterate_once(maxmix_choi(sampled.dim_in, sampled.dim_out), sampled)._stack == (None, None)


@pytest.fixture
def iterate_calls(monkeypatch):
    """Count the calls of solver.iterate_once, the loop's and the endgame's."""
    calls = []
    real = solver_module.iterate_once

    def counted(chi, r):
        calls.append(1)
        return real(chi, r)

    monkeypatch.setattr(solver_module, "iterate_once", counted)
    return calls


class TestOneStepPerIteration:
    # Each reported iteration is one iterate_once call, a certified endgame's
    # included; perfbench's span check counts a solve's steps this way.  An
    # uncertified endgame still makes one call more, the step it discards:
    # test_calls_equal_iterations_after_an_uncertified_endgame pins that as a strict xfail.
    @pytest.mark.parametrize(
        "target, certified",
        [
            (lambda: analytic_r(ModelSpec("shifter", alpha=0.5)), False),
            (lambda: build_r_montecarlo(model_family(ModelSpec("shifter", alpha=2.0)), 500, 1), False),
            (lambda: analytic_r(ModelSpec("shifter", alpha=0.71)), True),
        ],
        ids=["block-target", "sampled-target", "certified-endgame"],
    )
    def test_calls_equal_iterations(self, target, certified, iterate_calls):
        r = target()
        result = solve(r)
        assert result.converged and (not np.isnan(result.gap)) == certified
        assert len(iterate_calls) == result.iterations > 1

    @pytest.mark.xfail(strict=True, reason="an uncertified endgame discards one iterate_once call")
    def test_calls_equal_iterations_after_an_uncertified_endgame(self, iterate_calls):
        # With fid_tol = 1e-300 no endgame certifies and the fidelity rule never
        # fires, so the solve runs all 300 steps; the endgame's discarded step is one more call.
        result = solve(analytic_r(ModelSpec("shifter", alpha=0.7)), SolverOptions(max_iters=300, fid_tol=1e-300))
        assert not result.converged and np.isnan(result.gap)
        assert len(iterate_calls) == result.iterations


class TestMatrixOnFirstRead:
    # A block step's result carries its stack and writes its n x n matrix only
    # when something reads it: then it is the stack scattered, read-only, and kept.
    @pytest.mark.parametrize("init", ["maxmix", "random:4"])
    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_read_scatters_the_stack_once(self, spec, init):
        r = analytic_r(spec)
        chi = iterate_once(initial_choi(r, init), r)
        plan, stack = chi._stack
        assert type(chi) is ChoiOperator and plan is r.blocks
        assert "matrix" not in chi.__dict__
        m = chi.matrix
        assert same_bytes(m, plan.scatter(stack))
        assert not m.flags.writeable and m.flags.c_contiguous
        assert chi.matrix is m and chi.__dict__["matrix"] is m

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_copy_and_pickle_keep_the_bytes(self, read_first):
        r = analytic_r(ModelSpec("unot", copies=2))
        chi = iterate_once(initial_choi(r, "random:4"), r)
        want = r.blocks.scatter(chi._stack[1])
        if read_first:
            chi.matrix
        for twin in (copy.deepcopy(chi), pickle.loads(pickle.dumps(chi)), copy.copy(chi)):
            assert type(twin) is ChoiOperator and (twin.dim_in, twin.dim_out) == (r.dim_in, r.dim_out)
            assert same_bytes(twin.matrix, want)
        assert same_bytes(chi.matrix, want)

    def test_equality_and_repr_read_the_matrix(self):
        r = analytic_r(ModelSpec("shifter", alpha=0.5))
        chi = iterate_once(initial_choi(r, "maxmix"), r)
        assert repr(chi) == repr(ChoiOperator(r.dim_in, r.dim_out, r.blocks.scatter(chi._stack[1])))
        assert "matrix" in chi.__dict__

    def test_the_class_and_other_names_are_as_before(self):
        r = analytic_r(ModelSpec("unot", copies=2))
        chi = iterate_once(initial_choi(r, "maxmix"), r)
        with pytest.raises(AttributeError, match="'ChoiOperator' object has no attribute 'matriks'"):
            chi.matriks
        assert not hasattr(ChoiOperator, "matrix")  # as before: the class holds no matrix
        assert [f.name for f in dataclasses.fields(ChoiOperator)] == ["dim_in", "dim_out", "matrix"]
        with pytest.raises(TypeError):
            ChoiOperator(2, 2)  # matrix is still a required field

    @pytest.mark.parametrize("init", ["maxmix", "random:3"])
    @pytest.mark.parametrize("spec", [ModelSpec("unot", copies=30), ModelSpec("shifter", alpha=0.5)], ids=str)
    def test_a_loop_of_steps_writes_no_matrix(self, spec, init, monkeypatch):
        r = analytic_r(spec)
        chi = initial_choi(r, init)
        scatters = []
        real = targets_module.BlockPlan.scatter
        monkeypatch.setattr(targets_module.BlockPlan, "scatter", lambda plan, b: scatters.append(1) or real(plan, b))
        iterates = []
        for _ in range(20):
            chi = iterate_once(chi, r)
            fidelity(chi, r)
            iterates.append(chi)
        assert scatters == []
        assert not any("matrix" in it.__dict__ for it in iterates)

    def test_a_pinched_start_carries_its_blocks(self):
        r = analytic_r(ModelSpec("cloner", copies=10))
        chi = initial_choi(r, "random:3")
        plan, stack = chi._stack
        assert plan is r.blocks and "matrix" not in chi.__dict__
        assert np.abs(stack - plan.gather(pinched_wishart_start(r, 3))).max() <= 1e-14
        assert same_bytes(stack, initial_choi(r, "random:3")._stack[1])
        assert same_bytes(chi.matrix, plan.scatter(stack))

    def test_a_solve_reads_its_result(self):
        r = analytic_r(ModelSpec("unot", copies=30))
        result = solve(r, SolverOptions(init="random:1"))
        assert "matrix" in result.chi.__dict__ and "_stack" not in result.chi.__dict__
        assert not result.chi.matrix.flags.writeable


class TestRandomChoiBytes:
    # random_choi writes its two normal draws into one complex array: the
    # bytes of the x + 1j y formula.
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 2), (2, 5), (31, 2)], ids=str)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_same_bytes_as_the_sum(self, dims, seed):
        rng = np.random.default_rng(seed)
        n = dims[0] * dims[1]
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = solver_module._extremal_step(w @ w.conj().T, *dims)
        assert same_bytes(random_choi(*dims, seed).matrix, ChoiOperator(*dims, want).matrix)


class TestInverseRoots:
    # Singular exactly when every clipped root is 0; otherwise the support rule's
    # pseudo-inverse of the roots, bit for bit.
    @pytest.mark.parametrize(
        "w",
        [
            [0.0, 0.0],
            [5e-13, 0.0],
            [-5e-13, 9.9e-13],
            [1e-12, 0.0],
            [1.0, 0.0],
            [4.0, 1e-30, 0.25],
            [0.3, 1e-25 * 0.3, 2.0],
            [2.5],
        ],
        ids=str,
    )
    def test_singular_exactly_when_every_root_is_zero(self, w):
        w = np.array(w)
        roots = clip_roots(w)
        if not roots.any():
            with pytest.raises(SingularLambdaError, match=r"Tr_K\[R chi R\] vanished"):
                solver_module._inverse_roots(w)
            return
        assert same_bytes(solver_module._inverse_roots(w), inverse_on_support(roots, PINV_CUTOFF))

    @pytest.mark.parametrize("w", [[np.nan, np.nan], [np.nan, 1.0]], ids=str)
    def test_a_nan_spectrum_is_singular(self, w):
        # A NaN root makes the support empty, so the step refuses it.
        with pytest.raises(SingularLambdaError):
            solver_module._inverse_roots(np.array(w))


class TestPlanStructurePerZeroPattern:
    # labels, flat, pad, inputs, input_labels and pair_labels come from R's zero
    # pattern, once per pattern; sandwich and overlap from R's entries, once per target.
    SHARED = ("labels", "flat", "pad", "inputs", "input_labels", "pair_labels")
    FIELDS = (*SHARED, "sandwich", "overlap")

    @pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=str)
    def test_cached_plan_equals_a_fresh_one(self, spec):
        r = analytic_r(spec)
        cached = block_plan(r.matrix, r.dim_in, r.dim_out)
        targets_module._block_structure.cache_clear()
        fresh = block_plan(r.matrix, r.dim_in, r.dim_out)
        for name in self.FIELDS:
            a, b = getattr(cached, name), getattr(fresh, name)
            assert same_bytes(a, b), name
        assert all(not getattr(cached, name).flags.writeable for name in self.SHARED)

    def test_two_shifter_angles_share_the_structure(self):
        a, b = (analytic_r(ModelSpec("shifter", alpha=x)).blocks for x in (0.5, 1.1))
        assert all(getattr(a, name) is getattr(b, name) for name in self.SHARED)
        assert not np.array_equal(a.sandwich, b.sandwich)

    def test_another_zero_pattern_gets_its_own(self):
        shifter = analytic_r(ModelSpec("shifter", alpha=0.5)).blocks
        other = TargetOperator(2, 2, np.diag([0.6, 0, 0, 0.4])).blocks
        assert not np.array_equal(shifter.labels, other.labels)
        assert all(getattr(shifter, name) is not getattr(other, name) for name in self.SHARED)

    def test_a_pattern_without_a_plan_is_cached_too(self):
        r = build_r_montecarlo(model_family(ModelSpec("unot", copies=2)), 500, 1)
        before = targets_module._block_structure.cache_info().hits
        assert block_plan(r.matrix, r.dim_in, r.dim_out) is None
        assert block_plan(r.matrix, r.dim_in, r.dim_out) is None
        assert targets_module._block_structure.cache_info().hits >= before + 1
