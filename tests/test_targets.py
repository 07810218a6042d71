import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiopt.errors import DimensionMismatchError, InvalidChoiError, NormViolationError
from choiopt.models import ModelSpec, analytic_r, bloch_state, model_family, orthogonal_state
from choiopt import targets as targets_module
from choiopt.targets import (
    NORM_TOL,
    SAMPLE_BLOCK,
    StateFamily,
    TargetOperator,
    build_r_montecarlo,
    build_r_quadrature,
    evaluate_family,
    fidelity_bound,
    integrand_rows,
    quadrature_nodes,
    sphere_samples,
)
from helpers import same_bytes, unot_r_matrix

ALL_SPECS = [
    ModelSpec("unot", copies=1),
    ModelSpec("unot", copies=3),
    ModelSpec("cloner", copies=2),
    ModelSpec("cloner", copies=5),
    ModelSpec("entangler_a"),
    ModelSpec("entangler_b"),
    ModelSpec("shifter", alpha=0.9),
    ModelSpec("shifter", alpha=2.4),
    ModelSpec("identity"),
]


class TestQuadrature:
    def test_unot_single_copy(self):
        r = build_r_quadrature(model_family(ModelSpec("unot", copies=1)))
        assert np.abs(r.matrix - unot_r_matrix()).max() <= 1e-12

    def test_entangler_a_log_coefficient(self):
        r = build_r_quadrature(model_family(ModelSpec("entangler_a")))
        assert abs(r.matrix[0, 0].real - (2 * np.log(2) - 1)) <= 1e-12

    def test_zero_shift_structure(self):
        r = build_r_quadrature(model_family(ModelSpec("shifter", alpha=0.0)))
        assert np.allclose(np.diag(r.matrix), [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-12)
        assert abs(r.matrix[0, 3] - 1 / 6) <= 1e-12
        assert abs(r.lambda_max - 0.5) <= 1e-12
        assert abs(fidelity_bound(r) - 1.0) <= 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_matches_closed_form(self, spec):
        rq = build_r_quadrature(model_family(spec))
        ra = analytic_r(spec)
        assert np.abs(rq.matrix - ra.matrix).max() <= 1e-10

    @pytest.mark.parametrize("spec", [ModelSpec("unot", copies=2), ModelSpec("entangler_a")], ids=str)
    def test_node_count_plateau(self, spec):
        family = model_family(spec)
        base = build_r_quadrature(family)
        more = build_r_quadrature(family, nodes_theta=48, nodes_phi=24)
        assert np.abs(base.matrix - more.matrix).max() <= 1e-12

    def test_scalar_only_evaluator_falls_back(self):
        def scalar_ev(theta, phi):
            assert np.isscalar(theta) and np.isscalar(phi)
            return bloch_state(theta, phi), orthogonal_state(theta, phi)

        family = StateFamily(2, 2, scalar_ev, 4)
        vectorized = model_family(ModelSpec("unot", copies=1))
        got = build_r_quadrature(family)
        want = build_r_quadrature(vectorized)
        assert np.abs(got.matrix - want.matrix).max() <= 1e-14

    def test_norm_violation_detected(self):
        family = StateFamily(2, 2, lambda t, p: (2.0 * bloch_state(t, p), bloch_state(t, p)), 4)
        with pytest.raises(NormViolationError):
            build_r_quadrature(family)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_state_is_a_norm_violation(self, value):
        bad = lambda t, p: (bloch_state(t, p), np.full(np.shape(t) + (2,), value, dtype=complex))
        with pytest.raises(NormViolationError), np.errstate(invalid="ignore"):
            evaluate_family(StateFamily(2, 2, bad, 4), [0.1, 0.2], [0.3, 0.4])


class TestMonteCarlo:
    def test_single_sample_is_the_integrand(self):
        family = model_family(ModelSpec("unot", copies=1))
        r = build_r_montecarlo(family, samples=1, seed=123)
        # Reproduce the single draw with the documented stream order.
        rng = np.random.default_rng(123)
        theta = np.arccos(rng.uniform(-1.0, 1.0, 1))
        phi = rng.uniform(0.0, 2 * np.pi, 1)
        pin, pout = evaluate_family(family, theta, phi)
        v = np.kron(pin[0].conj(), pout[0])
        assert np.abs(r.matrix - np.outer(v, v.conj())).max() <= 1e-15

    def test_unit_trace_any_sample_count(self):
        family = model_family(ModelSpec("entangler_b"))
        for samples in (1, 7, 100):
            r = build_r_montecarlo(family, samples=samples, seed=5)
            assert abs(np.trace(r.matrix).real - 1.0) <= 1e-12

    def test_large_sample_agreement(self):
        family = model_family(ModelSpec("unot", copies=1))
        r = build_r_montecarlo(family, samples=10**6, seed=2024)
        assert np.abs(r.matrix - unot_r_matrix()).max() <= 5e-3

    def test_error_shrinks_with_more_samples(self):
        family = model_family(ModelSpec("shifter", alpha=1.3))
        exact = analytic_r(ModelSpec("shifter", alpha=1.3)).matrix
        seeds = range(8)
        small = np.mean(
            [np.linalg.norm(build_r_montecarlo(family, 2000, s).matrix - exact) for s in seeds]
        )
        big = np.mean(
            [np.linalg.norm(build_r_montecarlo(family, 32000, s).matrix - exact) for s in seeds]
        )
        assert big < small

    def test_seed_determinism(self):
        family = model_family(ModelSpec("entangler_a"))
        a = build_r_montecarlo(family, 500, seed=9)
        b = build_r_montecarlo(family, 500, seed=9)
        assert np.array_equal(a.matrix, b.matrix)


def exact_mean_outer(v: np.ndarray) -> np.ndarray:
    """The one-shot mean of v_s v_s† with each entry's sum over samples
    correctly rounded (math.fsum), free of the accumulation error that a
    plain einsum over thousands of samples carries (up to ~3e-15 here)."""
    terms = np.einsum("sa,sb->sab", v, v.conj())
    out = np.empty(terms.shape[1:], dtype=np.complex128)
    for idx in np.ndindex(out.shape):
        column = terms[(slice(None), *idx)]
        out[idx] = complex(math.fsum(column.real), math.fsum(column.imag))
    return out / len(v)


class TestBlockedSums:
    # The sphere averages accumulate SAMPLE_BLOCK rows at a time; they must
    # equal the one-shot formulas to rounding at every block boundary.
    @pytest.mark.parametrize("samples", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, 2 * SAMPLE_BLOCK + 7])
    @pytest.mark.parametrize("spec", [ModelSpec("entangler_a"), ModelSpec("cloner", copies=2)], ids=str)
    def test_montecarlo_equals_one_shot_mean(self, spec, samples):
        family = model_family(spec)
        r = build_r_montecarlo(family, samples, seed=11)
        v = integrand_rows(family, *sphere_samples(samples, 11))
        assert np.abs(r.matrix - exact_mean_outer(v)).max() <= 1e-15
        one_shot = np.einsum("sa,sb->ab", v, v.conj()) / samples
        assert np.abs(r.matrix - one_shot).max() <= 1e-14

    def test_quadrature_over_several_blocks(self):
        spec = ModelSpec("entangler_a")
        assert 70 * 70 > SAMPLE_BLOCK
        r = build_r_quadrature(model_family(spec), nodes_theta=70, nodes_phi=70)
        assert np.abs(r.matrix - analytic_r(spec).matrix).max() <= 1e-12

    def test_montecarlo_memory_is_per_block(self):
        # Angle arrays plus the uniform draw they come from, and a few blocks
        # of rows; the one-shot sum held every row at once (~55 MB here).
        samples, n = 200_000, 8
        family = model_family(ModelSpec("entangler_a"))
        build_r_montecarlo(family, 1000, seed=0)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            build_r_montecarlo(family, samples, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * samples * 8 + 8 * SAMPLE_BLOCK * n * 16


class TestAngleArrays:
    # evaluate_family is the boundary where angle arrays are checked; the
    # blocked averages slice them, so misaligned arrays must not get through.
    @pytest.mark.parametrize(
        "thetas, phis",
        [
            ([0.1, 0.2], [0.3]),  # was broadcast silently
            ([0.1, 0.2, 0.3], [0.3, 0.4]),  # was a bare IndexError
            ([[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]]),  # was a TypeError
        ],
        ids=["broadcast", "lengths-3-2", "2-d"],
    )
    def test_mismatched_angles_rejected(self, thetas, phis):
        family = model_family(ModelSpec("unot", copies=1))
        with pytest.raises(DimensionMismatchError, match="1-D and of equal length"):
            evaluate_family(family, thetas, phis)

    def test_scalars_are_one_sample(self):
        pin, pout = evaluate_family(model_family(ModelSpec("unot", copies=1)), 0.4, 1.1)
        assert pin.shape == pout.shape == (1, 2)


class CountingEvaluator:
    """Wraps an evaluator and counts its calls."""

    def __init__(self, evaluator):
        self.evaluator, self.calls = evaluator, 0

    def __call__(self, theta, phi):
        self.calls += 1
        return self.evaluator(theta, phi)


class TestFamilyContract:
    # evaluate_family calls a broadcasting evaluator once and judges its
    # output once; a result of the wrong shape raises and is not re-run per
    # sample, where a (dim, samples) result would pass.
    @pytest.mark.parametrize(
        "bad",
        [
            lambda t, p: (bloch_state(t, p).T, bloch_state(t, p).T),
            lambda t, p: (np.ones(np.shape(t) + (3,)) / np.sqrt(3), bloch_state(t, p)),
        ],
        ids=["dim-by-samples", "wrong-length"],
    )
    def test_broadcast_result_of_the_wrong_shape_is_called_once(self, bad):
        ev = CountingEvaluator(bad)
        with pytest.raises(DimensionMismatchError, match=r"^input states have shape \(\d, 3\), expected \(3, 2\)$"):
            evaluate_family(StateFamily(2, 2, ev, 4), [0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        assert ev.calls == 1

    def test_scalar_only_result_of_the_wrong_length(self):
        def scalar_ev(theta, phi):
            assert np.isscalar(theta) and np.isscalar(phi)
            return bloch_state(theta, phi), np.ones(3) / np.sqrt(3)

        with pytest.raises(DimensionMismatchError, match=r"output states have shape \(2, 3\), expected \(2, 2\)"):
            evaluate_family(StateFamily(2, 2, scalar_ev, 4), [0.1, 0.2], [0.3, 0.4])

    def test_ragged_scalar_only_states(self):
        def scalar_ev(theta, phi):
            assert np.isscalar(theta) and np.isscalar(phi)
            n = 2 if theta < 0.15 else 3  # a 2-vector at 0.1, a 3-vector at 0.2
            return np.ones(n) / np.sqrt(n), bloch_state(theta, phi)

        message = r"^input states are ragged or not numbers, expected shape \(2, 2\)$"
        with pytest.raises(DimensionMismatchError, match=message):
            evaluate_family(StateFamily(2, 2, scalar_ev, 4), [0.1, 0.2], [0.3, 0.4])

    def test_ragged_broadcast_states(self):
        ev = CountingEvaluator(lambda t, p: (bloch_state(t, p), [[1.0, 0.0], [1.0, 0.0, 0.0]]))
        message = r"^output states are ragged or not numbers, expected shape \(2, 2\)$"
        with pytest.raises(DimensionMismatchError, match=message):
            evaluate_family(StateFamily(2, 2, ev, 4), [0.1, 0.2], [0.3, 0.4])
        assert ev.calls == 1

    @pytest.mark.parametrize("name", ["input", "output"])
    def test_ragged_single_scalar_only_state(self, name):
        ragged = [[1.0, 0.0], [0.0]]

        def scalar_ev(theta, phi):
            assert np.isscalar(theta) and np.isscalar(phi)
            good = bloch_state(theta, phi)
            return (ragged, good) if name == "input" else (good, ragged)

        message = rf"^{name} states are ragged or not numbers, expected shape \(2, 2\)$"
        with pytest.raises(DimensionMismatchError, match=message):
            evaluate_family(StateFamily(2, 2, scalar_ev, 4), [0.1, 0.2], [0.3, 0.4])

    def test_scalar_only_column_vectors_are_raveled(self):
        def scalar_ev(theta, phi):
            assert np.isscalar(theta) and np.isscalar(phi)
            return bloch_state(theta, phi)[:, None], orthogonal_state(theta, phi)[:, None]

        pin, pout = evaluate_family(StateFamily(2, 2, scalar_ev, 4), [0.1, 0.2], [0.3, 0.4])
        assert np.array_equal(pin, bloch_state(np.array([0.1, 0.2]), np.array([0.3, 0.4])))
        assert np.array_equal(pout, orthogonal_state(np.array([0.1, 0.2]), np.array([0.3, 0.4])))

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_scalar_only_evaluator_errors_propagate(self, error):
        def scalar_ev(theta, phi):
            if not np.isscalar(theta):
                raise TypeError("scalars only")
            if theta > 0.15:
                raise error("the evaluator's own error")
            return bloch_state(theta, phi), bloch_state(theta, phi)

        with pytest.raises(error, match="the evaluator's own error") as info:
            evaluate_family(StateFamily(2, 2, scalar_ev, 4), [0.1, 0.2], [0.3, 0.4])
        assert type(info.value) is error

    def test_one_call_per_slice(self):
        family = model_family(ModelSpec("cloner", copies=2))
        ev = CountingEvaluator(family.evaluator)
        build_r_montecarlo(StateFamily(family.dim_in, family.dim_out, ev, family.trig_degree), 2 * SAMPLE_BLOCK + 1, 0)
        assert ev.calls == 3

    @pytest.mark.parametrize("dims", [(2.0, 2), (0, 2)], ids=str)
    def test_dims_are_judged_where_built(self, dims):
        with pytest.raises(DimensionMismatchError, match=re.escape(f"dimensions must be integers >= 1, got {dims}")):
            StateFamily(*dims, bloch_state, 4)

    @pytest.mark.parametrize("degree", [40.5, "4", -1, True])
    def test_trig_degree_is_judged_where_built(self, degree):
        with pytest.raises(ValueError, match=re.escape(f"trig_degree must be an integer >= 0, got {degree!r}")):
            StateFamily(2, 2, bloch_state, degree)

    @pytest.mark.parametrize("degree", [0, np.int64(4)])
    def test_integer_degrees_pass(self, degree):
        assert StateFamily(np.int64(2), 2, bloch_state, degree).trig_degree == degree


class TestFidelityBound:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_unot(self, n):
        bound = fidelity_bound(analytic_r(ModelSpec("unot", copies=n)))
        assert abs(bound - (n + 1) / (n + 2)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cloner(self, n):
        bound = fidelity_bound(analytic_r(ModelSpec("cloner", copies=n)))
        assert abs(bound - 2 / (n + 1)) <= 1e-12

    def test_entangler_b(self):
        bound = fidelity_bound(analytic_r(ModelSpec("entangler_b")))
        assert abs(bound - 1 / 3) <= 1e-12


class TestTargetOperator:
    def test_lambda_max_is_derived(self):
        r = TargetOperator(2, 2, np.diag([0.4, 0.3, 0.2, 0.1]))
        assert r.lambda_max == 0.4
        with pytest.raises(TypeError):
            TargetOperator(2, 2, np.eye(4) / 4, 0.9)

    @pytest.mark.parametrize(
        "dual, error",
        [
            ([0.5, np.nan], InvalidChoiError),
            ([np.inf, 0.5], InvalidChoiError),
            ([0.5, -np.inf], InvalidChoiError),
            ([0.5, 0.5 + 0j], InvalidChoiError),
            ([True, False], InvalidChoiError),
            (["0.5", "0.5"], InvalidChoiError),
            ([0.5], DimensionMismatchError),
            ([0.5, 0.5, 0.5], DimensionMismatchError),
            ([[0.5, 0.5]], DimensionMismatchError),
            (0.5, DimensionMismatchError),
        ],
        ids=["nan", "inf", "-inf", "complex", "bool", "str", "short", "long", "2-d", "scalar"],
    )
    def test_dual_checked_when_built(self, dual, error):
        with pytest.raises(error, match="^target dual "):
            TargetOperator(2, 2, np.eye(4) / 4, dual=dual)

    def test_dual_stored_as_a_read_only_float_copy(self):
        given = np.array([1, 2])
        r = TargetOperator(2, 2, np.eye(4) / 4, dual=given)
        given[0] = 5
        assert r.dual.dtype == np.float64 and r.dual.tolist() == [1.0, 2.0]
        assert not r.dual.flags.writeable
        assert TargetOperator(2, 2, np.eye(4) / 4).dual is None

    @pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value, entry):
        m = unot_r_matrix()
        m[entry] = value
        with pytest.raises(InvalidChoiError, match="not Hermitian"):
            TargetOperator(2, 2, m)


class TestStateFamilies:
    @given(st.sampled_from(ALL_SPECS), st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi - 1e-9))
    @settings(max_examples=80, deadline=None)
    def test_evaluator_norms(self, spec, theta, phi):
        family = model_family(spec)
        pin, pout = evaluate_family(family, [theta], [phi])
        assert abs(np.linalg.norm(pin[0]) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(pout[0]) - 1.0) <= 1e-12


class TestTypedErrors:
    def test_target_negative_eigenvalue(self):
        with pytest.raises(InvalidChoiError, match="minimum eigenvalue"):
            TargetOperator(2, 2, np.diag([0.6, 0.6, -0.2, 0.0]))

    def test_target_trace_not_one(self):
        with pytest.raises(InvalidChoiError, match="trace"):
            TargetOperator(2, 2, np.eye(4) / 2)

    def test_montecarlo_needs_a_sample(self):
        with pytest.raises(ValueError, match="samples"):
            build_r_montecarlo(model_family(ModelSpec("identity")), samples=0, seed=0)

    @pytest.mark.parametrize("samples", [True, 2.5, 3.0, "3", None])
    def test_montecarlo_samples_follow_the_count_rule(self, samples):
        with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
            build_r_montecarlo(model_family(ModelSpec("identity")), samples=samples, seed=0)

    @pytest.mark.parametrize("samples", [True, 2.5, 3.0, "3", None, 0, -1])
    def test_sphere_samples_follow_the_count_rule(self, samples):
        # The count is judged before the seed, which is not valid here either.
        with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
            sphere_samples(samples, -1)

    def test_montecarlo_takes_a_numpy_count(self):
        family = model_family(ModelSpec("identity"))
        r = build_r_montecarlo(family, 3, 0)
        assert np.array_equal(build_r_montecarlo(family, np.int64(3), 0).matrix, r.matrix)


class TestTargetDimensions:
    @pytest.mark.parametrize(
        "dims, matrix",
        [((-1, -2), np.eye(2) / 2), ((0, 0), np.zeros((0, 0))), ((2.0, 2), np.eye(4) / 4)],
        ids=["negative", "zero", "float"],
    )
    def test_rejected_where_built(self, dims, matrix):
        with pytest.raises(DimensionMismatchError, match="integers >= 1"):
            TargetOperator(*dims, matrix)

    def test_numpy_integer_dims_pass(self):
        assert fidelity_bound(TargetOperator(np.int64(2), np.int64(2), unot_r_matrix())) == pytest.approx(2 / 3)


class TestQuadratureNodes:
    # quadrature_nodes resolves and checks the node counts for every caller.
    @pytest.mark.parametrize("degree", [0, 2, 6, 31, 40])
    def test_defaults(self, degree):
        assert quadrature_nodes(degree) == (max(degree + 1, 32), max(degree + 2, 8))

    def test_given_counts_are_kept(self):
        assert quadrature_nodes(4, 40, 12) == (40, 12)
        assert quadrature_nodes(4, nodes_phi=np.int64(1)) == (32, 1)

    @pytest.mark.parametrize("which", ["nodes_theta", "nodes_phi"])
    @pytest.mark.parametrize("count", [0, -3, True, 2.5])
    def test_rejected(self, which, count):
        message = f"^{which} must be an integer >= 1, got {count!r}$"
        with pytest.raises(ValueError, match=message):
            quadrature_nodes(4, **{which: count})
        with pytest.raises(ValueError, match=message):
            build_r_quadrature(model_family(ModelSpec("unot", copies=1)), **{which: count})


def on_path(evaluator, path: str):
    """evaluator as a broadcasting one, or as a scalar-only one that raises on arrays."""

    def scalar_only(theta, phi):
        if not np.isscalar(theta):
            raise TypeError("scalars only")
        return evaluator(theta, phi)

    return evaluator if path == "broadcast" else scalar_only


PATHS = ["broadcast", "per-sample"]


class TestIntegrandRowsAreKroneckerProducts:
    # integrand_rows forms every row in one broadcast multiply, samples last;
    # each row must be the Kronecker product it stands for, on both evaluator paths.
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_each_row_is_kron_of_conj_input_and_output(self, spec, path):
        family = model_family(spec)
        family = StateFamily(family.dim_in, family.dim_out, on_path(family.evaluator, path), family.trig_degree)
        thetas, phis = sphere_samples(40, 6)
        pin, pout = evaluate_family(family, thetas, phis)
        want = np.array([np.kron(a.conj(), b) for a, b in zip(pin, pout)])
        got = integrand_rows(family, thetas, phis)
        assert got.shape == want.shape and got.dtype == np.complex128
        assert np.abs(got - want).max() <= 1e-16


class TestEmptyAngleArrays:
    # Zero samples used to fail as an untyped ValueError deep in the norm
    # check (broadcast) or the unpacking of the results (per sample).
    @pytest.mark.parametrize("path", PATHS)
    def test_evaluate_family_refuses_zero_samples(self, path):
        ev = CountingEvaluator(on_path(lambda t, p: (bloch_state(t, p), orthogonal_state(t, p)), path))
        with pytest.raises(DimensionMismatchError, match=r"^angle arrays must be 1-D and of equal length >= 1, "):
            evaluate_family(StateFamily(2, 2, ev, 4), [], [])
        assert ev.calls == 0

    @pytest.mark.parametrize("path", PATHS)
    def test_integrand_rows_refuses_zero_samples(self, path):
        family = StateFamily(2, 2, on_path(lambda t, p: (bloch_state(t, p), orthogonal_state(t, p)), path), 4)
        with pytest.raises(DimensionMismatchError, match="length >= 1"):
            integrand_rows(family, np.empty(0), np.empty(0))


class TestExactlyTwoResults:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("count", [1, 3])
    def test_another_count_is_a_dimension_mismatch(self, count, path):
        ev = CountingEvaluator(on_path(lambda t, p: (bloch_state(t, p),) * count, path))
        message = rf"^the evaluator returned {count} results, expected exactly two$"
        with pytest.raises(DimensionMismatchError, match=message):
            evaluate_family(StateFamily(2, 2, ev, 4), [0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        assert ev.calls == (1 if path == "broadcast" else 2)  # the per-sample path stops at its first sample

    @pytest.mark.parametrize("path", PATHS)
    def test_two_results_as_any_iterable(self, path):
        ev = on_path(lambda t, p: iter([bloch_state(t, p), orthogonal_state(t, p)]), path)
        pin, pout = evaluate_family(StateFamily(2, 2, ev, 4), [0.1, 0.2], [0.3, 0.4])
        assert np.array_equal(pin, bloch_state(np.array([0.1, 0.2]), np.array([0.3, 0.4])))
        assert np.array_equal(pout, orthogonal_state(np.array([0.1, 0.2]), np.array([0.3, 0.4])))


class TestNormCheckAtItsTolerance:
    # Each state's norm deviation is held to NORM_TOL on both sides of 1.
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("name", ["input", "output"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["long", "short"])
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_deviation_against_norm_tol(self, factor, sign, name, path):
        scale = 1.0 + sign * factor * NORM_TOL

        def ev(t, p):
            good, scaled = bloch_state(t, p), scale * orthogonal_state(t, p)
            return (scaled, good) if name == "input" else (good, scaled)

        family = StateFamily(2, 2, on_path(ev, path), 4)
        if factor < 1:
            evaluate_family(family, [0.1, 0.2], [0.3, 0.4])
        else:
            with pytest.raises(NormViolationError, match=rf"^{name} state norm deviates by 1\.1\d\de-12$"):
                evaluate_family(family, [0.1, 0.2], [0.3, 0.4])

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)], ids=str)
    def test_non_finite_input_state(self, value, path):
        def ev(t, p):
            state = np.array(bloch_state(t, p))
            state[..., 0] = value
            return state, bloch_state(t, p)

        with pytest.raises(NormViolationError, match=r"^input state norm deviates by (nan|inf)$"):
            evaluate_family(StateFamily(2, 2, on_path(ev, path), 4), [0.1, 0.2], [0.3, 0.4])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_states_of_built_in_families_pass(self, spec):
        thetas, phis = sphere_samples(SAMPLE_BLOCK, 3)
        pin, pout = evaluate_family(model_family(spec), thetas, phis)
        for states in (pin, pout):
            assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= NORM_TOL


def quadrature_from_leggauss(family: StateFamily, nodes_theta=None, nodes_phi=None) -> np.ndarray:
    """build_r_quadrature's matrix with its Gauss-Legendre nodes computed afresh."""
    nt, nph = quadrature_nodes(family.trig_degree, nodes_theta, nodes_phi)
    x, w = np.polynomial.legendre.leggauss(nt)
    thetas = (x + 1.0) * (np.pi / 2.0)
    weights = w * np.sin(thetas) * (np.pi / (4.0 * nph))
    phis = 2.0 * np.pi * np.arange(nph) / nph
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    return targets_module._weighted_gram(family, tg.ravel(), pg.ravel(), np.repeat(weights, nph)).matrix


class TestGaussLegendreNodesOncePerCount:
    @pytest.mark.parametrize("count", [1, 32, 40])
    def test_cached_read_only_and_as_computed(self, count):
        nodes = targets_module._gauss_legendre(count)
        assert targets_module._gauss_legendre(count) is nodes
        for got, want in zip(nodes, np.polynomial.legendre.leggauss(count)):
            assert same_bytes(got, want) and not got.flags.writeable

    def test_one_computation_per_count(self, monkeypatch):
        calls = []
        real = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or real(n))
        family = model_family(ModelSpec("unot", copies=1))
        for count in (37, np.int64(37), 37):
            build_r_quadrature(family, nodes_theta=count)
        assert len(calls) <= 1  # none if an earlier build used 37 nodes

    @pytest.mark.parametrize("nodes", [(None, None), (40, 12)], ids=["default", "given"])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_quadrature_targets_keep_their_bytes(self, spec, nodes):
        family = model_family(spec)
        assert same_bytes(build_r_quadrature(family, *nodes).matrix, quadrature_from_leggauss(family, *nodes))
