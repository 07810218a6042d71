import re

import numpy as np
import pytest

from choiopt import analysis, channels, models, serialize, solver, targets
from choiopt import linalg
from choiopt.errors import (
    ChoiOptError,
    DimensionMismatchError,
    InvalidChoiError,
    InvalidDensityError,
    InvalidSpecError,
    NegativeEigenvalueError,
    NotHermitianError,
    OutOfRangeError,
    TraceConditionError,
)
from choiopt.analysis import state_fidelity_curve
from choiopt.solver import random_choi
from choiopt.targets import TargetOperator, fidelity_bound
from helpers import (
    random_density,
    random_state,
    same_bytes,
    unot_channel_action,
    unot_r_matrix,
)


def unot_choi():
    # Optimal one-copy inverting channel: twice the target projector.
    return channels.ChoiOperator(2, 2, 2.0 * unot_r_matrix())


class TestApply:
    @pytest.mark.parametrize("seed", range(3))
    def test_identity_channel(self, seed):
        rho = channels.DensityMatrix(random_density(np.random.default_rng(seed), 2))
        out = channels.apply(channels.identity_choi(2), rho)
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_unot_channel_matches_reference_action(self, seed):
        rho = random_density(np.random.default_rng(seed), 2)
        out = channels.apply(unot_choi(), channels.DensityMatrix(rho))
        assert np.abs(out.matrix - unot_channel_action(rho)).max() <= 1e-12

    def test_half_pi_shift_sends_everything_to_south_pole(self):
        chi = models.damping_channel(np.pi / 2)
        for theta, phi in [(0.0, 0.0), (1.1, 2.3), (np.pi / 2, 4.0), (3.0, 0.4)]:
            rho = channels.density_from_state(models.bloch_state(theta, phi))
            out = channels.apply(chi, rho)
            assert np.abs(out.matrix - np.diag([0.0, 1.0])).max() <= 1e-12

    def test_output_trace_and_positivity(self):
        chi = random_choi(2, 3, seed=11)
        rho = channels.DensityMatrix(random_density(np.random.default_rng(5), 2))
        out = channels.apply(chi, rho)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10

    def test_dimension_mismatch(self):
        rho = channels.DensityMatrix(np.eye(3) / 3)
        with pytest.raises(DimensionMismatchError):
            channels.apply(channels.identity_choi(2), rho)

    def test_invalid_choi_rejected(self):
        bad = channels.ChoiOperator(2, 2, np.diag([1.5, 0.5, 0.5, 0.5]))
        rho = channels.DensityMatrix(np.eye(2) / 2)
        with pytest.raises(InvalidChoiError):
            channels.apply(bad, rho)


class TestApplyMatrixIsOneContraction:
    # The oracle is the definition E(X) = Tr_H[chi (X^T (x) 1_K)], written out
    # with an explicit Kronecker product and partial trace.
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 4), (1, 3)])
    def test_matches_the_kronecker_oracle(self, dims):
        d, k = dims
        chi = random_choi(d, k, seed=d * 10 + k)
        rng = np.random.default_rng(d + k)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))  # not Hermitian
        lifted = chi.matrix @ np.kron(x.T, np.eye(k))
        want = np.einsum("akal->kl", lifted.reshape(d, k, d, k))
        assert np.abs(channels.apply_matrix(chi, x) - want).max() <= 1e-14


class TestFidelity:
    def test_unot_reaches_two_thirds(self):
        r = TargetOperator(2, 2, unot_r_matrix())
        assert abs(channels.fidelity(unot_choi(), r) - 2 / 3) <= 1e-12

    def test_entangler_a_isometry_value(self):
        spec = models.ModelSpec("entangler_a")
        best = models.known_optimum(spec)
        f = channels.fidelity(best.chi, models.analytic_r(spec))
        assert abs(f - models.ENTANGLER_A_FIDELITY) <= 1e-12

    def test_identity_channel_against_zero_shift(self):
        r = models.analytic_r(models.ModelSpec("shifter", alpha=0.0))
        assert abs(channels.fidelity(channels.identity_choi(2), r) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_envelope(self, seed):
        rng = np.random.default_rng(seed)
        chi = random_choi(2, 2, seed=seed)
        p = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        p = p @ p.conj().T
        r = TargetOperator(2, 2, p / np.trace(p).real)
        f = channels.fidelity(chi, r)
        assert -1e-9 <= f <= fidelity_bound(r) + 1e-9


class TestKraus:
    def test_identity_channel_single_operator(self):
        ks = channels.kraus_from_choi(channels.identity_choi(2))
        assert len(ks.operators) == 1
        assert np.abs(ks.operators[0] - np.eye(2)).max() <= 1e-12

    def test_unot_three_operators_reconstruct_action(self):
        chi = unot_choi()
        ks = channels.kraus_from_choi(chi)
        assert len(ks.operators) == 3
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                via_kraus = sum(a @ unit @ a.conj().T for a in ks.operators)
                assert np.abs(via_kraus - channels.apply_matrix(chi, unit)).max() <= 1e-10

    def test_entangler_a_single_kraus_is_the_isometry(self):
        best = models.known_optimum(models.ModelSpec("entangler_a"))
        ks = channels.kraus_from_choi(best.chi)
        assert len(ks.operators) == 1
        assert np.abs(ks.operators[0] - models.entangler_a_isometry()).max() <= 1e-10

    @pytest.mark.parametrize("dims,seed", [((2, 2), 0), ((2, 3), 1), ((3, 2), 2), ((2, 4), 3)])
    def test_round_trip(self, dims, seed):
        chi = random_choi(*dims, seed=seed)
        back = channels.choi_from_kraus(channels.kraus_from_choi(chi, cutoff=0.0))
        assert np.linalg.norm(back.matrix - chi.matrix) <= 1e-9

    def test_trace_condition(self):
        ks = channels.kraus_from_choi(random_choi(2, 3, seed=4))
        assert channels.kraus_trace_deviation(ks) <= 1e-9


class TestDilation:
    def test_identity_channel(self):
        d = channels.dilation(channels.kraus_from_choi(channels.identity_choi(2)))
        assert d.shape == (2, 2)
        assert np.abs(d - np.eye(2)).max() <= 1e-12

    def test_unot_dimension_and_isometry(self):
        d = channels.dilation(channels.kraus_from_choi(unot_choi()))
        assert d.shape == (6, 2)
        assert np.abs(d.conj().T @ d - np.eye(2)).max() <= 1e-10

    @pytest.mark.parametrize("dims,seed", [((2, 2), 5), ((3, 2), 6), ((2, 4), 7)])
    def test_columns_orthonormal(self, dims, seed):
        ks = channels.kraus_from_choi(random_choi(*dims, seed=seed))
        d = channels.dilation(ks)
        assert d.shape == (len(ks.operators) * dims[1], dims[0])
        assert np.abs(d.conj().T @ d - np.eye(dims[0])).max() <= 1e-10

    def test_rejects_scaled_kraus_set(self):
        ks = channels.kraus_from_choi(channels.identity_choi(2))
        broken = channels.KrausSet(2, 2, (0.9 * ks.operators[0],), ks.weights)
        with pytest.raises(TraceConditionError):
            channels.dilation(broken)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_kraus_set(self, value):
        a = np.eye(2, dtype=complex)
        a[0, 1] = value
        with pytest.raises(TraceConditionError):
            channels.dilation(channels.KrausSet(2, 2, (a,), [1.0]))


class TestKrausSumsFromOneStack:
    # The references are the per-operator loops the stacked sums replace.
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (1, 3)])
    def test_match_the_operator_loops(self, dims):
        ks = channels.kraus_from_choi(random_choi(*dims, seed=9))
        chi = sum(np.outer(a.T.reshape(-1), a.T.reshape(-1).conj()) for a in ks.operators)
        gram = sum(a.conj().T @ a for a in ks.operators)
        assert np.abs(channels.choi_from_kraus(ks).matrix - chi).max() <= 1e-14
        assert abs(channels.kraus_trace_deviation(ks) - np.abs(gram - np.eye(dims[0])).max()) <= 1e-14
        d = channels.dilation(ks)
        for l, a in enumerate(ks.operators):  # row k*C + l holds A_l[k, :]
            assert np.array_equal(d[l :: len(ks.operators)], a)

    def test_sums_over_no_operators(self):
        ks = channels.KrausSet(2, 3, (), [])
        assert channels.kraus_trace_deviation(ks) == 1.0
        assert np.array_equal(channels.choi_from_kraus(ks).matrix, np.zeros((6, 6)))
        with pytest.raises(TraceConditionError, match="deviates from identity by 1.000e"):
            channels.dilation(ks)

    def test_operators_must_match_the_dims(self):
        with pytest.raises(DimensionMismatchError, match="Kraus operators must be 3x2"):
            channels.KrausSet(2, 3, (np.zeros((2, 3)),), [1.0])

    # KrausSet owns its weights: a set built in code is one that the Kraus
    # file reader would load back.
    @pytest.mark.parametrize(
        "weights",
        [[1.0, 2.0, np.nan], [], [1.0, 2.0], [np.nan], [np.inf], [1 + 1j], ["1"], [True], [None], [[1.0]]],
        ids=["three-with-nan", "none", "two", "nan", "inf", "complex", "string", "bool", "None", "nested"],
    )
    def test_one_finite_real_weight_per_operator(self, weights):
        with pytest.raises(ValueError, match="Kraus weights must be one finite real number per operator"):
            channels.KrausSet(2, 2, (np.eye(2),), weights)

    def test_weights_are_frozen_floats(self):
        ks = channels.KrausSet(2, 2, (np.eye(2),), [np.int64(1)])
        assert ks.weights.dtype == float and not ks.weights.flags.writeable


class TestValidateChoi:
    def test_maxmix(self):
        report = channels.validate_choi(channels.maxmix_choi(2, 2))
        assert report.trace_preservation_deviation <= 1e-14
        assert report.hermiticity_deviation <= 1e-14
        assert abs(report.min_eigenvalue - 0.5) <= 1e-14

    def test_identity_channel(self):
        report = channels.validate_choi(channels.identity_choi(2))
        assert abs(report.min_eigenvalue) <= 1e-14
        assert report.trace_preservation_deviation <= 1e-14
        assert report.min_eigenvalue >= -1e-10
        assert report.trace_preservation_deviation <= 1e-10 and report.hermiticity_deviation <= 1e-10

    def test_constructed_violation(self):
        chi = channels.ChoiOperator(2, 2, np.diag([0.55, 0.55, 0.45, 0.45]))
        report = channels.validate_choi(chi)
        assert abs(report.trace_preservation_deviation - 0.1) <= 1e-12
        assert report.trace_preservation_deviation > 1e-10


class TestDensityMatrix:
    def test_from_state(self):
        psi = random_state(np.random.default_rng(0), 3)
        rho = channels.density_from_state(psi)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(Exception):
            channels.DensityMatrix(np.eye(2))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value, entry):
        m = np.eye(2, dtype=complex) / 2
        m[entry] = value
        with pytest.raises(InvalidDensityError):
            channels.DensityMatrix(m)


class TestNonFiniteChoi:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_require_valid_choi_rejects(self, value):
        m = np.array(channels.identity_choi(2).matrix)
        m[3, 3] = value
        chi = channels.ChoiOperator(2, 2, m)
        with pytest.raises(InvalidChoiError, match="hermiticity deviation inf"):
            channels.require_valid_choi(chi)

    def test_report_is_infinite_not_raised(self):
        m = np.array(channels.maxmix_choi(2, 2).matrix)
        m[0, 0] = np.nan
        report = channels.validate_choi(channels.ChoiOperator(2, 2, m))
        assert report.hermiticity_deviation == np.inf
        assert not report.min_eigenvalue >= -1e-10 and not report.trace_preservation_deviation <= 1e-10


class TestTypedErrors:
    @pytest.mark.parametrize("dims", [(0, 2), (2, 0)])
    def test_choi_dimension_below_one(self, dims):
        with pytest.raises(DimensionMismatchError):
            channels.ChoiOperator(*dims, np.zeros((0, 0)))

    def test_density_negative_eigenvalue(self):
        with pytest.raises(InvalidDensityError, match="minimum eigenvalue"):
            channels.DensityMatrix(np.diag([1.5, -0.5]))

    def test_apply_matrix_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            channels.apply_matrix(channels.identity_choi(2), np.eye(3))

    def test_fidelity_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            channels.fidelity(channels.maxmix_choi(2, 2), np.eye(6) / 6)

    def test_fidelity_judges_a_target_by_its_dims(self):
        # Equal shapes, swapped dims: an 8 x 8 operator on C^4 (x) C^2 is no target for a 2 -> 4 channel.
        target = TargetOperator(4, 2, np.eye(8) / 8)
        with pytest.raises(DimensionMismatchError, match=re.escape("channel dims (2,4) != target dims (4,2)")):
            channels.fidelity(channels.maxmix_choi(2, 4), target)
        assert channels.fidelity(channels.maxmix_choi(4, 2), target) == pytest.approx(0.5)

    def test_fidelity_judges_a_raw_array_by_its_shape(self):
        assert channels.fidelity(channels.maxmix_choi(2, 4), np.eye(8) / 8) == pytest.approx(0.25)
        with pytest.raises(DimensionMismatchError, match=re.escape("target shape (6, 6) != process shape (8, 8)")):
            channels.fidelity(channels.maxmix_choi(2, 4), np.eye(6) / 6)

    def test_fidelity_of_non_hermitian_chi(self):
        chi = channels.ChoiOperator(2, 2, np.eye(4) / 2 + 0.1j * np.eye(4))
        with pytest.raises(InvalidChoiError, match="imaginary part"):
            channels.fidelity(chi, TargetOperator(2, 2, unot_r_matrix()))


def _borderline(kind: str, offset: float) -> np.ndarray:
    """A 2x2 operator whose deviation of the given kind is offset; all other
    constraints hold exactly."""
    m = np.diag([0.5, 0.5]).astype(complex)
    if kind == "hermiticity":
        m[0, 1] += offset
    elif kind == "eigenvalue":
        m = np.diag([1.0 + offset, -offset]).astype(complex)
    else:
        m[1, 1] += offset
    return m


def _outcome(build):
    try:
        build()
    except (InvalidChoiError, InvalidDensityError) as exc:
        return str(exc)
    return None


class TestOneAdmissibilityRule:
    # (kind, bound): Hermiticity and positivity are held to PSD_TOL, the trace
    # condition to TP_TOL, for process, target and density matrices alike.
    @pytest.mark.parametrize(
        "kind, bound",
        [("hermiticity", channels.PSD_TOL), ("eigenvalue", channels.PSD_TOL), ("trace", channels.TP_TOL)],
    )
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_state_target_and_channel_agree(self, kind, bound, factor):
        m = _borderline(kind, factor * bound)
        outcomes = [
            _outcome(lambda: channels.DensityMatrix(m)),
            _outcome(lambda: TargetOperator(1, 2, m)),
            _outcome(lambda: channels.require_valid_choi(channels.ChoiOperator(1, 2, m))),
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert (outcomes[0] is None) == (factor < 1)

    def test_each_caller_keeps_its_error_type(self):
        m = _borderline("eigenvalue", 1e-6)
        with pytest.raises(InvalidDensityError, match="minimum eigenvalue"):
            channels.DensityMatrix(m)
        with pytest.raises(InvalidChoiError, match="minimum eigenvalue"):
            TargetOperator(1, 2, m)

    def test_measurement_returns_report_and_spectrum(self):
        report, w = channels.measure_admissibility(_borderline("trace", 1e-3), 1, 2)
        assert report == channels.ChoiReport(0.5, report.trace_preservation_deviation, 0.0)
        assert abs(report.trace_preservation_deviation - 1e-3) <= 1e-15
        assert list(w) == sorted(w) and w[-1] == 0.501

    def test_target_lambda_max_is_the_returned_spectrum_top(self):
        m = np.diag([0.4, 0.3, 0.2, 0.1 + 5e-10])
        assert TargetOperator(2, 2, m).lambda_max == 0.4


def _trace_off_identity():
    # Trace-preservation deviation 5.0e-10: inside TP_TOL.
    m = np.array(channels.identity_choi(2).matrix)
    m[0, 0] *= 1 + 5e-10
    return channels.ChoiOperator(2, 2, m)


def _hermiticity_off_identity():
    # Entrywise Hermiticity deviation 9.8e-11: inside PSD_TOL, though the
    # relative Frobenius measure of linalg.herm_eig reads 3.4e-10.
    m = np.array(channels.identity_choi(2).matrix)
    m[~np.eye(4, dtype=bool)] += 4.9e-11j
    return channels.ChoiOperator(2, 2, m)


class TestValidChannelsAreAccepted:
    def test_apply_accepts_a_channel_within_tp_tol(self):
        chi = _trace_off_identity()
        channels.require_valid_choi(chi)
        out = channels.apply(chi, channels.density_from_state([1.0, 0.0]))
        assert abs(out.matrix[0, 0] - 1.0) <= 1e-9
        assert np.abs(out.matrix - np.diag([out.matrix[0, 0], 0.0])).max() == 0.0

    def test_kraus_and_dilation_accept_a_channel_within_psd_tol(self):
        chi = _hermiticity_off_identity()
        assert channels.validate_choi(chi).hermiticity_deviation <= channels.PSD_TOL
        kraus = channels.kraus_from_choi(chi)
        rebuilt = channels.choi_from_kraus(kraus)
        assert np.abs(rebuilt.matrix - channels.identity_choi(2).matrix).max() <= 1e-10
        iso = channels.dilation(kraus)
        assert np.abs(iso.conj().T @ iso - np.eye(2)).max() <= 1e-12

    def test_kraus_does_not_judge_hermiticity_again(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("herm_eig called")

        monkeypatch.setattr(linalg, "herm_eig", fail)
        chi = random_choi(2, 3, seed=4)
        kraus = channels.kraus_from_choi(chi)
        assert list(kraus.weights) == sorted(kraus.weights, reverse=True)
        assert np.abs(channels.choi_from_kraus(kraus).matrix - chi.matrix).max() <= 1e-12


class TestOneHermiticityRule:
    # herm_eig, psd_sqrt and reg_inverse hold the entrywise Hermiticity
    # deviation to PSD_TOL, like the admissibility check.
    @pytest.mark.parametrize("fn", [linalg.herm_eig, linalg.psd_sqrt, linalg.reg_inverse])
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_spectral_helpers_agree_with_admissibility(self, fn, factor):
        m = _borderline("hermiticity", factor * channels.PSD_TOL)
        admissible = _outcome(lambda: channels.require_valid_choi(channels.ChoiOperator(1, 2, m)))
        try:
            fn(m)
            helper = None
        except NotHermitianError as exc:
            helper = str(exc)
        assert helper == admissible
        assert (helper is None) == (factor < 1)

    def test_spectral_helpers_accept_an_admissible_channel(self):
        m = _hermiticity_off_identity().matrix
        assert np.allclose(linalg.herm_eig(m).eigenvalues, [2.0, 0.0, 0.0, 0.0], atol=1e-9)
        assert np.allclose(linalg.psd_sqrt(m), m / np.sqrt(2.0), atol=1e-9)
        assert np.allclose(linalg.reg_inverse(m), m / 4.0, atol=1e-9)

    def test_fidelity_of_an_admissible_pair_is_its_real_part(self):
        chi = _hermiticity_off_identity()
        r = TargetOperator(2, 2, np.full((4, 4), 0.25))
        value = np.trace(chi.matrix @ r.matrix)
        assert abs(value.imag) > channels.PSD_TOL  # the gate fires
        assert channels.fidelity(chi, r) == pytest.approx(value.real, abs=1e-15) == pytest.approx(1.0)

    def test_every_check_reads_one_measure(self, monkeypatch):
        # With the measure reporting 0, no check can tell a non-Hermitian operator.
        monkeypatch.setattr(linalg, "hermiticity_deviation", lambda m: 0.0)
        chi = channels.ChoiOperator(2, 2, np.eye(4) / 2 + 0.1j * np.eye(4))
        assert channels.fidelity(chi, TargetOperator(2, 2, unot_r_matrix())) == pytest.approx(0.5)
        linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        channels.require_valid_choi(channels.ChoiOperator(1, 2, np.array([[0.5, 1e-3], [0.0, 0.5]])))

    def test_tolerances_live_in_linalg(self):
        from choiopt import analysis, solver

        assert channels.PSD_TOL is linalg.PSD_TOL
        assert solver.PINV_CUTOFF == linalg.PINV_CUTOFF
        assert linalg.reg_inverse.__defaults__ == (linalg.PINV_CUTOFF,)
        assert not hasattr(linalg, "HERMITICITY_TOL") and not hasattr(analysis, "PPT_TOL")


class TestOperatorDimensions:
    @pytest.mark.parametrize(
        "dims, matrix",
        [((2.0, 2), np.eye(4) / 2), ((2, 2.0), np.eye(4) / 2), ((0, 0), np.zeros((0, 0))), ((-1, -2), np.eye(2) / 2)],
        ids=["float-in", "float-out", "zero", "negative"],
    )
    def test_choi_operator_rejects_bad_dims(self, dims, matrix):
        with pytest.raises(DimensionMismatchError, match="integers >= 1"):
            channels.ChoiOperator(*dims, matrix)

    def test_numpy_integer_dims_pass(self):
        chi = channels.ChoiOperator(np.int64(2), np.int32(2), np.eye(4) / 2)
        channels.require_valid_choi(chi)

    @pytest.mark.parametrize(
        "build, dims",
        [
            (lambda: random_choi(0, 2, 1), "(0, 2)"),
            (lambda: random_choi(2, 0, 1), "(2, 0)"),
            (lambda: random_choi(2.0, 2, 1), "(2.0, 2)"),
            (lambda: channels.maxmix_choi(2.0, 2), "(2.0, 2)"),
            (lambda: channels.identity_choi(2.0), "(2.0, 2.0)"),
            (lambda: channels.identity_choi(-1), "(-1, -1)"),
            (lambda: channels.KrausSet(2.0, 2, (), []), "(2.0, 2)"),
        ],
        ids=["random-zero-in", "random-zero-out", "random-float", "maxmix-float", "identity-float",
             "identity-negative", "kraus-float"],
    )
    def test_builders_check_dims_before_building_arrays(self, build, dims):
        with pytest.raises(DimensionMismatchError, match=re.escape(f"dimensions must be integers >= 1, got {dims}")):
            build()

    def test_builders_read_the_one_dims_check(self, monkeypatch):
        def fail(dim_in, dim_out):
            raise DimensionMismatchError("dims check called")

        monkeypatch.setattr(channels, "require_dims", fail)
        monkeypatch.setattr(solver, "require_dims", fail)
        calls = [
            lambda: channels.ChoiOperator(2, 2, np.eye(4) / 2),
            lambda: channels.identity_choi(2),
            lambda: channels.maxmix_choi(2, 2),
            lambda: random_choi(2, 2, 1),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatchError, match="dims check called"):
                call()


def _step_marginal(diagonal) -> np.ndarray:
    # iterate_once with R = 1/2 on C^2 (x) C^1 sees Tr_K[R chi R] = chi / 4,
    # exactly; the returned Lambda^-1 (chi / 4) Lambda^-1 is diagonal too.
    r = TargetOperator(2, 1, np.eye(2) / 2)
    return np.diag(solver.iterate_once(channels.ChoiOperator(2, 1, 4.0 * np.diag(diagonal)), r).matrix).real


def _raised(call):
    try:
        call()
    except ChoiOptError as exc:
        return type(exc), str(exc)
    return None


def _two_level_channel(big: float, small: float) -> channels.ChoiOperator:
    # A C^1 -> C^2 channel (a state) with eigenvalues in the ratio big : small.
    return channels.ChoiOperator(1, 2, np.diag([big, small]) / (big + small))


def _kept_directions(c: float, factor: float) -> dict:
    """How many of two directions each support-rule caller keeps when the
    smaller eigenvalue (a root of lambda, for the step) is factor * c times
    the larger."""
    small = factor * c
    kept = {
        "reg_inverse": np.count_nonzero(linalg.reg_inverse(np.diag([1.0, small]), c)),
        "kraus": len(channels.kraus_from_choi(_two_level_channel(1.0, small), c).operators),
    }
    if c == linalg.PINV_CUTOFF:  # the solver's own cutoff
        kept["psd_solve"] = np.count_nonzero(solver._psd_solve(np.diag([small, 1.0]), np.ones(2)))
        kept["step"] = np.count_nonzero(_step_marginal([small**-2, 1.0]))  # roots 1 and 1 / small
    return kept


class TestOneSupportRule:
    # linalg's clip rule (CLIP_TOL) and support rule (support_cut) decide,
    # for every caller, which eigenvalues count as zero.
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_sqrt_and_step_clip_alike(self, factor):
        w = -factor * linalg.CLIP_TOL
        outcomes = [_raised(lambda: linalg.psd_sqrt(np.diag([1.0, w])))]
        outcomes.append(_raised(lambda: _step_marginal([1.0, w])))
        assert outcomes[0] == outcomes[1]
        if factor < 1:
            assert outcomes[0] is None
        else:
            assert outcomes[0] == (NegativeEigenvalueError, f"eigenvalue {w:.3e} below -1.0e-12")

    @pytest.mark.parametrize("c", [linalg.PINV_CUTOFF, channels.KRAUS_CUTOFF, 1e-3])
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_callers_keep_the_same_directions(self, c, factor):
        kept = _kept_directions(c, factor)
        assert set(kept.values()) == {2 if factor > 1 else 1}, kept

    def test_an_eigenvalue_at_the_cutoff_is_kept(self):
        # 0.2 == 0.25 * 0.8 exactly: the rule's comparison is >=, in every caller.
        assert len(channels.kraus_from_choi(_two_level_channel(0.8, 0.2), 0.25).operators) == 2
        assert np.count_nonzero(linalg.reg_inverse(np.diag([0.8, 0.2]), 0.25)) == 2
        at_cutoff = np.diag([linalg.PINV_CUTOFF * 0.8, 0.8])
        assert np.count_nonzero(solver._psd_solve(at_cutoff, np.ones(2))) == 2
        assert list(linalg.support(np.array([0.0, 0.2, 0.8]), 0.25)) == [False, True, True]

    def test_zero_and_negative_eigenvalues_are_never_kept(self):
        w = np.array([-1.0, 0.0, 5e-324, 1.0])
        assert list(linalg.support(w, 0.0)) == list(linalg.support(w, -1.0)) == [False, False, True, True]

    def test_every_caller_reads_one_support_rule(self, monkeypatch):
        # With the rule's threshold keeping every positive eigenvalue, no
        # caller drops the direction the cutoff would.
        monkeypatch.setattr(linalg, "support_cut", lambda top, rel_cutoff: 5e-324)
        assert set(_kept_directions(linalg.PINV_CUTOFF, 0.9).values()) == {2}
        assert set(_kept_directions(1e-3, 0.9).values()) == {2}

    def test_every_caller_reads_one_clip_rule(self, monkeypatch):
        # At a clip tolerance of 0.5 both callers refuse -0.6 alike and take 0.4 as a zero.
        monkeypatch.setattr(linalg, "CLIP_TOL", 0.5)
        refused = (NegativeEigenvalueError, "eigenvalue -6.000e-01 below -5.0e-01")
        assert _raised(lambda: linalg.psd_sqrt(np.diag([1.0, -0.6]))) == refused
        assert _raised(lambda: _step_marginal([1.0, -0.6])) == refused
        assert np.array_equal(linalg.psd_sqrt(np.diag([1.0, 0.4])), np.diag([1.0, 0.0]))
        assert list(_step_marginal([1.0, 0.4])) == [1.0, 0.0]

    def test_nan_kraus_cutoff_is_rejected(self):
        with pytest.raises(ValueError, match="cutoff must not be NaN"):
            channels.kraus_from_choi(channels.identity_choi(2), float("nan"))


class TestSpectraInAnyOrder:
    # The clip, support and pseudo-inverse rules read a spectrum by value, not
    # by position: a permuted spectrum gives the same values, permuted alike.
    W = np.array([0.0, 5e-13, 1e-11, 0.25, 1.0, 4.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_permuted_spectrum(self, seed):
        order = np.random.default_rng(seed).permutation(len(self.W))
        w = self.W[order]
        assert np.array_equal(linalg.clip_roots(w), linalg.clip_roots(self.W)[order])
        for c in (linalg.PINV_CUTOFF, 1e-11, 0.1):
            assert np.array_equal(linalg.support(w, c), linalg.support(self.W, c)[order])
            assert np.array_equal(linalg.inverse_on_support(w, c), linalg.inverse_on_support(self.W, c)[order])

    def test_pseudo_inverse_on_the_support(self):
        inv = linalg.inverse_on_support(np.array([4.0, 0.0, 1e-13, 0.5, -1.0]), 1e-12)
        assert list(inv) == [0.25, 0.0, 0.0, 2.0, 0.0]

    @pytest.mark.parametrize("at", range(4))
    def test_a_negative_eigenvalue_raises_wherever_it_sits(self, at):
        w = np.insert(np.array([0.0, 1.0, 2.0]), at, -1e-11)
        with pytest.raises(NegativeEigenvalueError, match="eigenvalue -1.000e-11 below -1.0e-12"):
            linalg.clip_roots(w)

    @pytest.mark.parametrize("descending", [False, True])
    def test_step_clips_a_negative_marginal_entry_in_either_place(self, descending):
        diagonal = [1.0, -4e-12][:: -1 if descending else 1]
        assert _raised(lambda: _step_marginal(diagonal))[0] is NegativeEigenvalueError


# Each construction takes a count where it is given True; all must refuse it.
_TRUE_AS_COUNT = {
    "copies": (lambda: models.ModelSpec("unot", copies=True), InvalidSpecError),
    "max_iters": (lambda: solver.SolverOptions(max_iters=True), InvalidSpecError),
    "choi-dim": (lambda: channels.ChoiOperator(True, 2, np.eye(2) / 2), DimensionMismatchError),
    "target-dim": (lambda: TargetOperator(2, True, np.eye(2) / 2), DimensionMismatchError),
    "nodes": (lambda: targets.quadrature_nodes(4, nodes_phi=True), ValueError),
    "file-rows": (lambda: serialize.matrix_from_obj({"rows": True, "cols": 1, "data": [[1, 0]]}), ValueError),
}


class TestOneCountRule:
    # linalg.is_count is the one test of a dimension, copy, step or node count.
    @pytest.mark.parametrize("x", [1, 7, np.int64(2), np.uint8(3)])
    def test_counts(self, x):
        assert linalg.is_count(x)

    @pytest.mark.parametrize("x", [True, False, np.True_, 0, -1, np.int64(0), 2.0, "3", None])
    def test_not_counts(self, x):
        assert not linalg.is_count(x)

    @pytest.mark.parametrize("name", list(_TRUE_AS_COUNT))
    def test_true_is_not_a_count(self, name):
        build, error = _TRUE_AS_COUNT[name]
        with pytest.raises(error):
            build()

    def test_every_caller_reads_one_count_rule(self, monkeypatch):
        monkeypatch.setattr(linalg, "is_count", lambda x: False)
        calls = [
            (lambda: models.ModelSpec("unot"), InvalidSpecError),
            (lambda: solver.SolverOptions(), InvalidSpecError),
            (lambda: channels.ChoiOperator(2, 2, np.eye(4) / 2), DimensionMismatchError),
            (lambda: targets.quadrature_nodes(4), ValueError),
            (lambda: serialize.matrix_from_obj({"rows": 1, "cols": 1, "data": [[1, 0]]}), ValueError),
        ]
        for build, error in calls:
            with pytest.raises(error):
                build()


_IDENTITY_FAMILY = models.model_family(models.ModelSpec("identity"))
# Each seeded entry point, called with a seed; each returns an array.
_SEEDED = {
    "sphere_samples": lambda seed: np.stack(targets.sphere_samples(3, seed)),
    "build_r_montecarlo": lambda seed: targets.build_r_montecarlo(_IDENTITY_FAMILY, 3, seed).matrix,
    "mc_fidelity": lambda seed: analysis.mc_fidelity(channels.identity_choi(2), _IDENTITY_FAMILY, 3, seed).mean,
    "random_choi": lambda seed: random_choi(2, 2, seed).matrix,
}


class TestOneSeedRule:
    # linalg.require_seed is the one test of a seed: an integer >= 0, not a bool.
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    @pytest.mark.parametrize("name", list(_SEEDED))
    def test_refused(self, name, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
            _SEEDED[name](seed)

    @pytest.mark.parametrize("name", list(_SEEDED))
    def test_numpy_and_python_integers_agree(self, name):
        assert np.array_equal(_SEEDED[name](7), _SEEDED[name](np.uint8(7)))

    def test_every_caller_reads_one_seed_rule(self, monkeypatch):
        def fail(seed):
            raise ValueError("seed rule called")

        monkeypatch.setattr(linalg, "require_seed", fail)
        for call in _SEEDED.values():
            with pytest.raises(ValueError, match="seed rule called"):
                call(0)


# Each real-valued parameter check, called with a value; each keeps its own
# error type, and its message names the parameter.
_REAL_CHECKS = {
    "fid_tol": (lambda x: solver.SolverOptions(fid_tol=x), InvalidSpecError, "fid_tol"),
    "alpha": (lambda x: models.ModelSpec("shifter", alpha=x), OutOfRangeError, "alpha"),
    "shifter_closed_forms": (models.shifter_closed_forms, OutOfRangeError, "alpha"),
    "damping_channel": (models.damping_channel, OutOfRangeError, "beta"),
    "kraus_cutoff": (lambda x: channels.kraus_from_choi(channels.identity_choi(2), cutoff=x), ValueError, "cutoff"),
    "reg_inverse_cutoff": (lambda x: linalg.reg_inverse(np.diag([1.0, 0.5]), x), ValueError, "cutoff"),
}


class TestOneRealRule:
    # linalg.is_real is the one type test of a real parameter: a Python or
    # numpy integer or float, not a bool. NaN and inf are left to the ranges.
    @pytest.mark.parametrize(
        "x", [0, 1, 0.5, np.float64(0.5), np.float32(0.25), np.int64(1), np.uint8(0), np.nan, -np.inf]
    )
    def test_reals(self, x):
        assert linalg.is_real(x)

    @pytest.mark.parametrize("x", [True, False, np.True_, "1", None, 1j, np.complex128(1), [0.5], np.array(0.5)])
    def test_not_reals(self, x):
        assert not linalg.is_real(x)

    @pytest.mark.parametrize("x", ["1", None, 1j, True], ids=repr)
    @pytest.mark.parametrize("name", list(_REAL_CHECKS))
    def test_refused(self, name, x):
        check, error, parameter = _REAL_CHECKS[name]
        with pytest.raises(error, match=re.escape(parameter)) as info:
            check(x)
        assert type(info.value) is error

    @pytest.mark.parametrize("x", [np.float64(0.5), np.float32(0.5), np.int64(1), 1])
    @pytest.mark.parametrize("name", list(_REAL_CHECKS))
    def test_numpy_and_python_reals_pass(self, name, x):
        check = _REAL_CHECKS[name][0]
        check(x)

    def test_every_check_reads_one_real_rule(self, monkeypatch):
        monkeypatch.setattr(linalg, "is_real", lambda x: False)
        for check, error, _ in _REAL_CHECKS.values():
            with pytest.raises(error):
                check(0.5)

    # A refused non-real is quoted (repr), so "1e-3" does not read as a
    # number; a refused real, numpy scalars too, is shown as str.
    @pytest.mark.parametrize("x", ["1e-3", "1", "nan"])
    @pytest.mark.parametrize("name", list(_REAL_CHECKS))
    def test_refused_non_real_is_quoted(self, name, x):
        check, error, _ = _REAL_CHECKS[name]
        with pytest.raises(error, match=re.escape(f"{x!r}")) as info:
            check(x)
        assert type(info.value) is error

    @pytest.mark.parametrize("x", [np.float64(-0.5), np.float32(-0.5), np.int64(-1), -0.5, np.inf])
    @pytest.mark.parametrize("name", list(_REAL_CHECKS))
    def test_refused_real_is_shown_as_str(self, name, x):
        check, error, _ = _REAL_CHECKS[name]
        with pytest.raises(error, match=re.escape(f" {x}")) as info:
            check(x)
        assert "np." not in str(info.value)


class TestFixedOperatorsFromTheirDefinitions:
    # maxmix_choi is 1/dim_out on the diagonal and identity_choi the projector
    # on vec 1; each keeps the exact bytes of its former construction, which
    # stays here as the oracle.
    @pytest.mark.parametrize("d", range(1, 9))
    def test_maxmix_choi(self, d):
        for k in range(1, 9):
            old = np.kron(np.eye(d), np.eye(k) / k).astype(np.complex128)
            assert same_bytes(channels.maxmix_choi(d, k).matrix, old)

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_identity_choi(self, dim):
        v = np.zeros(dim * dim, dtype=np.complex128)
        v[:: dim + 1] = 1.0
        assert same_bytes(channels.identity_choi(dim).matrix, np.outer(v, v.conj()))


class TestOneDimensionMatch:
    # channels.require_same_dims is the one (dim_in, dim_out) comparison; each
    # caller keeps its own message.
    def test_messages(self):
        r = TargetOperator(2, 2, np.eye(4) / 4)
        chi = channels.maxmix_choi(1, 2)
        family = models.model_family(models.ModelSpec("entangler_a"))
        cases = [
            (lambda: solver.initial_choi(r, chi), "init dims (1,2) != target dims (2,2)"),
            (lambda: solver.iterate_once(chi, r), "process dims (1,2) != target dims (2,2)"),
            (lambda: state_fidelity_curve(chi, family, 3), "channel dims (1,2) != family dims (2,4)"),
        ]
        for call, message in cases:
            assert _raised(call) == (DimensionMismatchError, message)


class TestOneCutoffRule:
    # linalg.require_cutoff is the one check on a relative cutoff: outside
    # [0, 1] the support rule keeps nothing, so reg_inverse and
    # kraus_from_choi refuse it.
    @staticmethod
    def _callers(c):
        return [
            lambda: linalg.reg_inverse(np.diag([1.0, 0.5]), c),
            lambda: channels.kraus_from_choi(_two_level_channel(1.0, 0.5), c),
        ]

    @pytest.mark.parametrize("c", [2.0, np.inf, np.nextafter(1.0, 2.0), -0.5, -np.inf])
    def test_outside_the_unit_interval_is_rejected(self, c):
        for call in self._callers(c):
            with pytest.raises(ValueError, match=re.escape(f"cutoff must be in [0, 1], got {c}")):
                call()

    def test_nan_is_rejected_by_both(self):
        for call in self._callers(float("nan")):
            with pytest.raises(ValueError, match="^cutoff must not be NaN$"):
                call()

    def test_the_ends_are_accepted(self):
        assert np.allclose(linalg.reg_inverse(np.diag([1.0, 0.5]), 0.0), np.diag([1.0, 2.0]))
        assert np.allclose(linalg.reg_inverse(np.diag([1.0, 0.5]), 1.0), np.diag([1.0, 0.0]))
        assert len(channels.kraus_from_choi(_two_level_channel(1.0, 0.5), 0.0).operators) == 2
        assert len(channels.kraus_from_choi(_two_level_channel(1.0, 0.5), 1.0).operators) == 1

    def test_every_caller_reads_one_cutoff_check(self, monkeypatch):
        def fail(rel_cutoff):
            raise ValueError("cutoff check called")

        monkeypatch.setattr(linalg, "require_cutoff", fail)
        for call in self._callers(1e-3):
            with pytest.raises(ValueError, match="cutoff check called"):
                call()


class TestValueTypesCompareByIdentity:
    # Each factory builds a fresh instance from the same values, so two calls give
    # distinct instances with equal arrays.
    FACTORIES = {
        "ChoiOperator": lambda: channels.maxmix_choi(2, 2),
        "DensityMatrix": lambda: channels.density_from_state(models.bloch_state(0.7, 1.2)),
        "KrausSet": lambda: channels.kraus_from_choi(channels.identity_choi(2)),
        "TargetOperator": lambda: models.analytic_r(models.ModelSpec("identity")),
        "BlockPlan": lambda: targets.TargetOperator(2, 2, unot_r_matrix()).blocks,
        "EigenDecomposition": lambda: linalg.herm_eig(np.diag([1.0, 0.5])),
    }

    @pytest.mark.parametrize("name", FACTORIES)
    def test_equality_and_hash_are_identity(self, name):
        a, b = self.FACTORIES[name](), self.FACTORIES[name]()
        assert type(a).__name__ == name and a is not b
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    def test_options_holding_a_start_operator_hash(self):
        chi = channels.maxmix_choi(2, 2)
        assert hash(solver.SolverOptions(init=chi)) == hash(solver.SolverOptions(init=chi))
