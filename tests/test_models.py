import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiopt import linalg, models
from choiopt.channels import apply_matrix, density_from_state, fidelity, validate_choi
from choiopt.errors import InvalidSpecError, OutOfRangeError
from choiopt.models import (
    ALPHA_THRESHOLD,
    MODEL_KINDS,
    ENTANGLER_A_FIDELITY,
    ENTANGLER_A_MIN_FIDELITY,
    KET_00,
    PSI_PLUS,
    ModelSpec,
    analytic_r,
    bloch_state,
    damping_channel,
    damping_fidelity,
    entangler_a_isometry,
    entangler_a_state_fidelity,
    entangler_b_output_state,
    known_optimum,
    model_family,
    orthogonal_state,
    parse_model,
    shifter_closed_forms,
    symmetric_state,
)
from choiopt.targets import NORM_TOL, build_r_quadrature, evaluate_family
from helpers import same_bytes, unot_r_matrix


class TestSpecs:
    def test_dims(self):
        assert ModelSpec("unot", copies=3).dims == (4, 2)
        assert ModelSpec("cloner", copies=3).dims == (2, 4)
        assert ModelSpec("entangler_a").dims == (2, 4)
        assert ModelSpec("shifter", alpha=1.0).dims == (2, 2)
        assert ModelSpec("identity").dims == (2, 2)

    def test_parse_cli_names(self):
        assert parse_model("entangler-a").kind == "entangler_a"
        assert parse_model("unot", copies=2).copies == 2

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            ModelSpec("teleporter")
        with pytest.raises(InvalidSpecError):
            ModelSpec("unot", copies=0)
        with pytest.raises(OutOfRangeError):
            ModelSpec("shifter", alpha=4.0)


# Poles, then random points on the sphere.
_rng = np.random.default_rng(7)
THETAS = np.concatenate([[0.0, np.pi], _rng.uniform(0.0, np.pi, 64)])
PHIS = _rng.uniform(0.0, 2.0 * np.pi, len(THETAS))


def closed_form_symmetric(n, theta, phi):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    cols = [math.sqrt(math.comb(n, j)) * np.exp(1j * j * phi) * c ** (n - j) * s**j for j in range(n + 1)]
    return np.stack(cols, axis=-1)


def closed_form_entangler_a(theta, phi):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    num = np.sqrt(2.0) * c[:, None] * KET_00 + (np.exp(1j * phi) * s)[:, None] * PSI_PLUS
    return num / np.sqrt(1.0 + c**2)[:, None]


class TestSharedAmplitudes:
    # Evaluators that build a state from the input qubit's amplitudes must
    # reproduce the trigonometric closed forms they replace.
    @pytest.mark.parametrize("n", [1, 2, 10, 30])
    def test_symmetric_power_matches_closed_form(self, n):
        # The closed form rounds j*phi before exp, up to pi*n*eps of phase
        # error that the running products do not make.
        tol = 1e-14 + np.pi * n * np.finfo(float).eps
        want = closed_form_symmetric(n, THETAS, PHIS)
        unot_in, _ = evaluate_family(model_family(ModelSpec("unot", copies=n)), THETAS, PHIS)
        _, cloner_out = evaluate_family(model_family(ModelSpec("cloner", copies=n)), THETAS, PHIS)
        for got in (symmetric_state(n, THETAS, PHIS), unot_in, cloner_out):
            assert np.abs(got - want).max() <= tol
            assert np.abs(np.linalg.norm(got, axis=1) - 1.0).max() <= NORM_TOL

    def test_entangler_a_matches_closed_form(self):
        pin, pout = evaluate_family(model_family(ModelSpec("entangler_a")), THETAS, PHIS)
        assert np.abs(pin - bloch_state(THETAS, PHIS)).max() == 0.0
        assert np.abs(pout - closed_form_entangler_a(THETAS, PHIS)).max() <= 1e-14
        assert np.abs(np.linalg.norm(pout, axis=1) - 1.0).max() <= NORM_TOL

    def test_entangler_b_matches_closed_form_up_to_phase(self):
        # The output is built from (conj(a1), -conj(a0)), orthogonal_state up to
        # a global phase; R and every fidelity see only the projector.
        spec = ModelSpec("entangler_b")
        pin, pout = evaluate_family(model_family(spec), THETAS, PHIS)
        a, b = bloch_state(THETAS, PHIS), orthogonal_state(THETAS, PHIS)
        want = (np.einsum("si,sj->sij", a, b) + np.einsum("si,sj->sij", b, a)).reshape(-1, 4) / np.sqrt(2.0)
        projector = lambda v: np.einsum("si,sj->sij", v, v.conj())
        assert np.abs(pin - a).max() == 0.0
        assert np.abs(projector(pout) - projector(want)).max() <= 1e-15
        assert np.abs(np.linalg.norm(pout, axis=1) - 1.0).max() <= NORM_TOL
        assert np.abs(build_r_quadrature(model_family(spec)).matrix - analytic_r(spec).matrix).max() <= 1e-12


def explicit_bloch_state(theta, phi):
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, each state with its own phase."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    return np.stack([np.cos(theta / 2) * np.ones_like(phi), np.exp(1j * phi) * np.sin(theta / 2)], axis=-1)


class TestOnePhasePerShifterSample:
    # The shifter's input and output states share one evaluation of e^{i phi},
    # with the bytes of two separate bloch_state evaluations.
    @pytest.mark.parametrize("alpha", [0.0, 1.3, 2.6, np.pi])
    def test_states_keep_their_bytes(self, alpha):
        ev = model_family(ModelSpec("shifter", alpha=alpha)).evaluator
        for theta, phi in ((THETAS, PHIS), (0.0, 1.1), (np.pi, 4.0), (0.7, 0.0)):
            pin, pout = ev(theta, phi)
            assert same_bytes(pin, explicit_bloch_state(theta, phi))
            assert same_bytes(pout, explicit_bloch_state(np.asarray(theta, dtype=float) + alpha, phi))
            assert same_bytes(bloch_state(theta, phi), explicit_bloch_state(theta, phi))

    def test_identity_is_the_same_evaluation(self):
        pin, pout = model_family(ModelSpec("identity")).evaluator(THETAS, PHIS)
        assert same_bytes(pin, explicit_bloch_state(THETAS, PHIS)) and same_bytes(pout, pin)


def stacked_bloch(theta, phase):
    """_bloch as one np.stack of its two broadcast columns: the oracle of the in-place build."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta / 2) * np.ones_like(phase.real), phase * np.sin(theta / 2)], axis=-1)


def summed_entangler_a_output(a):
    """(sqrt(2) a0|00> + a1|Psi+>) / sqrt(1 + |a0|^2) as a sum of scaled kets."""
    a0, a1 = a[..., 0], a[..., 1]
    num = np.sqrt(2.0) * a0[..., None] * KET_00 + a1[..., None] * PSI_PLUS
    return num / np.sqrt(1.0 + np.abs(a0) ** 2)[..., None]


class TestStatesBuiltInPlace:
    # bloch_state and the entangler-A output write into one preallocated array;
    # the Bloch states keep the stacked formula's shapes and bytes.
    @pytest.mark.parametrize(
        "theta, phi",
        [(0.7, PHIS), (THETAS, 2.3), (0.7, 2.3), (THETAS, PHIS), (THETAS[:6].reshape(2, 3), PHIS[:3])],
        ids=["scalar-array", "array-scalar", "scalar-scalar", "array-array", "broadcast-2d"],
    )
    def test_bloch_state_keeps_the_stacked_bytes(self, theta, phi):
        want = stacked_bloch(theta, np.exp(1j * np.asarray(phi, dtype=float)))
        assert same_bytes(bloch_state(theta, phi), want)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_entangler_a_output_is_its_definition(self, shape):
        rng = np.random.default_rng(5)
        a = bloch_state(rng.uniform(0.0, np.pi, shape), rng.uniform(0.0, 2.0 * np.pi, shape))
        got = models._entangler_a_output(a)
        want = summed_entangler_a_output(a)
        assert got.shape == want.shape == shape + (4,) and got.dtype == np.complex128
        assert np.abs(got - want).max() <= 1e-15
        assert np.array_equal(got[..., 3], np.zeros(shape)) and np.array_equal(got[..., 1], got[..., 2])


class TestOrthogonalState:
    def test_matches_the_explicit_formula(self):
        want = np.stack([np.sin(THETAS / 2), -np.exp(1j * PHIS) * np.cos(THETAS / 2)], axis=-1)
        assert np.abs(orthogonal_state(THETAS, PHIS) - want).max() <= 1e-15

    def test_broadcasts_like_bloch_state(self):
        assert orthogonal_state(0.3, [0.1, 0.2]).shape == orthogonal_state([0.3, 0.4], 0.1).shape == (2, 2)


class TestFamilies:
    def test_unot_poles(self):
        family = model_family(ModelSpec("unot", copies=1))
        pin, pout = evaluate_family(family, [0.0], [0.0])
        assert np.abs(pin[0] - [1.0, 0.0]).max() <= 1e-15
        assert abs(abs(pout[0][1]) - 1.0) <= 1e-15 and abs(pout[0][0]) <= 1e-15

    def test_cloner_pole(self):
        family = model_family(ModelSpec("cloner", copies=2))
        _, pout = evaluate_family(family, [0.0], [0.7])
        assert np.abs(pout[0] - [1.0, 0.0, 0.0]).max() <= 1e-15

    def test_entangler_a_equator_pole(self):
        family = model_family(ModelSpec("entangler_a"))
        _, pout = evaluate_family(family, [np.pi], [0.0])
        psi_plus = np.array([0, 1, 1, 0]) / np.sqrt(2)
        assert np.abs(pout[0] - psi_plus).max() <= 1e-15

    @given(st.integers(1, 6), st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi - 1e-9))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_state_norm(self, n, theta, phi):
        v = symmetric_state(n, theta, phi)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_symmetric_state_single_qubit_reduces_to_bloch(self):
        theta, phi = 1.234, 2.345
        assert np.abs(symmetric_state(1, theta, phi) - bloch_state(theta, phi)).max() <= 1e-15


class TestClosedFormTargets:
    def test_unot_single_copy_matches_projector(self):
        r = analytic_r(ModelSpec("unot", copies=1))
        assert np.abs(r.matrix - unot_r_matrix()).max() <= 1e-15

    @pytest.mark.parametrize("n", range(1, 6))
    def test_unot_top_eigenvalue_degenerate(self, n):
        r = analytic_r(ModelSpec("unot", copies=n))
        assert abs(np.trace(r.matrix).real - 1.0) <= 1e-15
        w = np.linalg.eigvalsh(r.matrix)
        top = 1.0 / (n + 2)
        assert abs(w.max() - top) <= 1e-12
        assert np.sum(np.abs(w - top) <= 1e-10) == n + 2

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cloner_top_eigenvalue(self, n):
        r = analytic_r(ModelSpec("cloner", copies=n))
        assert abs(r.lambda_max - 1.0 / (n + 1)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.4, ALPHA_THRESHOLD, 1.7, np.pi])
    def test_shifter_unit_trace(self, alpha):
        r = analytic_r(ModelSpec("shifter", alpha=alpha))
        assert abs(np.trace(r.matrix).real - 1.0) <= 1e-15

    def test_entangler_b_spectrum(self):
        w = np.sort(np.linalg.eigvalsh(analytic_r(ModelSpec("entangler_b")).matrix))
        assert np.allclose(w[:2], 0.0, atol=1e-14)
        assert np.allclose(w[2:], 1 / 6, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_unot_is_the_cloner_mirrored(self, n):
        # psi_perp = eps conj(psi): swap the cloner's factors, transpose the
        # qubit's, conjugate it by eps; every entry is exact (products with 0, +-1).
        eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
        swap = np.eye(2 * (n + 1))[[q * (n + 1) + s for s in range(n + 1) for q in (0, 1)]]
        mirrored = linalg.partial_transpose(swap @ models._r_cloner(n) @ swap.T, n + 1, 2, "second")
        flip = np.kron(np.eye(n + 1), eps)
        assert np.array_equal(models._r_unot(n), flip @ mirrored @ flip.T)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_unot_entries_bit_for_bit(self, n):
        # R's closed form at symmetric index n - k and output qubit q: diagonal
        # (n - k + 1) / den at q = 0 and (k + 1) / den at q = 1, and -sqrt(k (n - k + 1)) / den
        # between (k, 0) and (k - 1, 1); every zero, imaginary parts too, is +0.0.
        dim, den = 2 * (n + 1), (n + 1) * (n + 2)
        want = np.zeros((dim, dim), dtype=np.complex128)
        for k in range(n + 1):
            want[(n - k) * 2, (n - k) * 2] = (n - k + 1) / den
            want[(n - k) * 2 + 1, (n - k) * 2 + 1] = (k + 1) / den
        for k in range(1, n + 1):
            c = math.sqrt(k * (n - k + 1)) / den
            want[(n - k) * 2, (n - k + 1) * 2 + 1] = want[(n - k + 1) * 2 + 1, (n - k) * 2] = -c
        assert same_bytes(models._r_unot(n), want)

    def test_unot_block_structure(self):
        # Couplings only pair adjacent symmetric states with opposite outputs.
        n = 3
        r = analytic_r(ModelSpec("unot", copies=n)).matrix
        for a in range(2 * (n + 1)):
            for b in range(2 * (n + 1)):
                ja, qa = divmod(a, 2)
                jb, qb = divmod(b, 2)
                allowed = (ja == jb and qa == qb) or (qa != qb and abs(ja - jb) == 1)
                if not allowed:
                    assert r[a, b] == 0.0


class TestKnownOptima:
    def test_values(self):
        assert known_optimum(ModelSpec("unot", copies=4)).fidelity == pytest.approx(5 / 6, abs=1e-15)
        assert known_optimum(ModelSpec("cloner", copies=5)).fidelity == pytest.approx(1 / 3, abs=1e-15)
        assert known_optimum(ModelSpec("entangler_b")).fidelity == pytest.approx(1 / 3, abs=1e-15)
        assert known_optimum(ModelSpec("identity")).fidelity == 1.0

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec("unot", copies=1),
            ModelSpec("entangler_a"),
            ModelSpec("entangler_b"),
            ModelSpec("shifter", alpha=0.3),
            ModelSpec("shifter", alpha=2.0),
            ModelSpec("shifter", alpha=np.pi),
            ModelSpec("identity"),
        ],
        ids=str,
    )
    def test_channel_achieves_stated_fidelity(self, spec):
        best = known_optimum(spec)
        assert best.chi is not None
        report = validate_choi(best.chi)
        assert report.min_eigenvalue >= -1e-10
        assert report.trace_preservation_deviation <= 1e-10 and report.hermiticity_deviation <= 1e-10
        assert abs(fidelity(best.chi, analytic_r(spec)) - best.fidelity) <= 1e-10

    def test_multi_copy_maps_not_specified(self):
        assert known_optimum(ModelSpec("unot", copies=2)).chi is None
        assert known_optimum(ModelSpec("cloner", copies=2)).chi is None


class TestEntanglerReferencesFromTheirDefinitions:
    # The isometry stacks |00> and |Psi+> as columns, and the entangler-b
    # output writes |00><00| + |11><11| as one diagonal; each keeps the exact
    # bytes of its former construction, which stays here as the oracle.
    def test_entangler_a_isometry(self):
        old = np.zeros((4, 2), dtype=np.complex128)
        old[:, 0] = KET_00
        old[:, 1] = PSI_PLUS
        assert same_bytes(entangler_a_isometry(), old)
        w = old.T.ravel()
        assert same_bytes(known_optimum(ModelSpec("entangler_a")).chi.matrix, np.outer(w, w.conj()))

    def test_entangler_b_output_state(self):
        e11 = np.zeros(4, dtype=np.complex128)
        e11[3] = 1.0
        terms = [np.outer(v, v.conj()) for v in (KET_00, PSI_PLUS, e11)]
        old = (terms[0] + terms[1] + terms[2]) / 3.0
        assert same_bytes(entangler_b_output_state(), old)
        assert same_bytes(known_optimum(ModelSpec("entangler_b")).chi.matrix, np.kron(np.eye(2), old))


class TestShifterClosedForms:
    def test_zero_shift(self):
        opt = shifter_closed_forms(0.0)
        assert opt.fidelity == 1.0
        assert opt.beta_opt == 0.0

    def test_half_pi(self):
        opt = shifter_closed_forms(np.pi / 2)
        assert abs(opt.beta_opt - np.pi / 2) <= 1e-12
        assert abs(opt.fidelity - (4 + np.pi) / 8) <= 1e-12

    def test_threshold_value(self):
        assert abs(ALPHA_THRESHOLD - math.atan(8 / (3 * math.pi))) <= 1e-15
        assert ALPHA_THRESHOLD == pytest.approx(0.7038123129, abs=1e-10)

    def test_continuous_at_threshold(self):
        below = shifter_closed_forms(ALPHA_THRESHOLD - 1e-9).fidelity
        above = shifter_closed_forms(ALPHA_THRESHOLD + 1e-9).fidelity
        assert abs(below - above) <= 1e-8

    def test_full_inversion_endpoint(self):
        # Evaluated as written, the damping branch reaches beta = pi and the
        # inverting-gate value 2/3 at alpha = pi.
        opt = shifter_closed_forms(np.pi)
        assert abs(opt.beta_opt - np.pi) <= 1e-6
        assert abs(opt.fidelity - 2 / 3) <= 1e-12

    def test_fidelity_of_beta_handle(self):
        opt = shifter_closed_forms(1.2)
        assert opt.fidelity_of_beta(opt.beta_opt) == pytest.approx(opt.fidelity, abs=1e-15)
        assert opt.fidelity_of_beta(0.0) <= opt.fidelity + 1e-15

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            shifter_closed_forms(-0.1)


class TestDampingChannel:
    def test_zero_is_identity(self):
        chi = damping_channel(0.0)
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        assert np.abs(apply_matrix(chi, rho) - rho).max() <= 1e-15

    def test_half_pi_is_constant_map(self):
        chi = damping_channel(np.pi / 2)
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        assert np.abs(apply_matrix(chi, rho) - np.diag([0.0, 1.0])).max() <= 1e-15

    @pytest.mark.parametrize("beta", np.linspace(0.0, np.pi, 9))
    def test_trace_preserving_everywhere(self, beta):
        report = validate_choi(damping_channel(beta))
        assert report.trace_preservation_deviation == 0.0
        assert report.min_eigenvalue >= -1e-14

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            damping_channel(3.5)

    @pytest.mark.parametrize("alpha", np.linspace(0.0, np.pi, 7))
    @pytest.mark.parametrize("beta", np.linspace(0.0, np.pi / 2, 5))
    def test_mean_fidelity_closed_form(self, alpha, beta):
        got = fidelity(damping_channel(beta), analytic_r(ModelSpec("shifter", alpha=alpha)))
        assert abs(got - damping_fidelity(alpha, beta)) <= 1e-12


class TestEntanglerAFidelity:
    @pytest.mark.parametrize("theta", np.linspace(0.0, np.pi, 11))
    def test_pointwise_formula_matches_channel(self, theta):
        best = known_optimum(ModelSpec("entangler_a"))
        family = model_family(ModelSpec("entangler_a"))
        pin, pout = evaluate_family(family, [theta], [0.8])
        rho_out = apply_matrix(best.chi, density_from_state(pin[0]).matrix)
        got = (pout[0].conj() @ rho_out @ pout[0]).real
        assert abs(got - entangler_a_state_fidelity(theta)) <= 1e-12

    def test_endpoints_are_perfect(self):
        assert entangler_a_state_fidelity(0.0) == pytest.approx(1.0, abs=1e-15)
        assert entangler_a_state_fidelity(np.pi) == pytest.approx(1.0, abs=1e-15)

    def test_minimum_value(self):
        thetas = np.linspace(0.0, np.pi, 20001)
        assert abs(entangler_a_state_fidelity(thetas).min() - ENTANGLER_A_MIN_FIDELITY) <= 1e-8

    def test_mean_value_constant(self):
        assert ENTANGLER_A_FIDELITY == pytest.approx(0.9804911966, abs=1e-10)
        assert ENTANGLER_A_MIN_FIDELITY == pytest.approx(0.9705627485, abs=1e-10)


class TestSpecReadsOnlyItsParameters:
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("identity", {"alpha": 0.5}),
            ("unot", {"alpha": 0.1}),
            ("cloner", {"alpha": 1.0}),
            ("entangler_a", {"alpha": float("nan")}),
            ("entangler_a", {"copies": 4}),
            ("entangler_b", {"copies": 2}),
            ("shifter", {"copies": 2, "alpha": 1.0}),
            ("identity", {"copies": 3}),
            ("unot", {"copies": 2.5}),
            ("cloner", {"copies": 2.0}),
            ("unot", {"copies": "2"}),
            ("shifter", {"copies": 1.0, "alpha": 1.0}),
        ],
        ids=str,
    )
    def test_rejected(self, kind, params):
        with pytest.raises(InvalidSpecError):
            ModelSpec(kind, **params)

    def test_numpy_integer_copies_pass(self):
        spec = ModelSpec("unot", copies=np.int64(3))
        assert spec.dims == (4, 2)
        assert np.array_equal(analytic_r(spec).matrix, analytic_r(ModelSpec("unot", copies=3)).matrix)


class TestIdentityIsTheShifterAtZero:
    def test_targets_and_optimum_are_bit_identical(self):
        ident, shift = ModelSpec("identity"), ModelSpec("shifter", alpha=0.0)
        assert np.array_equal(analytic_r(ident).matrix, analytic_r(shift).matrix)
        quad = [build_r_quadrature(model_family(s)).matrix for s in (ident, shift)]
        assert np.array_equal(*quad)
        a, b = known_optimum(ident), known_optimum(shift)
        assert a.fidelity == b.fidelity == 1.0
        assert np.array_equal(a.chi.matrix, b.chi.matrix)


class TestTypedErrorsAtTheBoundary:
    @pytest.mark.parametrize("name", [3, None])
    def test_parse_model_refuses_a_non_string_name(self, name):
        with pytest.raises(InvalidSpecError, match=f"^unknown model kind {name}$"):
            parse_model(name)

    @pytest.mark.parametrize("n_qubits", [-1, 1.5, True, "2"])
    def test_symmetric_state_refuses_a_non_natural_count(self, n_qubits):
        with pytest.raises(ValueError, match=rf"^n_qubits must be an integer >= 0, got {re.escape(repr(n_qubits))}$"):
            symmetric_state(n_qubits, 0.4, 1.1)

    def test_symmetric_state_of_no_qubits(self):
        assert np.array_equal(symmetric_state(0, [0.4, 2.0], [1.1, 0.3]), np.ones((2, 1)))


def _specs(kind):
    """Two parameter values for the kinds that take one, else the one spec."""
    if kind in ("unot", "cloner"):
        return [ModelSpec(kind, copies=n) for n in (1, 4)]
    if kind == "shifter":
        return [ModelSpec(kind, alpha=a) for a in (0.3, 2.5)]
    return [ModelSpec(kind)]


ALL_SPECS = [spec for kind in MODEL_KINDS for spec in _specs(kind)]
R_BUILDERS = ("_r_unot", "_r_cloner", "_r_entangler_a", "_r_entangler_b", "_r_shifter")
OPTIMUM_HELPERS = ("shifter_closed_forms", "damping_channel", "entangler_a_isometry", "entangler_b_output_state")


def _raise_from(monkeypatch, names):
    def refuse(*args):
        raise AssertionError("called a builder that was not asked for")

    for name in names:
        monkeypatch.setattr(models, name, refuse)


class TestOneDispatch:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_every_view_of_a_kind_has_its_dims(self, spec):
        family, r, chi = model_family(spec), analytic_r(spec), known_optimum(spec).chi
        assert (family.dim_in, family.dim_out) == (r.dim_in, r.dim_out) == spec.dims
        assert chi is None or (chi.dim_in, chi.dim_out) == spec.dims

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_the_family_builds_no_target_and_no_optimum(self, spec, monkeypatch):
        _raise_from(monkeypatch, R_BUILDERS + OPTIMUM_HELPERS)
        pin, pout = evaluate_family(model_family(spec), THETAS, PHIS)
        assert (pin.shape[1], pout.shape[1]) == spec.dims

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_the_target_builds_no_optimum(self, spec, monkeypatch):
        _raise_from(monkeypatch, OPTIMUM_HELPERS)
        assert (analytic_r(spec).dim_in, analytic_r(spec).dim_out) == spec.dims


# The stored dual's angles: a grid on [0, pi], alpha0 +- 10^-k, alpha0, and the rows near pi.
DUAL_ALPHAS = [
    *np.linspace(0.0, np.pi, 4001).tolist(),
    *(ALPHA_THRESHOLD + sign * 10.0**-k for k in range(2, 16) for sign in (1, -1)),
    ALPHA_THRESHOLD,
    np.pi - 1e-3,
    3.13,
]


class TestShifterDual:
    # analytic_r's shifter carries the optimal diagonal y of min Tr Y s.t.
    # Y (x) 1 >= R: feasible to rounding, with Tr Y the closed-form optimum.
    def test_feasible_with_the_closed_form_value(self):
        targets = [analytic_r(ModelSpec("shifter", alpha=a)) for a in DUAL_ALPHAS]
        y = np.array([r.dual for r in targets])
        # diag(y) (x) 1_2 - R, whose eigenvalues are those of its blocks on R's plan
        slack = np.repeat(y, 2, axis=1)[:, :, None] * np.eye(4) - np.array([r.matrix for r in targets])
        assert np.linalg.eigvalsh(slack).min() >= -1e-15
        closed = np.array([shifter_closed_forms(a).fidelity for a in DUAL_ALPHAS])
        assert np.abs(y.sum(axis=1) - closed).max() <= 1e-15

    @pytest.mark.parametrize("alpha", [0.3, ALPHA_THRESHOLD, 0.71, 2.5], ids=str)
    def test_one_expression_for_both_branches(self, alpha):
        # Below alpha0, y = (a + c, b + c); above it, y0 = R11 and y1 = b + c^2 / (R11 - a).
        m = analytic_r(ModelSpec("shifter", alpha=alpha)).matrix.real
        a, b, c, r11 = m[0, 0], m[3, 3], abs(m[0, 3]), m[1, 1]
        want = (a + c, b + c) if alpha <= ALPHA_THRESHOLD else (r11, b + c * c / (r11 - a))
        assert np.abs(analytic_r(ModelSpec("shifter", alpha=alpha)).dual - want).max() <= 1.2e-16

    def test_identity_carries_the_shifters_dual_at_zero(self):
        ident, shift = analytic_r(ModelSpec("identity")), analytic_r(ModelSpec("shifter", alpha=0.0))
        assert np.array_equal(ident.dual, shift.dual)
        assert ident.dual.sum() == 1.0

    @pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.kind not in ("shifter", "identity")], ids=str)
    def test_other_kinds_store_none(self, spec):
        assert analytic_r(spec).dual is None

    def test_read_only_floats(self):
        y = analytic_r(ModelSpec("shifter", alpha=1.0)).dual
        assert y.dtype == np.float64 and y.shape == (2,) and not y.flags.writeable
