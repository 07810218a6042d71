import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiopt import linalg, solver
from choiopt.errors import (
    AllZeroError,
    DimensionMismatchError,
    NegativeEigenvalueError,
    NonSquareError,
    NotHermitianError,
)
from helpers import (
    clip_roots_oracle,
    inverse_on_support_oracle,
    inverse_roots_oracle,
    random_hermitian,
    random_psd,
    same_bytes,
    solver_inverse_roots_oracle,
    support_oracle,
    unot_r_matrix,
)


class TestHermEig:
    def test_identity(self):
        eig = linalg.herm_eig(np.eye(2))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])

    def test_unot_target_spectrum(self):
        # Eigenvalues of the one-copy inverting-gate target: 1/3 threefold, 0.
        eig = linalg.herm_eig(unot_r_matrix())
        assert np.allclose(eig.eigenvalues, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_random_6x6(self, seed):
        m = random_hermitian(np.random.default_rng(seed), 6)
        eig = linalg.herm_eig(m)
        assert np.linalg.norm(eig.reconstruct() - m) <= 1e-10 * max(1.0, np.linalg.norm(m))

    def test_eigenvalues_descending_and_vectors_orthonormal(self):
        m = random_hermitian(np.random.default_rng(7), 8)
        eig = linalg.herm_eig(m)
        assert np.all(np.diff(eig.eigenvalues) <= 0)
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.abs(gram - np.eye(8)).max() <= 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            linalg.herm_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_spectral_identities_hold(self, seed, n):
        m = random_hermitian(np.random.default_rng(seed), n)
        eig = linalg.herm_eig(m)
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-12
        assert np.linalg.norm(eig.reconstruct() - m) <= 1e-10 * max(1.0, np.linalg.norm(m))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(linalg.psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(linalg.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_square_recovers_input(self, seed):
        p = random_psd(np.random.default_rng(seed), 5)
        s = linalg.psd_sqrt(p)
        assert np.linalg.norm(s @ s - p) <= 1e-10 * max(1.0, np.linalg.norm(p))

    def test_result_is_hermitian_psd(self):
        s = linalg.psd_sqrt(random_psd(np.random.default_rng(3), 6))
        assert np.abs(s - s.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(s).min() >= 0.0

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalueError):
            linalg.psd_sqrt(np.diag([1.0, -1.0]))

    def test_tiny_negative_is_clipped(self):
        s = linalg.psd_sqrt(np.diag([1.0, -1e-13]))
        assert np.allclose(s, np.diag([1.0, 0.0]))


class TestRegInverse:
    def test_identity(self):
        assert np.allclose(linalg.reg_inverse(np.eye(4)), np.eye(4))

    def test_singular_diagonal(self):
        assert np.allclose(linalg.reg_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_multiply_back(self, seed):
        rng = np.random.default_rng(seed)
        p = random_psd(rng, 4) + 0.5 * np.eye(4)  # keep it comfortably invertible
        assert np.abs(linalg.reg_inverse(p) @ p - np.eye(4)).max() <= 1e-10

    def test_rejects_zero_matrix(self):
        with pytest.raises(AllZeroError):
            linalg.reg_inverse(np.zeros((3, 3)))

    def test_zero_cutoff_still_skips_null_space(self):
        got = linalg.reg_inverse(np.diag([2.0, 0.0]), rel_cutoff=0.0)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, np.diag([0.5, 0.0]))


class TestKron:
    def test_identities(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_layout(self):
        got = linalg.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_multiplicativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
        x, y = (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)) for _ in range(2))
        lhs = linalg.kron(a, b) @ linalg.kron(x, y)
        rhs = linalg.kron(a @ x, b @ y)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestPartialTrace:
    def test_unnormalized_entangled_projector(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1.0  # sum_j |jj>
        m = np.outer(v, v.conj())
        assert np.allclose(linalg.partial_trace(m, 2, 2, keep="first"), np.eye(2))

    def test_product_keep_second(self):
        rng = np.random.default_rng(0)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 3)
        got = linalg.partial_trace(linalg.kron(a, b), 2, 3, keep="second")
        assert np.allclose(got, np.trace(a) * b)

    def test_maxmix_channel_satisfies_trace_constraint(self):
        chi0 = linalg.kron(np.eye(2), np.eye(2) / 2)
        assert np.allclose(linalg.partial_trace(chi0, 2, 2, keep="first"), np.eye(2))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_preserves_trace(self, seed, d1, d2):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d1 * d2,) * 2) + 1j * rng.standard_normal((d1 * d2,) * 2)
        for keep in ("first", "second"):
            out = linalg.partial_trace(m, d1, d2, keep=keep)
            assert abs(np.trace(out) - np.trace(m)) <= 1e-12 * max(1.0, abs(np.trace(m)))

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(5), 2, 2, keep="first")


class TestPartialTranspose:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        got = linalg.partial_transpose(linalg.kron(a, b), 2, 2, which="first")
        assert np.allclose(got, linalg.kron(a.T, b))

    def test_entangled_state_goes_negative(self):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        pt = linalg.partial_transpose(np.outer(v, v.conj()), 2, 2, which="second")
        assert abs(np.linalg.eigvalsh(pt).min() - (-0.5)) <= 1e-12

    def test_involution(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        for which in ("first", "second"):
            twice = linalg.partial_transpose(
                linalg.partial_transpose(m, 2, 3, which=which), 2, 3, which=which
            )
            assert np.array_equal(twice, m)

    def test_preserves_trace_and_hermiticity(self):
        m = random_hermitian(np.random.default_rng(3), 6)
        pt = linalg.partial_transpose(m, 3, 2, which="first")
        assert abs(np.trace(pt) - np.trace(m)) <= 1e-12
        assert np.abs(pt - pt.conj().T).max() <= 1e-12


class TestHermitianSpectrum:
    def test_matches_eigvalsh(self):
        m = random_hermitian(np.random.default_rng(4), 5)
        dev, w = linalg.hermitian_spectrum(m)
        assert dev == 0.0
        assert np.array_equal(w, np.linalg.eigvalsh(m))

    def test_reports_entrywise_deviation(self):
        dev, _ = linalg.hermitian_spectrum(np.array([[1.0, 0.5], [0.25, 1.0]]))
        assert dev == 0.25

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_never_reaches_the_eigensolver(self, value, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eigvalsh called on a non-finite matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        m = np.eye(3, dtype=complex)
        m[2, 1] = value
        dev, w = linalg.hermitian_spectrum(m)
        assert dev == np.inf
        assert w.shape == (3,) and np.isnan(w).all()


class TestNonFiniteIsNotHermitian:
    @pytest.mark.parametrize("fn", [linalg.herm_eig, linalg.psd_sqrt, linalg.reg_inverse])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entries", [[(0, 0)], [(0, 1)], [(0, 1), (1, 0)]])
    def test_raises(self, fn, value, entries):
        m = np.eye(2, dtype=complex)
        for entry in entries:
            m[entry] = value
        with pytest.raises(NotHermitianError):
            fn(m)

    @pytest.mark.parametrize("fn", [linalg.herm_eig, linalg.psd_sqrt, linalg.reg_inverse])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_raises_without_a_numpy_warning(self, fn, value):
        m = np.eye(2, dtype=complex)
        m[0, 0] = value  # inf - inf on the diagonal of m - m†
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError):
                fn(m)


class TestTypedErrors:
    def test_as_matrix_rejects_a_vector(self):
        with pytest.raises(DimensionMismatchError):
            linalg.as_matrix(np.ones(4))

    def test_partial_trace_rejects_unknown_keep(self):
        with pytest.raises(ValueError, match="keep"):
            linalg.partial_trace(np.eye(4), 2, 2, keep="both")

    def test_partial_transpose_rejects_unknown_which(self):
        with pytest.raises(ValueError, match="which"):
            linalg.partial_transpose(np.eye(4), 2, 2, which="both")


_TINY = float(np.finfo(float).smallest_subnormal)
_SPECIALS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, _TINY, -_TINY, 1e-310, 1.0, 0.25, 2.5, -1.0, 1e-11, 1e14, 1e300,
    *(math.nextafter(t, side) for t in (linalg.CLIP_TOL, -linalg.CLIP_TOL) for side in (-math.inf, 0.0, math.inf)),
]
_CUTOFFS = [0.0, 1.0, -1.0, 1e-12]


def _beside(x: float) -> list:
    return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


@st.composite
def _spectra(draw):
    """(w, rel_cutoff): 1 to 64 floats around a largest one, with values at and
    beside both cuts: rel_cutoff times the largest (support) and the
    eigenvalues whose roots sit at PINV_CUTOFF times the largest root (the
    step's inverse roots)."""
    rel_cutoff = draw(st.sampled_from(_CUTOFFS))
    top = draw(st.sampled_from([1.0, 0.3, 1e14, 1e20, 1e300, math.inf, 1e-310, _TINY]) | st.floats(0.0, 1e30))
    root_cut = linalg.PINV_CUTOFF * math.sqrt(top)
    near = [*_beside(rel_cutoff * top), *_beside(root_cut * root_cut)]
    near += [x * x for x in _beside(root_cut)]
    element = st.sampled_from(_SPECIALS + near) | st.floats(-2.0, 2.0) | st.floats(allow_nan=True)
    values = draw(st.lists(element, max_size=63))
    values.insert(draw(st.integers(0, len(values))), top)
    return np.array(values), rel_cutoff


def _outcome(rule, *args):
    """A rule's result, or the type and message of what it raised (a warning
    too); numpy's floating-point warnings are off, so an oracle's is none."""
    try:
        with np.errstate(all="ignore"):
            return rule(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _same(got, want) -> bool:
    if isinstance(want, tuple) and isinstance(want[0], type):
        return got == want
    if isinstance(want, tuple):
        return isinstance(got, tuple) and len(got) == len(want) and all(map(_same, got, want))
    return isinstance(got, np.ndarray) and same_bytes(got, want)


class _CountedFloats(list):
    passes = 0

    def __iter__(self):
        _CountedFloats.passes += 1
        return super().__iter__()


class _CountedArray(np.ndarray):
    def tolist(self):
        return _CountedFloats(super().tolist())


class TestRulesOverFloats:
    # The clip, support and pseudo-inverse rules read a spectrum's Python
    # floats; each, the composed one and the step's _inverse_roots give the
    # numpy formulas' bytes and raise their errors, NaN, +-inf, -0.0 and
    # subnormals included.  The float rules themselves never warn.
    @given(_spectra())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_each_rule_is_its_numpy_formula(self, case):
        w, rel_cutoff = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = [
                (lambda: linalg.clip_roots(w), lambda: clip_roots_oracle(w)),
                (lambda: linalg.support(w, rel_cutoff), lambda: support_oracle(w, rel_cutoff)),
                (lambda: linalg.inverse_on_support(w, rel_cutoff), lambda: inverse_on_support_oracle(w, rel_cutoff)),
                (lambda: linalg.inverse_roots(w), lambda: inverse_roots_oracle(w)),
                (lambda: solver._inverse_roots(w), lambda: solver_inverse_roots_oracle(w)),
            ]
            for rule, oracle in pairs:
                got, want = _outcome(rule), _outcome(oracle)
                assert _same(got, want), (got, want)

    @pytest.mark.parametrize("w", [[1.0], [0.25, 4.0, 0.0, 1e-20] * 8, [1e14, 1e-10, 9.9e-11, 1.0]], ids=len)
    def test_the_composed_rule_reads_the_floats_in_one_pass(self, w, monkeypatch):
        # Besides the builtin max, one loop over the floats and no call of either rule.
        def refused(*args):
            raise AssertionError("a rule of its own called")

        monkeypatch.setattr(linalg, "clip_roots", refused)
        monkeypatch.setattr(linalg, "inverse_on_support", refused)
        _CountedFloats.passes = 0
        roots, inv = linalg.inverse_roots(np.array(w).view(_CountedArray))
        assert _CountedFloats.passes == 2
        assert _same((roots, inv), inverse_roots_oracle(np.array(w)))
