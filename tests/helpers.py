"""Shared generators and independent oracles for the test suite."""

import numpy as np

from choiopt.errors import NegativeEigenvalueError, SingularLambdaError
from choiopt.linalg import CLIP_TOL, PINV_CUTOFF


def same_bytes(a, b):
    """a and b have the same dtype, shape and bytes (so -0.0 differs from 0.0)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def random_psd(rng, n):
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return w @ w.conj().T


def random_density(rng, n):
    p = random_psd(rng, n)
    return p / np.trace(p).real


def random_state(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_target_matrix(rng, n):
    """Random PSD unit-trace matrix, usable as a target operator."""
    p = random_psd(rng, n)
    return p / np.trace(p).real


def unot_r_matrix():
    """Inverting-gate target for one copy, built directly as the projector
    onto span{|01>, |10>, (|00> - |11>)/sqrt(2)} scaled by 1/3."""
    e = np.eye(4, dtype=complex)
    phi_minus = (e[:, 0] - e[:, 3]) / np.sqrt(2)
    p = (
        np.outer(e[:, 1], e[:, 1])
        + np.outer(e[:, 2], e[:, 2])
        + np.outer(phi_minus, phi_minus)
    )
    return p / 3


def unot_channel_action(rho):
    """Reference action of the optimal one-copy inverting channel:
    rho -> 1/3 [[2 rho11 + rho00, -rho01], [-rho10, 2 rho00 + rho11]]."""
    rho = np.asarray(rho, dtype=complex)
    return (
        np.array(
            [
                [2 * rho[1, 1] + rho[0, 0], -rho[0, 1]],
                [-rho[1, 0], 2 * rho[0, 0] + rho[1, 1]],
            ]
        )
        / 3
    )


def entangler_b_mixed_state():
    """(|00><00| + |Psi+><Psi+| + |11><11|)/3 built from explicit vectors."""
    e = np.eye(4, dtype=complex)
    psi_plus = (e[:, 1] + e[:, 2]) / np.sqrt(2)
    return (
        np.outer(e[:, 0], e[:, 0])
        + np.outer(psi_plus, psi_plus)
        + np.outer(e[:, 3], e[:, 3])
    ) / 3


# The value rules as numpy formulas, the references that linalg's rules over
# Python floats must match byte for byte.  numpy may warn where the floats do
# not (0 * inf in the cut, a 1/w that overflows to inf), with the same values.


def clip_roots_oracle(w):
    if w.min() < -CLIP_TOL:
        raise NegativeEigenvalueError(f"eigenvalue {w.min():.3e} below -{CLIP_TOL:.1e}")
    return np.sqrt(np.where(w < CLIP_TOL, 0.0, w))


def support_oracle(w, rel_cutoff):
    return w >= max(rel_cutoff * w.max(), np.finfo(float).smallest_subnormal)


def inverse_on_support_oracle(w, rel_cutoff):
    return np.divide(1.0, w, out=np.zeros(len(w)), where=support_oracle(w, rel_cutoff))


def inverse_roots_oracle(w):
    """linalg.inverse_roots: the clip rule, then the pseudo-inverse of the roots at PINV_CUTOFF."""
    roots = clip_roots_oracle(w)
    return roots, inverse_on_support_oracle(roots, PINV_CUTOFF)


def solver_inverse_roots_oracle(w):
    """solver._inverse_roots: inverse_roots_oracle, singular when no inverse is nonzero."""
    roots, inv = inverse_roots_oracle(w)
    if not np.count_nonzero(inv):
        raise SingularLambdaError("Tr_K[R chi R] vanished; cannot continue iterating")
    return roots, inv
