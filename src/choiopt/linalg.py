"""Dense complex linear algebra on small tensor-product spaces.

All operators live on composite spaces indexed as i_first * dim_second +
i_second; every routine in the package assumes this one convention.
Matrices are plain complex128 ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroError,
    DimensionMismatchError,
    NegativeEigenvalueError,
    NonSquareError,
    NotHermitianError,
)

HERMITICITY_TOL = 1e-10  # relative Frobenius bound on the anti-Hermitian part
CLIP_TOL = 1e-12  # psd_sqrt treats eigenvalues below this as round-off zeros


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D array, got shape {a.shape}")
    return a


def hermitian_part(m) -> np.ndarray:
    """(m + m†)/2."""
    m = as_matrix(m)
    return (m + m.conj().T) / 2


def frozen_copy(values) -> np.ndarray:
    """Read-only complex128 copy."""
    a = np.array(values, dtype=np.complex128)
    a.setflags(write=False)
    return a


def _check_square(m: np.ndarray) -> None:
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}")


def _check_hermitian(m: np.ndarray) -> None:
    dev = np.linalg.norm(m - m.conj().T) if np.isfinite(m).all() else np.inf  # m - m† warns on NaN/Inf
    if not dev <= HERMITICITY_TOL * max(1.0, np.linalg.norm(m)) < np.inf:
        raise NotHermitianError(
            f"Hermiticity deviation {dev:.3e} exceeds tolerance {HERMITICITY_TOL:.1e}"
        )


def hermitian_spectrum(m) -> tuple[float, np.ndarray]:
    """Largest entrywise |m - m†| and ascending eigenvalues of the Hermitian
    part of a square m.  A non-finite m reports (inf, NaNs) without reaching
    the eigensolver, so every caller's deviation check rejects it."""
    m = as_matrix(m)
    if not np.isfinite(m).all():
        return float("inf"), np.full(len(m), np.nan)
    return float(np.abs(m - m.conj().T).max()), np.linalg.eigvalsh(hermitian_part(m))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and sorted non-increasing; eigenvectors holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """V diag(w) V†."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def herm_eig(m) -> EigenDecomposition:
    """Full spectral decomposition of the Hermitian part of m.

    Raises NonSquareError / NotHermitianError when m is not square or the
    anti-Hermitian part exceeds HERMITICITY_TOL relative to max(1, ||m||_F).
    LAPACK convergence failures propagate as numpy.linalg.LinAlgError.
    """
    m = as_matrix(m)
    _check_square(m)
    _check_hermitian(m)
    w, v = np.linalg.eigh(hermitian_part(m))
    return EigenDecomposition(w[::-1].copy(), v[:, ::-1].copy())


def psd_sqrt(m) -> np.ndarray:
    """Positive-semidefinite Hermitian square root.

    Eigenvalues below CLIP_TOL are treated as exact zeros (round-off guard);
    an eigenvalue below -CLIP_TOL raises NegativeEigenvalueError.
    """
    eig = herm_eig(m)
    w = eig.eigenvalues
    if w.min() < -CLIP_TOL:
        raise NegativeEigenvalueError(f"eigenvalue {w.min():.3e} below -{CLIP_TOL:.1e}")
    roots = np.sqrt(np.where(w < CLIP_TOL, 0.0, w))
    return EigenDecomposition(roots, eig.eigenvectors).reconstruct()


def reg_inverse(m, rel_cutoff: float = 1e-12) -> np.ndarray:
    """Hermitian pseudo-inverse with a relative eigenvalue cutoff.

    Eigenvalues w >= rel_cutoff * w_max are inverted, the rest map to zero,
    which keeps the result well-defined on the support of m.
    """
    eig = herm_eig(m)
    w = eig.eigenvalues
    wmax = w.max(initial=0.0)
    if wmax <= 0.0:
        raise AllZeroError("no positive eigenvalue to invert")
    keep = (w >= rel_cutoff * wmax) & (w > 0.0)
    winv = np.zeros_like(w)
    winv[keep] = 1.0 / w[keep]
    return EigenDecomposition(winv, eig.eigenvectors).reconstruct()


def kron(a, b) -> np.ndarray:
    """Tensor product with composite row index i_a * rows(b) + i_b."""
    return np.kron(as_matrix(a), as_matrix(b))


def _split(m, dim_first: int, dim_second: int) -> np.ndarray:
    m = as_matrix(m)
    n = dim_first * dim_second
    if m.shape != (n, n):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not factor as ({dim_first}x{dim_second})^2"
        )
    return m.reshape(dim_first, dim_second, dim_first, dim_second)


def partial_trace(m, dim_first: int, dim_second: int, keep: str = "first") -> np.ndarray:
    """Trace out one tensor factor of an operator on a bipartite space."""
    t = _split(m, dim_first, dim_second)
    if keep == "first":
        return np.einsum("akbk->ab", t)
    if keep == "second":
        return np.einsum("akal->kl", t)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def partial_transpose(m, dim_first: int, dim_second: int, which: str = "second") -> np.ndarray:
    """Transpose the indices of one tensor factor only."""
    t = _split(m, dim_first, dim_second)
    n = dim_first * dim_second
    if which == "first":
        return t.transpose(2, 1, 0, 3).reshape(n, n)
    if which == "second":
        return t.transpose(0, 3, 2, 1).reshape(n, n)
    raise ValueError(f"which must be 'first' or 'second', got {which!r}")
