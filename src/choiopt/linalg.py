"""Dense complex128 linear algebra on composite spaces indexed
i_first * dim_second + i_second, and the package's value rules, each written
once here: Hermiticity, the clip and support rules for zero eigenvalues, and
the count, real, seed and cutoff rules (README's "Numerical conventions").
The clip and support rules loop over a spectrum's Python floats, not numpy
calls: the solver's spectra have d <= 31 entries, where a numpy call's fixed
cost of about 1 us outweighs the loop.
herm_eig, psd_sqrt, reg_inverse and EigenDecomposition are public utilities
no other module calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroError,
    DimensionMismatchError,
    NegativeEigenvalueError,
    NonSquareError,
    NotHermitianError,
)

PSD_TOL = 1e-10  # entrywise Hermiticity and eigenvalue-negativity bound
CLIP_TOL = 1e-12  # clip_roots: eigenvalues below this are round-off zeros
PINV_CUTOFF = 1e-12  # support cutoff, relative to the largest, of every pseudo-inverse
_SMALLEST_POSITIVE = float(np.finfo(float).smallest_subnormal)


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D array, got shape {a.shape}")
    return a


def _matrices(m) -> np.ndarray:
    """A 3-D m as a complex128 stack of matrices, any other m through as_matrix."""
    return np.asarray(m, dtype=np.complex128) if np.ndim(m) == 3 else as_matrix(m)


def hermitian_part(m) -> np.ndarray:
    """(m + m†)/2, of each matrix of a stack too."""
    m = _matrices(m)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def frozen_copy(values) -> np.ndarray:
    """Read-only complex128 copy."""
    a = np.array(values, dtype=np.complex128)
    a.setflags(write=False)
    return a


def hermiticity_deviation(m) -> float:
    """Largest entrywise |m - m†| of a square m, or over a stack of them; inf
    for a non-finite m."""
    m = _matrices(m)  # m - m† would warn on NaN/Inf
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max()) if np.isfinite(m).all() else float("inf")


def require_hermitian(dev: float, error: type = NotHermitianError, what: str = "not Hermitian") -> None:
    """Raise error, its message led by what, when dev exceeds PSD_TOL."""
    if dev > PSD_TOL:
        raise error(f"{what}: hermiticity deviation {dev:.3e} exceeds {PSD_TOL:.1e}")


def is_natural(x) -> bool:
    """A Python or numpy integer >= 0, not a bool (a seed or a degree)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0


def is_count(x) -> bool:
    """The count rule: a Python or numpy integer >= 1, not a bool (a dimension or a count)."""
    return is_natural(x) and x >= 1


def is_real(x) -> bool:
    """The real-number rule: a Python or numpy integer or float, not a bool; NaN and inf pass."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _shown(x) -> str:
    """x as a refusal message quotes it: a real as str (0.5, not np.float64(0.5)),
    anything that fails is_real as repr ('1e-3', not 1e-3)."""
    return str(x) if is_real(x) else repr(x)


def require_seed(seed) -> None:
    """The seed rule: raise ValueError unless seed passes is_natural."""
    if not is_natural(seed):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def hermitian_spectrum(m) -> tuple[float, np.ndarray]:
    """hermiticity_deviation and ascending eigenvalues of the Hermitian part of
    a square m, or of each matrix of a stack in one eigvalsh; a non-finite m
    gets NaNs without reaching the eigensolver."""
    m = _matrices(m)
    dev = hermiticity_deviation(m)
    return dev, np.full(m.shape[:-1], np.nan) if dev == np.inf else np.linalg.eigvalsh(hermitian_part(m))


def _has_nan(ws: list) -> bool:
    """Whether any of the floats ws is NaN.  numpy's min and max return NaN then,
    the builtin ones skip a NaN that is not first; the exact test runs only
    when the sum is NaN, which a NaN forces."""
    total = sum(ws)
    return total != total and any(x != x for x in ws)


def support_cut(top: float, rel_cutoff: float) -> float:
    """The support rule's threshold below the largest value top (NaN keeps
    nothing).  A value passes by one comparison, >= the cut: no double lies
    strictly between 0 and the smallest subnormal, so it is also > 0."""
    return max(rel_cutoff * top, _SMALLEST_POSITIVE)


def clip_roots(w: np.ndarray) -> np.ndarray:
    """The clip rule: square roots of a PSD operator's eigenvalues w, in w's
    order.  Those below CLIP_TOL count as zeros; an eigenvalue below -CLIP_TOL
    raises NegativeEigenvalueError, unless one is NaN."""
    ws = w.tolist()
    low = min(ws)
    if low < -CLIP_TOL and not _has_nan(ws):
        raise NegativeEigenvalueError(f"eigenvalue {low:.3e} below -{CLIP_TOL:.1e}")
    return np.array([0.0 if x < CLIP_TOL else math.sqrt(x) for x in ws], dtype=float)


def _cut(ws: list, rel_cutoff: float) -> float:
    """support_cut below the largest of the floats ws, read as numpy reads it: NaN when one is NaN."""
    return math.nan if _has_nan(ws) else support_cut(max(ws), rel_cutoff)


def support(w: np.ndarray, rel_cutoff: float) -> np.ndarray:
    """The support rule: mask of the eigenvalues w, in any order, that are > 0
    and >= rel_cutoff * max(w); none when one is NaN."""
    ws = w.tolist()
    cut = _cut(ws, rel_cutoff)
    return np.array([x >= cut for x in ws], dtype=bool)


def inverse_on_support(w: np.ndarray, rel_cutoff: float) -> np.ndarray:
    """The pseudo-inverse rule: 1/w on support(w, rel_cutoff), 0 elsewhere, in w's order."""
    ws = w.tolist()
    cut = _cut(ws, rel_cutoff)
    return np.array([1.0 / x if x >= cut else 0.0 for x in ws], dtype=float)


def inverse_roots(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """clip_roots(w) and inverse_on_support of those roots at PINV_CUTOFF, bit
    for bit, in one pass over w's floats: sqrt is monotone, so the largest
    root is the root of the largest eigenvalue.  A NaN or an eigenvalue below
    -CLIP_TOL sends w through the two rules in turn."""
    ws = w.tolist()
    n, top = len(ws), max(ws)
    clip, sqrt = CLIP_TOL, math.sqrt
    cut = support_cut(sqrt(top) if top >= clip else 0.0, PINV_CUTOFF)
    both = [0.0] * (2 * n)  # the roots, then their inverses
    i = n
    for x in ws:
        if x >= clip:
            root = both[i - n] = sqrt(x)
            if root >= cut:
                both[i] = 1.0 / root
        elif not x >= -clip:
            roots = clip_roots(w)
            return roots, inverse_on_support(roots, PINV_CUTOFF)
        i += 1
    both = np.array(both, dtype=float)
    return both[:n], both[n:]


def require_cutoff(rel_cutoff: float) -> None:
    """Raise ValueError unless rel_cutoff, a fraction of the largest eigenvalue, passes
    is_real and lies in [0, 1]; support, which runs on every solver step, does not check it."""
    if is_real(rel_cutoff) and np.isnan(rel_cutoff):
        raise ValueError("cutoff must not be NaN")
    if not (is_real(rel_cutoff) and 0.0 <= rel_cutoff <= 1.0):
        raise ValueError(f"cutoff must be in [0, 1], got {_shown(rel_cutoff)}")


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and sorted non-increasing; eigenvectors holds the
    matching orthonormal eigenvectors as columns.  Compares and hashes by
    identity.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """V diag(w) V†."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def herm_eig(m) -> EigenDecomposition:
    """Spectral decomposition of the Hermitian part of m: NonSquareError for a
    non-square m, NotHermitianError past the Hermiticity rule, and LAPACK
    failures as numpy.linalg.LinAlgError."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}")
    require_hermitian(hermiticity_deviation(m))
    w, v = np.linalg.eigh(hermitian_part(m))
    return EigenDecomposition(w[::-1].copy(), v[:, ::-1].copy())


def psd_sqrt(m) -> np.ndarray:
    """Positive-semidefinite Hermitian square root by the clip rule: an
    eigenvalue below -CLIP_TOL raises NegativeEigenvalueError."""
    eig = herm_eig(m)
    return EigenDecomposition(clip_roots(eig.eigenvalues), eig.eigenvectors).reconstruct()


def reg_inverse(m, rel_cutoff: float = PINV_CUTOFF) -> np.ndarray:
    """Hermitian pseudo-inverse: eigenvalues in the support of m (the support
    rule at rel_cutoff in [0, 1]) are inverted, the rest map to zero."""
    require_cutoff(rel_cutoff)
    eig = herm_eig(m)
    if eig.eigenvalues.max() <= 0.0:
        raise AllZeroError("no positive eigenvalue to invert")
    return EigenDecomposition(inverse_on_support(eig.eigenvalues, rel_cutoff), eig.eigenvectors).reconstruct()


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
