"""Process matrices for trace-preserving CP maps and their Kraus/isometry forms.

A channel E from a dim_in space H to a dim_out space K is carried by its
process (Choi) matrix chi on H (x) K, input factor first:

    chi = sum_{j,k} |j><k|  (x)  E(|j><k|),

built from the unnormalized maximally entangled vector sum_j |j>|j>.  With
this convention E(rho) = Tr_H[chi (rho^T (x) 1_K)] and trace preservation
reads Tr_K[chi] = 1_H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvalidChoiError,
    InvalidDensityError,
    TraceConditionError,
)

PSD_TOL = 1e-10
TP_TOL = 1e-9
KRAUS_CUTOFF = 1e-10


@dataclass(frozen=True)
class ChoiOperator:
    """Process matrix of a channel, with its input/output dimensions."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim_in < 1 or self.dim_out < 1:
            raise DimensionMismatchError("dimensions must be >= 1")
        m = linalg.as_matrix(self.matrix)
        n = self.dim_in * self.dim_out
        if m.shape != (n, n):
            raise DimensionMismatchError(
                f"process matrix shape {m.shape} does not match dims ({self.dim_in},{self.dim_out})"
            )
        object.__setattr__(self, "matrix", linalg.frozen_copy(m))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD matrix with unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise InvalidDensityError(f"density matrix is {m.shape[0]}x{m.shape[1]}")
        herm_dev, w = linalg.hermitian_spectrum(m)
        if herm_dev > PSD_TOL:
            raise InvalidDensityError(f"density matrix is not Hermitian within {PSD_TOL:.1e}")
        if abs(np.trace(m).real - 1.0) > PSD_TOL or abs(np.trace(m).imag) > PSD_TOL:
            raise InvalidDensityError(f"trace {np.trace(m):.12g} is not 1 within {PSD_TOL:.1e}")
        if w.min() < -PSD_TOL:
            raise InvalidDensityError(f"minimum eigenvalue {w.min():.3e} below -{PSD_TOL:.1e}")
        object.__setattr__(self, "matrix", linalg.frozen_copy(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def density_from_state(psi) -> DensityMatrix:
    """|psi><psi| for a unit-norm state vector."""
    v = np.asarray(psi, dtype=np.complex128).ravel()
    return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators A_l (dim_out x dim_in) with their process-matrix eigenvalues."""

    dim_in: int
    dim_out: int
    operators: tuple
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(linalg.frozen_copy(a) for a in self.operators))
        frozen = np.array(self.weights, dtype=float)
        frozen.setflags(write=False)
        object.__setattr__(self, "weights", frozen)


@dataclass(frozen=True)
class ChoiReport:
    """Deviations of a candidate process matrix from the channel constraints."""

    min_eigenvalue: float
    trace_preservation_deviation: float
    hermiticity_deviation: float

    def within(self, tol: float) -> bool:
        """True when positivity and trace preservation hold up to tol."""
        return (
            self.min_eigenvalue >= -tol
            and self.trace_preservation_deviation <= tol
            and self.hermiticity_deviation <= tol
        )


def validate_choi(chi: ChoiOperator) -> ChoiReport:
    """Measure constraint violations; the caller decides pass/fail."""
    herm_dev, w = linalg.hermitian_spectrum(chi.matrix)
    marg = linalg.partial_trace(chi.matrix, chi.dim_in, chi.dim_out, keep="first")
    tp_dev = float(np.abs(marg - np.eye(chi.dim_in)).max())
    return ChoiReport(float(w.min()), tp_dev, herm_dev)


def require_valid_choi(chi: ChoiOperator) -> None:
    """Raise InvalidChoiError when chi is not finite or violates the channel constraints."""
    report = validate_choi(chi)
    if report.hermiticity_deviation > PSD_TOL:
        raise InvalidChoiError(
            f"hermiticity deviation {report.hermiticity_deviation:.3e} exceeds {PSD_TOL:.1e}"
        )
    if report.min_eigenvalue < -PSD_TOL:
        raise InvalidChoiError(
            f"minimum eigenvalue {report.min_eigenvalue:.3e} below -{PSD_TOL:.1e}"
        )
    if report.trace_preservation_deviation > TP_TOL:
        raise InvalidChoiError(
            f"trace-preservation deviation {report.trace_preservation_deviation:.3e} "
            f"exceeds {TP_TOL:.1e}"
        )


def identity_choi(dim: int) -> ChoiOperator:
    """Process matrix of the identity channel: the projector on sum_j |j>|j>."""
    v = np.zeros(dim * dim, dtype=np.complex128)
    v[:: dim + 1] = 1.0
    return ChoiOperator(dim, dim, np.outer(v, v.conj()))


def maxmix_choi(dim_in: int, dim_out: int) -> ChoiOperator:
    """Channel sending every input to the maximally mixed output state."""
    return ChoiOperator(dim_in, dim_out, linalg.kron(np.eye(dim_in), np.eye(dim_out) / dim_out))


def apply_matrix(chi: ChoiOperator, x) -> np.ndarray:
    """Linear action of the channel on an arbitrary dim_in x dim_in matrix."""
    x = linalg.as_matrix(x)
    if x.shape != (chi.dim_in, chi.dim_in):
        raise DimensionMismatchError(
            f"input shape {x.shape} does not match channel input dimension {chi.dim_in}"
        )
    # rho^T (x) 1 is formed explicitly; dimensions here never exceed ~12.
    lifted = linalg.kron(x.T, np.eye(chi.dim_out))
    return linalg.partial_trace(chi.matrix @ lifted, chi.dim_in, chi.dim_out, keep="second")


def apply(chi: ChoiOperator, rho: DensityMatrix) -> DensityMatrix:
    """Channel output state E(rho) = Tr_H[chi (rho^T (x) 1_K)]."""
    require_valid_choi(chi)
    if rho.dim != chi.dim_in:
        raise DimensionMismatchError(f"state dim {rho.dim} != channel input dim {chi.dim_in}")
    return DensityMatrix(linalg.hermitian_part(apply_matrix(chi, rho.matrix)))


def fidelity(chi: ChoiOperator, target) -> float:
    """Mean fidelity Tr[chi R] of the channel against a target operator."""
    r = target.matrix if hasattr(target, "matrix") else linalg.as_matrix(target)
    if r.shape != chi.matrix.shape:
        raise DimensionMismatchError(f"target shape {r.shape} != process shape {chi.matrix.shape}")
    value = np.einsum("ij,ji->", chi.matrix, r)  # Tr[chi R] without forming chi R
    if abs(value.imag) > PSD_TOL:
        raise InvalidChoiError(f"fidelity has imaginary part {value.imag:.3e}")
    return float(value.real)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    # Make the largest-magnitude entry real positive so outputs are deterministic;
    # v is a unit eigenvector, so that entry is at least 1/sqrt(len(v)) in size.
    pivot = v[int(np.argmax(np.abs(v)))]
    return v * (pivot.conjugate() / abs(pivot))


def kraus_from_choi(chi: ChoiOperator, cutoff: float = KRAUS_CUTOFF) -> KrausSet:
    """Kraus operators from the spectral decomposition of the process matrix.

    Eigenpairs (r_l, pi_l) with r_l above cutoff (relative to the largest
    eigenvalue) yield A_l[k, i] = sqrt(r_l) <i, k | pi_l>.  Eigenvector phases
    are fixed for reproducibility.
    """
    require_valid_choi(chi)
    eig = linalg.herm_eig(chi.matrix)
    w, v = eig.eigenvalues, eig.eigenvectors
    wmax = w.max(initial=0.0)
    operators = []
    weights = []
    for l in range(len(w)):
        if w[l] <= cutoff * wmax or w[l] <= 0.0:
            continue
        vec = _fix_phase(v[:, l])
        # vec[(i, k)] laid out input-factor first; A_l maps H -> K.
        a = np.sqrt(w[l]) * vec.reshape(chi.dim_in, chi.dim_out).T
        operators.append(a)
        weights.append(float(w[l]))
    return KrausSet(chi.dim_in, chi.dim_out, tuple(operators), np.array(weights))


def choi_from_kraus(kraus: KrausSet) -> ChoiOperator:
    """Rebuild the process matrix chi = sum_l w_l w_l† with w_l = vec(A_l^T)."""
    n = kraus.dim_in * kraus.dim_out
    m = np.zeros((n, n), dtype=np.complex128)
    for a in kraus.operators:
        w = np.asarray(a, dtype=np.complex128).T.reshape(-1)
        m += np.outer(w, w.conj())
    return ChoiOperator(kraus.dim_in, kraus.dim_out, m)


def kraus_trace_deviation(kraus: KrausSet) -> float:
    """Max entrywise deviation of sum_l A_l† A_l from the identity."""
    acc = np.zeros((kraus.dim_in, kraus.dim_in), dtype=np.complex128)
    for a in kraus.operators:
        acc += a.conj().T @ a
    return float(np.abs(acc - np.eye(kraus.dim_in)).max())


def dilation(kraus: KrausSet) -> np.ndarray:
    """Isometry on a C*dim_out space implementing the channel unitarily.

    Column i holds the amplitudes A_l[k, i] at composite row k*C + l, so the
    channel is a unitary into output (x) ancilla followed by discarding the
    ancilla.  Columns are orthonormal exactly when the Kraus set resolves the
    identity.
    """
    dev = kraus_trace_deviation(kraus)
    if dev > TP_TOL:
        raise TraceConditionError(f"sum A†A deviates from identity by {dev:.3e}")
    c = len(kraus.operators)
    stacked = np.stack(kraus.operators)  # (l, k, i)
    return stacked.transpose(1, 0, 2).reshape(c * kraus.dim_out, kraus.dim_in)
