"""Process matrices of channels, their admissibility rule, and their Kraus and
isometry forms.  A channel E from H = C^dim_in to K = C^dim_out is its process
matrix chi = sum_{j,k} |j><k| (x) E(|j><k|), input factor first, so that
E(rho) = Tr_H[chi (rho^T (x) 1_K)] and trace preservation reads Tr_K[chi] = 1_H.
README's "Numerical conventions" give the rules and the block layout.
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
from .linalg import PSD_TOL

TP_TOL = 1e-9
KRAUS_CUTOFF = 1e-10  # kraus_from_choi's default support cutoff (linalg.support)


@dataclass(frozen=True, eq=False)
class ChoiOperator:
    """Process matrix of a channel with its input and output dims, held as a
    read-only complex128 copy; DimensionMismatchError unless the dims are
    counts that fit the matrix.  Compares and hashes by identity."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray
    _stack = (None, None)  # (plan, blocks) carried by an iterate of the block step (_frozen)

    def __post_init__(self):
        m = operator_matrix(self.matrix, self.dim_in, self.dim_out, "process matrix")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _frozen(cls, dim_in: int, dim_out: int, matrix: np.ndarray | None, stack=None) -> ChoiOperator:
        """The operator of a fresh complex128 (dim_in dim_out)^2 array that nothing
        else holds, made read-only in place, with no check and no copy.  stack
        is None or (plan, blocks), carried read-only, with the matrix exactly
        plan.scatter(blocks); with a stack, matrix may be None, and is then
        scattered on its first read."""
        chi = object.__new__(cls)
        chi.__dict__.update(dim_in=dim_in, dim_out=dim_out)
        if matrix is not None:
            matrix.setflags(write=False)
            chi.__dict__["matrix"] = matrix
        if stack is not None:
            stack[1].setflags(write=False)
            chi.__dict__["_stack"] = stack
        return chi


class _ScatteredOnFirstRead:
    """ChoiOperator.matrix of an operator made from a stack only: the stack
    scattered, frozen and kept in the operator.  It has no __set__, so an
    operator that holds its matrix never calls it."""

    def __get__(self, chi, owner=None):
        plan, blocks = chi._stack
        chi.__dict__["matrix"] = matrix = plan.scatter(blocks)
        matrix.setflags(write=False)
        return matrix


ChoiOperator.matrix = _ScatteredOnFirstRead()


def require_dims(dim_in, dim_out) -> None:
    """Raise DimensionMismatchError unless both dims pass the count rule (linalg.is_count)."""
    if not (linalg.is_count(dim_in) and linalg.is_count(dim_out)):
        raise DimensionMismatchError(f"dimensions must be integers >= 1, got ({dim_in!r}, {dim_out!r})")


def operator_matrix(m, dim_in, dim_out, what: str) -> np.ndarray:
    """Read-only copy of m, an operator on C^dim_in (x) C^dim_out; raises
    DimensionMismatchError unless both dims pass require_dims and fit m."""
    require_dims(dim_in, dim_out)
    m = linalg.as_matrix(m)
    if m.shape != (dim_in * dim_out,) * 2:
        raise DimensionMismatchError(f"{what} shape {m.shape} does not match dims ({dim_in},{dim_out})")
    return linalg.frozen_copy(m)


def require_same_dims(a, b, what_a: str, what_b: str) -> None:
    """Raise DimensionMismatchError unless a and b have equal (dim_in, dim_out)."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise DimensionMismatchError(
            f"{what_a} dims ({a.dim_in},{a.dim_out}) != {what_b} dims ({b.dim_in},{b.dim_out})"
        )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD matrix with unit trace; compares and hashes by identity."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise InvalidDensityError(f"density matrix is {m.shape[0]}x{m.shape[1]}")
        require_admissible(m, 1, len(m), InvalidDensityError)
        object.__setattr__(self, "matrix", linalg.frozen_copy(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def density_from_state(psi) -> DensityMatrix:
    """|psi><psi| for a unit-norm state vector."""
    v = np.asarray(psi, dtype=np.complex128).ravel()
    return DensityMatrix(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Kraus operators A_l (dim_out x dim_in) with their process-matrix eigenvalues,
    one finite real weight per operator (else ValueError).  The operators may
    be non-finite; dilation rejects such a set.  Compares and hashes by identity."""

    dim_in: int
    dim_out: int
    operators: tuple
    weights: np.ndarray

    def __post_init__(self):
        require_dims(self.dim_in, self.dim_out)
        operators = tuple(linalg.frozen_copy(a) for a in self.operators)
        if any(a.shape != (self.dim_out, self.dim_in) for a in operators):
            raise DimensionMismatchError(f"Kraus operators must be {self.dim_out}x{self.dim_in}")
        object.__setattr__(self, "operators", operators)
        weights = np.asarray(self.weights)
        if weights.shape != (len(operators),) or weights.dtype.kind not in "iuf" or not np.isfinite(weights).all():
            raise ValueError(f"Kraus weights must be one finite real number per operator, got {self.weights!r}")
        frozen = np.array(weights, dtype=float)
        frozen.setflags(write=False)
        object.__setattr__(self, "weights", frozen)


@dataclass(frozen=True)
class ChoiReport:
    """Deviations of a process matrix from the channel constraints; a target or
    a density matrix is measured as the dim_in = 1 case (unit trace)."""

    min_eigenvalue: float
    trace_preservation_deviation: float
    hermiticity_deviation: float


def measure_admissibility(m, dim_in: int, dim_out: int) -> tuple[ChoiReport, np.ndarray]:
    """ChoiReport of m on C^dim_in (x) C^dim_out, and its ascending eigenvalues."""
    herm_dev, w = linalg.hermitian_spectrum(m)
    marg = linalg.partial_trace(m, dim_in, dim_out, keep="first")
    tp_dev = float(np.abs(marg - np.eye(dim_in)).max())
    return ChoiReport(float(w.min()), tp_dev, herm_dev), w


def _require_report(report: ChoiReport, error: type) -> None:
    """The admissibility rule: raise error unless the report's operator is
    Hermitian and positive within PSD_TOL and meets its trace condition
    within TP_TOL.  require_admissible and require_valid_choi's block
    measurement both raise through it."""
    linalg.require_hermitian(report.hermiticity_deviation, error)  # a non-finite m reports inf
    if report.min_eigenvalue < -PSD_TOL:
        raise error(f"minimum eigenvalue {report.min_eigenvalue:.3e} below -{PSD_TOL:.1e}")
    if report.trace_preservation_deviation > TP_TOL:
        raise error(f"trace deviation {report.trace_preservation_deviation:.3e} exceeds {TP_TOL:.1e}")


def require_admissible(m, dim_in: int, dim_out: int, error: type) -> np.ndarray:
    """Raise error unless m passes the admissibility rule (_require_report);
    return its ascending eigenvalues."""
    report, w = measure_admissibility(m, dim_in, dim_out)
    _require_report(report, error)
    return w


def validate_choi(chi: ChoiOperator) -> ChoiReport:
    """measure_admissibility of chi, which measures targets and states too; the
    caller decides pass/fail."""
    return measure_admissibility(chi.matrix, chi.dim_in, chi.dim_out)[0]


def require_valid_choi(chi: ChoiOperator) -> None:
    """Raise InvalidChoiError when chi is not finite or violates the channel
    constraints.  A chi that carries its (B, s, s) stack is measured on its
    blocks, without its matrix: the same error with the same message for the
    same fault, and the padding's zero eigenvalues never fail the rule."""
    plan, blocks = chi._stack
    if plan is None:
        require_admissible(chi.matrix, chi.dim_in, chi.dim_out, InvalidChoiError)
        return
    dev, w = linalg.hermitian_spectrum(blocks)
    diag = blocks.diagonal(axis1=1, axis2=2).ravel()
    re, im = (np.bincount(plan.inputs.ravel(), part, chi.dim_in) for part in (diag.real, diag.imag))
    _require_report(ChoiReport(float(w.min()), float(np.hypot(re - 1.0, im).max()), dev), InvalidChoiError)


def identity_choi(dim: int) -> ChoiOperator:
    """Process matrix of the identity channel: the projector on sum_j |j>|j>."""
    require_dims(dim, dim)
    v = np.eye(dim).ravel()
    return ChoiOperator(dim, dim, np.outer(v, v))


def maxmix_choi(dim_in: int, dim_out: int) -> ChoiOperator:
    """Channel sending every input to the maximally mixed output state: chi = 1_{dim_in dim_out} / dim_out."""
    require_dims(dim_in, dim_out)
    return ChoiOperator(dim_in, dim_out, np.eye(dim_in * dim_out) / dim_out)


def apply_matrix(chi: ChoiOperator, x) -> np.ndarray:
    """Linear action E(X)_kl = sum_ab chi[(a,k),(b,l)] X[a,b] on any dim_in x dim_in X."""
    x = linalg.as_matrix(x)
    if x.shape != (chi.dim_in, chi.dim_in):
        raise DimensionMismatchError(
            f"input shape {x.shape} does not match channel input dimension {chi.dim_in}"
        )
    d, k = chi.dim_in, chi.dim_out
    return np.einsum("akbl,ab->kl", chi.matrix.reshape(d, k, d, k), x)


def apply(chi: ChoiOperator, rho: DensityMatrix) -> DensityMatrix:
    """Channel output state E(rho) = Tr_H[chi (rho^T (x) 1_K)]."""
    require_valid_choi(chi)
    if rho.dim != chi.dim_in:
        raise DimensionMismatchError(f"state dim {rho.dim} != channel input dim {chi.dim_in}")
    return DensityMatrix(linalg.hermitian_part(apply_matrix(chi, rho.matrix)))


def fidelity(chi: ChoiOperator, target) -> float:
    """Mean fidelity, the real part of Tr[chi R], against a target with chi's
    dims or a raw array of chi's shape (else DimensionMismatchError), summed
    over the target's blocks where it has a plan.  InvalidChoiError for an
    imaginary part above PSD_TOL when chi or R fails the Hermiticity rule."""
    r = target.matrix if hasattr(target, "matrix") else linalg.as_matrix(target)
    if hasattr(target, "dim_in"):
        require_same_dims(chi, target, "channel", "target")
    elif r.shape != chi.matrix.shape:
        raise DimensionMismatchError(f"target shape {r.shape} != process shape {chi.matrix.shape}")
    plan = getattr(target, "blocks", None)
    if plan is None:
        value = np.einsum("ij,ji->", chi.matrix, r)  # Tr[chi R] without forming chi R
    else:
        carried, stack = chi._stack
        value = (stack if carried is plan else plan.gather(chi.matrix)).ravel() @ plan.overlap
    if abs(value.imag) > PSD_TOL:  # admissible chi and R can leave up to ~PSD_TOL * n * dim_in
        dev = max(linalg.hermiticity_deviation(chi.matrix), linalg.hermiticity_deviation(r))
        linalg.require_hermitian(dev, InvalidChoiError, f"fidelity has imaginary part {value.imag:.3e}")
    return float(value.real)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    # Make the largest-magnitude entry real positive so outputs are deterministic;
    # v is a unit eigenvector, so that entry is at least 1/sqrt(len(v)) in size.
    pivot = v[int(np.argmax(np.abs(v)))]
    return v * (pivot.conjugate() / abs(pivot))


def kraus_from_choi(chi: ChoiOperator, cutoff: float = KRAUS_CUTOFF) -> KrausSet:
    """Kraus operators from the spectral decomposition of the process matrix.

    The eigenpairs (r_l, pi_l) that the support rule keeps at cutoff
    (relative to the largest r_l) yield A_l[k, i] = sqrt(r_l) <i, k | pi_l>,
    largest r_l first; eigenvector phases are fixed for reproducibility.
    """
    linalg.require_cutoff(cutoff)
    require_valid_choi(chi)
    w, v = np.linalg.eigh(linalg.hermitian_part(chi.matrix))
    keep = np.flatnonzero(linalg.support(w, cutoff))[::-1]
    # pi_l[(i, k)] is laid out input-factor first; A_l maps H -> K.
    operators = tuple(np.sqrt(w[l]) * _fix_phase(v[:, l]).reshape(chi.dim_in, chi.dim_out).T for l in keep)
    return KrausSet(chi.dim_in, chi.dim_out, operators, w[keep])


def _kraus_stack(kraus: KrausSet) -> np.ndarray:
    """The operators as one (L, dim_out, dim_in) array; an empty set gives L = 0."""
    return np.reshape(kraus.operators, (-1, kraus.dim_out, kraus.dim_in))


def choi_from_kraus(kraus: KrausSet) -> ChoiOperator:
    """chi = sum_l w_l w_l† = W^T conj(W), where row l of W is w_l = vec(A_l^T)."""
    w = _kraus_stack(kraus).transpose(0, 2, 1).reshape(-1, kraus.dim_in * kraus.dim_out)
    return ChoiOperator(kraus.dim_in, kraus.dim_out, w.T @ w.conj())


def kraus_trace_deviation(kraus: KrausSet) -> float:
    """Max entrywise deviation of sum_l A_l† A_l from the identity."""
    ops = _kraus_stack(kraus)
    acc = np.einsum("lki,lkj->ij", ops.conj(), ops)
    return float(np.abs(acc - np.eye(kraus.dim_in)).max())


def dilation(kraus: KrausSet) -> np.ndarray:
    """Isometry on a C*dim_out space implementing the channel unitarily.

    Column i holds the amplitudes A_l[k, i] at composite row k*C + l, so the
    channel is a unitary into output (x) ancilla followed by discarding the
    ancilla.  Columns are orthonormal when the Kraus set resolves the
    identity; any other set, a non-finite one too, raises TraceConditionError.
    """
    dev = kraus_trace_deviation(kraus)
    if not dev <= TP_TOL:  # a NaN deviation fails too
        raise TraceConditionError(f"sum A†A deviates from identity by {dev:.3e}")
    return _kraus_stack(kraus).transpose(1, 0, 2).reshape(-1, kraus.dim_in)  # (l, k, i) -> (k, l, i)
