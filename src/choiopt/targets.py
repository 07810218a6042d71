"""Target operators R = integral (psi_in psi_in†)^T (x) psi_out psi_out† over
the uniform sphere measure, so that a channel's mean fidelity over a state
family is Tr[chi R]; R's block plan; and the sphere averages that build R.
README's "Library" and "Numerical conventions" give the sampling, the
state-family contract and the block step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from typing import Callable

import numpy as np

from . import linalg
from .channels import operator_matrix, require_admissible, require_dims
from .errors import DimensionMismatchError, InvalidChoiError, NormViolationError

NORM_TOL = 1e-12
# Samples per slice of every sphere average: large enough for the matrix
# products to run at BLAS speed, small enough that the per-slice rows and
# BLAS's packing buffers stay a fraction of a megabyte per output dimension.
SAMPLE_BLOCK = 4096
# Floors chosen so the theta rule is converged to rounding for every built-in
# family (trigonometric integrands are resolved long before 32 nodes, and the
# entangler-A integrand, rational in cos(theta), decays geometrically).
MIN_THETA_NODES = 32
MIN_PHI_NODES = 8
# Block structures kept by _block_structure, one per zero pattern: a scan over
# one family's parameter reuses one, and each is a few integer arrays of B s^2 entries.
STRUCTURES = 32


@dataclass(frozen=True)
class StateFamily:
    """Pure-state transformation over the Bloch sphere: evaluator maps angles
    (theta in [0, pi], phi in [0, 2pi)) to unit input and output vectors of
    lengths dim_in and dim_out (evaluate_family), and trig_degree, the
    integrand's total trigonometric degree, sizes the quadrature.  Bad dims
    raise DimensionMismatchError when built, and a trig_degree that is a bool
    or not an integer >= 0 ValueError."""

    dim_in: int
    dim_out: int
    evaluator: Callable
    trig_degree: int

    def __post_init__(self):
        require_dims(self.dim_in, self.dim_out)
        if not linalg.is_natural(self.trig_degree):
            raise ValueError(f"trig_degree must be an integer >= 0, got {self.trig_degree!r}")


@dataclass(frozen=True, eq=False)
class TargetOperator:
    """Positive unit-trace operator on input (x) output whose overlap with a
    process matrix is the mean fidelity; lambda_max is its largest eigenvalue.
    dual, when given, is a diagonal y of the dual SDP min Tr Y s.t.
    Y (x) 1_K >= R, stored read-only as dim_in finite floats (else
    DimensionMismatchError for its shape, InvalidChoiError for its values);
    the dual endgame takes it in place of its barrier, and no JSON file
    carries it.
    Compares and hashes by identity."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray
    dual: np.ndarray | None = field(default=None, kw_only=True)
    lambda_max: float = field(init=False)

    def __post_init__(self):
        m = operator_matrix(self.matrix, self.dim_in, self.dim_out, "target")
        w = require_admissible(m, 1, len(m), InvalidChoiError)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "lambda_max", float(w.max()))
        if self.dual is not None:
            y = np.asarray(self.dual)
            if y.shape != (self.dim_in,):
                raise DimensionMismatchError(f"target dual shape {y.shape} does not match dim_in {self.dim_in}")
            if y.dtype.kind not in "iuf" or not np.isfinite(y).all():
                raise InvalidChoiError(f"target dual must be real and finite, got {y.tolist()!r}")
            y = y.astype(np.float64)  # a copy
            y.setflags(write=False)
            object.__setattr__(self, "dual", y)

    @cached_property
    def blocks(self) -> BlockPlan | None:
        """R's block plan (see block_plan), computed on first use."""
        return block_plan(self.matrix, self.dim_in, self.dim_out)


@dataclass(frozen=True, eq=False)
class BlockPlan:
    """R's blocks, the connected components of R != 0, padded to a stack of B
    blocks of s indices, s the largest component's size.

    labels[i] is the smallest index in i's component.  flat[b, p, q] is the
    flat index into an n x n matrix of the entry pairing positions p and q of
    block b, n^2 where either is padding (pad).  inputs[b, p] is position p's
    input index (0 on padding); input_labels is inputs with the dummy label
    dim_in on padding, and pair_labels, raveled, is (dim_in + 1)
    input_labels[b, p] + input_labels[b, q], so that bincounts cut to the
    first dim_in labels sum a stack per input or per pair of inputs without
    the padding.  sandwich[b] = R_b (x) R_b^T, the map X -> R_b X R_b on row-major
    vec(X).  overlap holds every block's row-major vec(R_b^T), so
    Tr[X R] = gather(X).ravel() @ overlap for any X.  The fields before
    sandwich depend only on R's zero pattern and are shared, read-only, by
    every R with that pattern.  Compares and hashes by identity."""

    labels: np.ndarray
    flat: np.ndarray
    pad: np.ndarray
    inputs: np.ndarray
    input_labels: np.ndarray
    pair_labels: np.ndarray
    sandwich: np.ndarray
    overlap: np.ndarray

    def gather(self, m: np.ndarray) -> np.ndarray:
        """The (B, s, s) blocks of an n x n matrix m, zero on the padding."""
        return _gather(m, self.flat, self.pad)

    def scatter(self, blocks: np.ndarray) -> np.ndarray:
        """The n x n matrix that holds blocks on R's blocks and 0 elsewhere."""
        n = len(self.labels)
        out = np.zeros((n + 1, n), dtype=np.complex128)
        out.ravel()[self.flat] = blocks  # the padding lands in the last, dropped row
        return out[:n]


def block_plan(m: np.ndarray, dim_in: int, dim_out: int) -> BlockPlan | None:
    """The block plan of an operator m on C^dim_in (x) C^dim_out, or None when its
    zero pattern has none; only sandwich and overlap are built per m."""
    structure = _block_structure(dim_in, dim_out, np.packbits(m != 0).tobytes())
    if structure is None:
        return None
    r = _gather(m, structure[1], structure[2])
    size = r.shape[1]
    sandwich = np.einsum("bik,blj->bijkl", r, r).reshape(len(r), size * size, size * size)
    return BlockPlan(*structure, sandwich, r.transpose(0, 2, 1).ravel())


@lru_cache(maxsize=STRUCTURES)
def _block_structure(dim_in: int, dim_out: int, nonzero: bytes) -> tuple | None:
    """BlockPlan's pattern fields, read-only, for the zero pattern packed in
    nonzero (np.packbits of m != 0); None when a component holds (a, k) and
    (b, k) with a != b, since pinching would then change Tr_K, or when
    B s^4 >= n^3 (README's "The block step").  Labels are propagated over
    the symmetric edges of m != 0 until no edge joins two labels."""
    n = dim_in * dim_out
    edge = np.unpackbits(np.frombuffer(nonzero, dtype=np.uint8), count=n * n).reshape(n, n).view(bool)
    edge |= edge.T
    edge.ravel()[:: n + 1] = True
    labels = edge.argmax(axis=1)
    while True:
        labels = labels[labels]
        if not np.count_nonzero(edge > (labels[:, None] == labels)):
            break
        labels = np.where(edge, labels, n).min(axis=1)
    groups = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    size = max(map(len, groups.values()))
    if len(groups) * size**4 >= n**3:
        return None
    if any(len({i % dim_out for i in g}) < len(g) for g in groups.values()):
        return None  # some (a, k) ~ (b, k), a != b
    index = np.array([g + [n * n] * (size - len(g)) for g in groups.values()])  # n^2 pads
    flat = index[:, :, None] * n + index[:, None, :]
    pad = flat >= n * n
    np.minimum(flat, n * n, out=flat)
    inputs = index % n // dim_out
    input_labels = np.where(index < n * n, inputs, dim_in)
    pair_labels = (input_labels[:, :, None] * (dim_in + 1) + input_labels[:, None, :]).ravel()
    structure = labels, flat, pad, inputs, input_labels, pair_labels
    for a in structure:
        a.setflags(write=False)
    return structure


def _gather(m: np.ndarray, flat: np.ndarray, pad: np.ndarray) -> np.ndarray:
    blocks = m.ravel().take(flat, mode="clip")  # n^2 reads the last entry, zeroed below
    blocks[pad] = 0.0
    return blocks


def fidelity_bound(r: TargetOperator) -> float:
    """Upper bound dim_in * lambda_max(R) on the mean fidelity of any
    trace-preserving channel."""
    return r.dim_in * r.lambda_max


def _angle_arrays(thetas, phis) -> tuple[np.ndarray, np.ndarray]:
    """(thetas, phis) as float arrays; raises DimensionMismatchError unless
    both are 1-D (scalars count as length 1) and of equal length >= 1."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    if thetas.ndim != 1 or thetas.shape != phis.shape or not len(thetas):
        raise DimensionMismatchError(
            f"angle arrays must be 1-D and of equal length >= 1, got shapes {thetas.shape} and {phis.shape}"
        )
    return thetas, phis


def evaluate_family(family: StateFamily, thetas, phis) -> tuple[np.ndarray, np.ndarray]:
    """The family's (input, output) states at 1-D angle arrays of equal length,
    as complex (samples, dim_in) and (samples, dim_out) arrays.  A wrong count
    or shape of results raises DimensionMismatchError, a state off unit norm
    by more than NORM_TOL NormViolationError.  README's state-family contract
    says when the evaluator is called per sample."""
    thetas, phis = _angle_arrays(thetas, phis)
    try:
        states, per_sample = family.evaluator(thetas, phis), False
    except Exception:  # a scalar-only evaluator: one call per sample
        states, per_sample = [_two_results(family.evaluator(float(t), float(p))) for t, p in zip(thetas, phis)], True
    pin, pout = zip(*states) if per_sample else _two_results(states)
    shape_in, shape_out = (len(thetas), family.dim_in), (len(thetas), family.dim_out)
    return _state_array("input", pin, shape_in, per_sample), _state_array("output", pout, shape_out, per_sample)


def _two_results(results) -> tuple:
    """An evaluator's results as the pair (input, output) they must be."""
    results = tuple(results)
    if len(results) != 2:
        raise DimensionMismatchError(f"the evaluator returned {len(results)} results, expected exactly two")
    return results


def _state_array(name: str, states, shape: tuple[int, int], per_sample: bool) -> np.ndarray:
    """evaluate_family's one conversion of a result and its checks; per-sample
    states are raveled one by one inside that conversion."""
    try:
        arr = np.asarray([np.ravel(s) for s in states] if per_sample else states, dtype=np.complex128)
    except ValueError as exc:  # numpy refuses ragged states and non-numeric strings
        raise DimensionMismatchError(f"{name} states are ragged or not numbers, expected shape {shape}") from exc
    if arr.shape != shape:
        raise DimensionMismatchError(f"{name} states have shape {arr.shape}, expected {shape}")
    f = np.ascontiguousarray(arr).view(np.float64)  # each row's real and imaginary parts
    dev = np.abs(np.sqrt(np.einsum("ij,ij->i", f, f)) - 1.0).max()
    if not dev <= NORM_TOL:  # NaN fails too
        raise NormViolationError(f"{name} state norm deviates by {dev:.3e}")
    return arr


def sphere_samples(samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform sphere angles (thetas, phis): cos(theta) uniform on [-1, 1],
    then phi uniform on [0, 2pi), drawn in that fixed order from numpy's PCG64
    stream, so each sample is reproducible per (seed, sample index).  samples
    must pass linalg.is_count, then seed linalg.require_seed."""
    if not linalg.is_count(samples):
        raise ValueError("samples must be >= 1")
    linalg.require_seed(seed)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, samples)
    phis = rng.uniform(0.0, 2.0 * np.pi, samples)
    return np.arccos(u), phis


def integrand_rows(family: StateFamily, thetas, phis) -> np.ndarray:
    """Rows v_s = conj(psi_in) (x) psi_out, one per sample, all at once: the
    integrand of R is v_s v_s†, and v_s† chi v_s is chi's fidelity on sample s.
    The (samples, n) rows are the transpose of an (n, samples) array, built in
    one broadcast multiply that runs along the samples."""
    pin, pout = evaluate_family(family, thetas, phis)
    v = np.empty((family.dim_in, family.dim_out, len(pin)), dtype=np.complex128)
    np.multiply(pin.T.conj()[:, None], pout.T, out=v)
    return v.reshape(family.dim_in * family.dim_out, len(pin)).T


def _row_blocks(family: StateFamily, thetas, phis):
    """Yield (slice, integrand_rows of the samples in that slice) over
    consecutive slices of SAMPLE_BLOCK samples."""
    thetas, phis = _angle_arrays(thetas, phis)
    for lo in range(0, len(thetas), SAMPLE_BLOCK):
        block = slice(lo, lo + SAMPLE_BLOCK)
        yield block, integrand_rows(family, thetas[block], phis[block])


def _weighted_gram(family: StateFamily, thetas, phis, weights=None) -> TargetOperator:
    """TargetOperator of sum_s w_s v_s v_s†, or without weights of the mean of
    v_s v_s†, accumulated one block of rows at a time by matrix products."""
    dim = family.dim_in * family.dim_out
    m = np.zeros((dim, dim), dtype=np.complex128)
    for block, v in _row_blocks(family, thetas, phis):
        m += (v.T if weights is None else v.T * weights[block]) @ v.conj()
    if weights is None:
        m /= len(thetas)
    return TargetOperator(family.dim_in, family.dim_out, linalg.hermitian_part(m))


def quadrature_nodes(trig_degree: int, nodes_theta=None, nodes_phi=None) -> tuple[int, int]:
    """(theta, phi) node counts: each count given, or the default for the
    family's trig_degree; raises ValueError unless both are integers >= 1."""
    nt = max(trig_degree + 1, MIN_THETA_NODES) if nodes_theta is None else nodes_theta
    nph = max(trig_degree + 2, MIN_PHI_NODES) if nodes_phi is None else nodes_phi
    for name, count in (("nodes_theta", nt), ("nodes_phi", nph)):
        if not linalg.is_count(count):
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    return nt, nph


@cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per node count."""
    nodes = np.polynomial.legendre.leggauss(count)
    for a in nodes:
        a.setflags(write=False)
    return nodes


def build_r_quadrature(
    family: StateFamily,
    nodes_theta: int | None = None,
    nodes_phi: int | None = None,
) -> TargetOperator:
    """Target operator by product quadrature over the sphere: Gauss-Legendre in
    theta, a uniform periodic rule in phi, node counts by quadrature_nodes."""
    nt, np_ = quadrature_nodes(family.trig_degree, nodes_theta, nodes_phi)
    x, w = _gauss_legendre(int(nt))  # one cache entry per count, a numpy integer's too
    thetas = (x + 1.0) * (np.pi / 2.0)
    # 1/(4pi) * [(pi/2) w] * sin(theta) * (2pi/np_)  ->  w sin(theta) pi/(4 np_)
    weights = w * np.sin(thetas) * (np.pi / (4.0 * np_))
    phis = 2.0 * np.pi * np.arange(np_) / np_
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    return _weighted_gram(family, tg.ravel(), pg.ravel(), np.repeat(weights, np_))


def build_r_montecarlo(family: StateFamily, samples: int, seed: int) -> TargetOperator:
    """Target operator as the seeded Monte-Carlo mean over sphere_samples; equal
    to the one-shot mean to rounding, not bit for bit."""
    thetas, phis = sphere_samples(samples, seed)
    return _weighted_gram(family, thetas, phis)
