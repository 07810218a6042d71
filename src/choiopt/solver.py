"""Fixed-point iteration for the fidelity-optimal trace-preserving channel.

Maximizing Tr[chi R] over process matrices with Tr_K[chi] = 1_H leads to the
stationarity condition

    chi = Lambda^{-1} R chi R Lambda^{-1},
    Lambda = lambda (x) 1_K,   lambda = (Tr_K[R chi R])^{1/2},

with lambda fixed as the positive Hermitian root.  Iterating this update
preserves positivity and the trace constraint at every step; the multiplier
inverse is a pseudo-inverse so the update stays defined when lambda is
singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channels import ChoiOperator, fidelity, maxmix_choi, require_valid_choi
from .errors import DimensionMismatchError, InvalidSpecError, NegativeEigenvalueError, SingularLambdaError
from .targets import TargetOperator, fidelity_bound

CHI_TOL = 1e-10  # second stopping rule: Frobenius change of chi (see SolverOptions)
PINV_CUTOFF = 1e-12  # relative eigenvalue cutoff of the multiplier pseudo-inverse


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls.

    The loop stops when the fidelity change drops below fid_tol or the
    Frobenius change of chi drops below CHI_TOL, whichever fires first;
    fidelity may plateau while chi still drifts along a degenerate optimal
    manifold, so both deltas are monitored.  init is "maxmix", "random:SEED",
    or an explicit ChoiOperator.
    """

    max_iters: int = 10000
    fid_tol: float = 1e-12
    init: str | ChoiOperator = "maxmix"

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidSpecError("max_iters must be >= 1")
        if not 0 < self.fid_tol < np.inf:  # NaN fails too
            raise InvalidSpecError(f"fid_tol must be finite and > 0, got {self.fid_tol}")


@dataclass(frozen=True)
class SolverResult:
    chi: ChoiOperator
    fidelity: float
    bound: float
    iterations: int
    converged: bool
    fidelity_trace: tuple = field(repr=False)
    # Smallest gap between adjacent eigenvalues of the final multiplier; a
    # near-zero gap signals a degenerate optimum (the solution manifold may
    # then depend on the initialization even though the fidelity does not).
    lambda_gap: float = float("nan")


def _extremal_step(m: np.ndarray, dim_in: int, dim_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Lambda^{-1} m Lambda^{-1}, re-Hermitized, and the ascending eigenvalues of
    lambda = (Tr_K m)^{1/2}, from one eigh of Tr_K m.  Lambda^{-1} = lambda^{-1} (x) 1_K
    left-multiplies the (dim_in, -1) view of m, then of the half-product's adjoint."""
    w, v = np.linalg.eigh(linalg.hermitian_part(linalg.partial_trace(m, dim_in, dim_out)))
    if w[0] < -linalg.CLIP_TOL:
        raise NegativeEigenvalueError(f"eigenvalue {w[0]:.3e} below -{linalg.CLIP_TOL:.1e}")
    roots = np.sqrt(np.where(w < linalg.CLIP_TOL, 0.0, w))
    if roots[-1] <= 0.0:
        raise SingularLambdaError("Tr_K[R chi R] vanished; cannot continue iterating")
    inv = np.divide(1.0, roots, out=np.zeros_like(roots), where=roots >= PINV_CUTOFF * roots[-1])
    lam_inv = (v * inv) @ v.conj().T
    half = (lam_inv @ m.reshape(dim_in, -1)).reshape(m.shape)
    full = (lam_inv @ half.conj().T.reshape(dim_in, -1)).reshape(m.shape)
    return roots, (full + full.conj().T) / 2


def random_choi(dim_in: int, dim_out: int, seed: int) -> ChoiOperator:
    """Random admissible process matrix: a Wishart sample rescaled to satisfy
    the trace constraint exactly."""
    rng = np.random.default_rng(seed)
    n = dim_in * dim_out
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ChoiOperator(dim_in, dim_out, _extremal_step(w @ w.conj().T, dim_in, dim_out)[1])


def initial_choi(r: TargetOperator, init: str | ChoiOperator) -> ChoiOperator:
    if isinstance(init, ChoiOperator):
        if (init.dim_in, init.dim_out) != (r.dim_in, r.dim_out):
            raise DimensionMismatchError(
                f"init dims ({init.dim_in},{init.dim_out}) != target dims ({r.dim_in},{r.dim_out})"
            )
        require_valid_choi(init)
        return init
    if init == "maxmix":
        return maxmix_choi(r.dim_in, r.dim_out)
    if isinstance(init, str) and init.startswith("random:"):
        return random_choi(r.dim_in, r.dim_out, int(init.split(":", 1)[1]))
    raise InvalidSpecError(f"unknown init {init!r}")


def iterate_once(chi: ChoiOperator, r: TargetOperator) -> ChoiOperator:
    """One update chi -> Lambda^{-1} (R chi R) Lambda^{-1}, re-Hermitized."""
    if (chi.dim_in, chi.dim_out) != (r.dim_in, r.dim_out):
        raise DimensionMismatchError(
            f"process dims ({chi.dim_in},{chi.dim_out}) != target dims ({r.dim_in},{r.dim_out})"
        )
    m = r.matrix @ chi.matrix @ r.matrix
    return ChoiOperator(r.dim_in, r.dim_out, _extremal_step(m, r.dim_in, r.dim_out)[1])


def _multiplier_gap(chi: ChoiOperator, r: TargetOperator) -> float:
    roots, _ = _extremal_step(r.matrix @ chi.matrix @ r.matrix, r.dim_in, r.dim_out)
    return float(np.diff(roots).min(initial=np.inf))


def solve(r: TargetOperator, opts: SolverOptions | None = None) -> SolverResult:
    """Iterate the extremal update from the chosen start until a stopping
    criterion fires or max_iters is reached.

    Non-convergence is not an error: the result carries converged=False and
    the full fidelity trace.
    """
    opts = opts or SolverOptions()
    chi = initial_choi(r, opts.init)
    bound = fidelity_bound(r)
    f_prev = fidelity(chi, r)
    trace: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        new = iterate_once(chi, r)
        f = fidelity(new, r)
        trace.append(f)
        d_chi = float(np.linalg.norm(new.matrix - chi.matrix))
        d_f = abs(f - f_prev)
        chi, f_prev = new, f
        if d_f < opts.fid_tol or d_chi < CHI_TOL:
            converged = True
            break
    require_valid_choi(chi)
    return SolverResult(
        chi=chi,
        fidelity=f_prev,
        bound=bound,
        iterations=iterations,
        converged=converged,
        fidelity_trace=tuple(trace),
        lambda_gap=_multiplier_gap(chi, r),
    )
