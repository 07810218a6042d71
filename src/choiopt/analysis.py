"""Post-processing of channels: sampled fidelities, fidelity curves, the
partial-transpose check and shift-angle scans (README's "Library")."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg
from .channels import ChoiOperator, DensityMatrix, require_dims, require_same_dims, require_valid_choi
from .errors import DimensionMismatchError
from .models import ModelSpec, analytic_r, damping_channel, shifter_closed_forms
from .solver import SolverOptions, solve
from .targets import StateFamily, _row_blocks, fidelity_bound, quadrature_nodes, sphere_samples


def _pointwise_fidelities(chi: ChoiOperator, family: StateFamily, thetas, phis) -> np.ndarray:
    require_same_dims(chi, family, "channel", "family")
    require_valid_choi(chi)
    # <psi_out| E(|psi_in><psi_in|) |psi_out> = v† chi v = sum_l w_l |<e_l, v>|^2 with
    # v = conj(psi_in) (x) psi_out, over chi's eigenpairs (w_l, e_l) on the support of |w|
    w, e = np.linalg.eigh(linalg.hermitian_part(chi.matrix))
    keep = linalg.support(np.abs(w), linalg.PINV_CUTOFF)
    e, w = e[:, keep].conj(), np.repeat(w[keep], 2)  # one weight per real and imaginary part
    f = np.empty(len(thetas))
    for block, v in _row_blocks(family, thetas, phis):
        overlaps = (v @ e).view(np.float64)
        f[block] = np.square(overlaps, out=overlaps) @ w
    return f


@dataclass(frozen=True)
class McEstimate:
    """A sampled mean fidelity and its standard error (mc_fidelity)."""

    mean: float
    std_error: float


def require_samples(samples: int) -> None:
    """Raise ValueError unless samples is a count >= 2, which mc_fidelity's
    standard error needs."""
    if not linalg.is_count(samples) or samples < 2:
        raise ValueError("samples must be >= 2")


def mc_fidelity(chi: ChoiOperator, family: StateFamily, samples: int, seed: int) -> McEstimate:
    """Mean fidelity of a valid channel with the family's dims, estimated from
    seeded uniform sphere samples instead of the trace formula; ValueError for
    fewer than 2 samples or a seed that fails the seed rule."""
    require_samples(samples)
    f = _pointwise_fidelities(chi, family, *sphere_samples(samples, seed))
    return McEstimate(float(f.mean()), float(f.std(ddof=1) / np.sqrt(samples)))


def state_fidelity_curve(chi: ChoiOperator, family: StateFamily, theta_steps: int) -> np.ndarray:
    """Pointwise fidelity versus the polar angle, azimuth-averaged.

    Returns an array of (theta, F) rows on a uniform theta grid over [0, pi];
    the azimuth average uses enough equispaced points for the family's degree.
    """
    if not linalg.is_count(theta_steps) or theta_steps < 2:
        raise ValueError("theta_steps must be >= 2")
    n_phi = quadrature_nodes(family.trig_degree)[1]
    thetas = np.linspace(0.0, np.pi, theta_steps)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    f = _pointwise_fidelities(chi, family, tg.ravel(), pg.ravel())
    return np.column_stack([thetas, f.reshape(theta_steps, n_phi).mean(axis=1)])


@dataclass(frozen=True)
class PptReport:
    """Partial-transpose test result.

    ppt certifies separability only when certifies_separability is set, i.e.
    on 2x2 and 2x3 splits; elsewhere the eigenvalue is still reported but a
    positive partial transpose proves nothing.
    """

    min_pt_eigenvalue: float
    ppt: bool
    certifies_separability: bool


def ppt_check(rho: DensityMatrix, dim_a: int, dim_b: int) -> PptReport:
    """Positivity of the partial transpose of a bipartite state; the factor
    dims must pass channels.require_dims and multiply to rho's dim."""
    require_dims(dim_a, dim_b)
    if dim_a * dim_b != rho.dim:
        raise DimensionMismatchError(f"{dim_a}x{dim_b} does not factor dim {rho.dim}")
    pt = linalg.partial_transpose(rho.matrix, dim_a, dim_b, which="second")
    wmin = float(np.linalg.eigvalsh(linalg.hermitian_part(pt)).min())
    ppt = wmin >= -linalg.PSD_TOL
    certifies = ppt and sorted((dim_a, dim_b)) in ([2, 2], [2, 3])
    return PptReport(wmin, ppt, certifies)


@dataclass(frozen=True)
class ScanRow:
    """One shift angle of a scan: solver fidelity, the closed-form damping
    optimum, and the spectral upper bound."""

    alpha: float
    beta_opt: float
    F_solver: float
    F_closed: float
    F_bound: float
    converged: bool = True
    fit_residual: float = float("nan")
    error: str | None = None


def _extract_beta(chi: ChoiOperator) -> tuple[float, float]:
    # The damping ansatz stores cos(beta) in the |00><11| coherence element.
    cos_beta = float(np.clip(chi.matrix[0, 3].real, -1.0, 1.0))
    beta = float(np.arccos(cos_beta))
    residual = float(np.linalg.norm(chi.matrix - damping_channel(beta).matrix))
    return beta, residual


def _scan_one(alpha: float, opts: SolverOptions) -> ScanRow:
    r = analytic_r(ModelSpec("shifter", alpha=alpha))
    row = partial(ScanRow, alpha, F_closed=shifter_closed_forms(alpha).fidelity, F_bound=fidelity_bound(r))
    try:
        result = solve(r, opts)
    except Exception as exc:  # keep scanning; the row records what failed
        error = f"{type(exc).__name__}: {exc}"
        return row(beta_opt=float("nan"), F_solver=float("nan"), converged=False, error=error)
    beta, residual = _extract_beta(result.chi)
    return row(beta_opt=beta, F_solver=result.fidelity, converged=result.converged, fit_residual=residual)


def alpha_scan(alphas, solver_opts: SolverOptions | None = None) -> list[ScanRow]:
    """Solve the shifter for each angle, one row after another in this
    process; rows come back ordered by alpha."""
    opts = solver_opts or SolverOptions()
    return sorted((_scan_one(float(a), opts) for a in alphas), key=lambda row: row.alpha)
