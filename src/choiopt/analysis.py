"""Validation and post-processing: sampled fidelities, fidelity curves,
separability checks, and shift-angle scans."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ChoiOperator, DensityMatrix, require_valid_choi
from .errors import DimensionMismatchError
from .models import ModelSpec, analytic_r, damping_channel, shifter_closed_forms
from .solver import SolverOptions, solve
from .targets import StateFamily, default_phi_nodes, fidelity_bound, integrand_rows, sphere_samples

PPT_TOL = 1e-10  # negativity tolerance on the partial-transpose spectrum


def _pointwise_fidelities(chi: ChoiOperator, family: StateFamily, thetas, phis) -> np.ndarray:
    if (chi.dim_in, chi.dim_out) != (family.dim_in, family.dim_out):
        raise DimensionMismatchError(
            f"channel dims ({chi.dim_in},{chi.dim_out}) != family dims "
            f"({family.dim_in},{family.dim_out})"
        )
    require_valid_choi(chi)
    # <psi_out| E(|psi_in><psi_in|) |psi_out> = v† chi v with v = conj(psi_in) (x) psi_out
    v = integrand_rows(family, thetas, phis)
    return np.einsum("sa,ab,sb->s", v.conj(), chi.matrix, v).real


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float


def mc_fidelity(chi: ChoiOperator, family: StateFamily, samples: int, seed: int) -> McEstimate:
    """Mean fidelity estimated by uniform sphere sampling instead of the trace
    formula; deterministic per seed."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    f = _pointwise_fidelities(chi, family, *sphere_samples(samples, seed))
    return McEstimate(float(f.mean()), float(f.std(ddof=1) / np.sqrt(samples)))


def state_fidelity_curve(chi: ChoiOperator, family: StateFamily, theta_steps: int) -> np.ndarray:
    """Pointwise fidelity versus the polar angle, azimuth-averaged.

    Returns an array of (theta, F) rows on a uniform theta grid over [0, pi];
    the azimuth average uses enough equispaced points for the family's degree.
    """
    if theta_steps < 2:
        raise ValueError("theta_steps must be >= 2")
    n_phi = default_phi_nodes(family.trig_degree)
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
    """Positivity of the partial transpose of a bipartite state."""
    if dim_a * dim_b != rho.dim:
        raise DimensionMismatchError(f"{dim_a}x{dim_b} does not factor dim {rho.dim}")
    pt = linalg.partial_transpose(rho.matrix, dim_a, dim_b, which="second")
    wmin = float(np.linalg.eigvalsh(linalg.hermitian_part(pt)).min())
    ppt = wmin >= -PPT_TOL
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


def _scan_one(args) -> ScanRow:
    alpha, opts = args
    closed = shifter_closed_forms(alpha)
    r = analytic_r(ModelSpec("shifter", alpha=alpha))
    bound = fidelity_bound(r)
    try:
        result = solve(r, opts)
    except Exception as exc:  # keep scanning; the row records what failed
        return ScanRow(
            alpha=alpha,
            beta_opt=float("nan"),
            F_solver=float("nan"),
            F_closed=closed.fidelity,
            F_bound=bound,
            converged=False,
            error=f"{type(exc).__name__}: {exc}",
        )
    beta, residual = _extract_beta(result.chi)
    return ScanRow(
        alpha=alpha,
        beta_opt=beta,
        F_solver=result.fidelity,
        F_closed=closed.fidelity,
        F_bound=bound,
        converged=result.converged,
        fit_residual=residual,
    )


def alpha_scan(alphas, solver_opts: SolverOptions | None = None, jobs: int = 1) -> list[ScanRow]:
    """Solve the shifter for each angle; rows come back ordered by alpha.

    Rows are independent, so jobs > 1 distributes them over up to jobs
    processes, never more than there are rows, without changing the output.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    opts = solver_opts or SolverOptions()
    work = [(float(a), opts) for a in alphas]
    workers = min(jobs, len(work))
    if workers <= 1:
        rows = [_scan_one(w) for w in work]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_one, work))
    return sorted(rows, key=lambda row: row.alpha)
