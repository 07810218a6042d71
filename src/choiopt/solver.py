"""Fixed-point iteration for the fidelity-optimal trace-preserving channel.

solve iterates chi -> Lambda^{-1} R chi R Lambda^{-1}, Lambda = lambda (x) 1_K,
lambda = (Tr_K[R chi R])^{1/2} inverted on its support, which keeps chi positive
and trace-preserving, and may finish through the dual SDP min Tr Y s.t.
Y (x) 1_K >= R with a certified gap.  It validates at its boundaries: the start
and the result, not each step.  README's "Numerical conventions" describe the
block step, the carried stack, the dual on the blocks and the stopping rules.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channels import ChoiOperator, fidelity, maxmix_choi, require_dims, require_same_dims, require_valid_choi
from .errors import ChoiOptError, InvalidChoiError, InvalidSpecError, SingularLambdaError
from .linalg import PINV_CUTOFF, PSD_TOL
from .targets import BlockPlan, TargetOperator, fidelity_bound

# The rate rule's constants (_slow_tail); README's "Rate rule" gives their reasons.
RATE_FROM = 8
STEPS_LEFT = 60
BARRIER_GAP = 1e-14  # (dim_in * dim_out) * mu at the last barrier stage
NEWTON_TOL = 1e-4  # squared Newton decrement that ends a barrier stage
MAX_NEWTON = 50  # Newton steps allowed per barrier stage
STAGE_CUT = 100  # mu falls by this factor from one barrier stage to the next


def _named_init(init) -> bool:
    return isinstance(init, str) and re.fullmatch(r"maxmix|random:[0-9]+", init) is not None


@dataclass(frozen=True)
class SolverOptions:
    """A solve's controls, judged when built (InvalidSpecError): max_iters a
    count, fid_tol a finite real > 0 (the tolerance of the fidelity rule and
    of the endgame's certified gap), and init "maxmix", "random:SEED" (SEED an
    integer >= 0) or a ChoiOperator start, which initial_choi checks."""

    max_iters: int = 10000
    fid_tol: float = 1e-12
    init: str | ChoiOperator = "maxmix"

    def __post_init__(self):
        if not linalg.is_count(self.max_iters):
            raise InvalidSpecError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (linalg.is_real(self.fid_tol) and 0 < self.fid_tol < np.inf):  # NaN fails too
            raise InvalidSpecError(f"fid_tol must be finite and > 0, got {linalg._shown(self.fid_tol)}")
        if not isinstance(self.init, ChoiOperator) and not _named_init(self.init):
            raise InvalidSpecError(f"unknown init {self.init!r}")


@dataclass(frozen=True)
class SolverResult:
    """A solve's channel chi, its fidelity, the bound dim_in lambda_max(R), the
    steps taken, converged, and the fidelity after each step.  lambda_gap is
    the smallest gap between adjacent roots of the final multiplier (near zero:
    a degenerate optimum, whose chi may depend on the start); gap is the
    certified distance to the optimal fidelity when the dual endgame gave the
    result, else NaN."""

    chi: ChoiOperator
    fidelity: float
    bound: float
    iterations: int
    converged: bool
    fidelity_trace: tuple = field(repr=False)
    lambda_gap: float = float("nan")
    gap: float = float("nan")


def _inverse_roots(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots of lambda from the eigenvalues w of lambda^2, in w's order, and
    their inverses on the support (0 elsewhere); NegativeEigenvalueError by the
    clip rule, SingularLambdaError when the support is empty."""
    roots, inv = linalg.inverse_roots(w)
    if not np.count_nonzero(inv):
        raise SingularLambdaError("Tr_K[R chi R] vanished; cannot continue iterating")
    return roots, inv


def _dense_marginal(m: np.ndarray, dim_in: int, dim_out: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigh of Tr_K m for an n x n m: lambda^2's ascending eigenvalues and their vectors."""
    return np.linalg.eigh(linalg.hermitian_part(linalg.partial_trace(m, dim_in, dim_out)))


def _block_marginal(plan: BlockPlan, m: np.ndarray, dim_in: int) -> np.ndarray:
    """Tr_K m's diagonal, in input order, for m given as its (B, s, s) blocks on the plan."""
    return np.bincount(plan.inputs.ravel(), m.diagonal(axis1=1, axis2=2).real.ravel(), dim_in)


def _sandwiched(plan: BlockPlan, blocks: np.ndarray) -> np.ndarray:
    """The (B, s, s) blocks R_b chi_b R_b, fresh, from chi's blocks on R's plan."""
    return (plan.sandwich @ blocks.reshape(len(blocks), -1, 1)).reshape(blocks.shape)


def _extremal_step(m: np.ndarray, dim_in: int, dim_out: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense step on an n x n m: the ascending roots of lambda = (Tr_K m)^{1/2}
    and Lambda^{-1} m Lambda^{-1}, re-Hermitized; raises as _inverse_roots."""
    w, v = _dense_marginal(m, dim_in, dim_out)
    roots, inv = _inverse_roots(w)
    lam_inv = (v * inv) @ v.conj().T
    half = (lam_inv @ m.reshape(dim_in, -1)).reshape(m.shape)
    full = (lam_inv @ half.conj().T.reshape(dim_in, -1)).reshape(m.shape)
    return roots, (full + full.conj().T) / 2


def _block_stack(plan: BlockPlan, blocks: np.ndarray, dim_in: int) -> tuple[np.ndarray, np.ndarray]:
    """_extremal_step of a chi given as its (B, s, s) blocks on the plan, zero off
    them: the roots of lambda, in input order, and the result's fresh stack."""
    return _normalized(plan, _sandwiched(plan, blocks), dim_in)


def _normalized(plan: BlockPlan, m: np.ndarray, dim_in: int) -> tuple[np.ndarray, np.ndarray]:
    """The roots of lambda = (Tr_K m)^{1/2}, in input order, and Lambda^{-1} m
    Lambda^{-1}, re-Hermitized, written over m: the fresh (B, s, s) blocks on
    the plan of a PSD operator that is zero off them."""
    roots, inv = _inverse_roots(_block_marginal(plan, m, dim_in))
    s = inv[plan.inputs]
    m *= s[:, :, None] * s[:, None, :]
    m += m.conj().swapaxes(1, 2)
    m /= 2  # not *= 0.5, which can flip the sign of a zero imaginary part
    return roots, m


def _blocks_of(chi: ChoiOperator, r: TargetOperator) -> np.ndarray | None:
    """chi's (B, s, s) blocks on R's blocks when chi is exactly zero off them,
    else None (always None when R has no plan).  A stack carried on R's own
    plan is returned untested.  Otherwise chi is on the blocks when its
    gathered blocks hold all its nonzero int64 words: a -0.0 off the blocks
    counts as nonzero, which only sends chi to the dense step."""
    plan, stack = chi._stack
    if plan is r.blocks:
        return stack
    if r.blocks is None:
        return None
    blocks = r.blocks.gather(chi.matrix)
    nonzero = np.count_nonzero(chi.matrix.ravel().view(np.int64))
    return blocks if np.count_nonzero(blocks.view(np.int64)) == nonzero else None


def _step(chi: ChoiOperator, r: TargetOperator) -> tuple[np.ndarray, ChoiOperator]:
    """The roots of lambda and the extremal step from chi (with R's dims), frozen
    in place: the block step, whose result carries its stack on R's plan, when
    _blocks_of finds chi on R's blocks, else _extremal_step."""
    d, k = r.dim_in, r.dim_out
    blocks = _blocks_of(chi, r)
    if blocks is None:
        roots, m = _extremal_step(r.matrix @ chi.matrix @ r.matrix, d, k)
        return roots, ChoiOperator._frozen(d, k, m)
    roots, stack = _block_stack(r.blocks, blocks, d)
    return roots, ChoiOperator._frozen(d, k, None, (r.blocks, stack))


def _roots(chi: ChoiOperator, r: TargetOperator) -> np.ndarray:
    """The roots of lambda that _step(chi, r) returns, bit for bit and raising
    alike, from Tr_K[R chi R] alone: no scaling and no iterate."""
    blocks = _blocks_of(chi, r)
    if blocks is None:
        w = _dense_marginal(r.matrix @ chi.matrix @ r.matrix, r.dim_in, r.dim_out)[0]
    else:
        w = _block_marginal(r.blocks, _sandwiched(r.blocks, blocks), r.dim_in)
    return _inverse_roots(w)[0]


def _gaussian(n: int, seed: int) -> np.ndarray:
    """random_choi's n x n complex Gaussian W: two standard normal draws of
    np.random.default_rng(seed), its real then its imaginary part."""
    w = np.empty((n, n), dtype=np.complex128)
    w.real, w.imag = np.random.default_rng(seed).standard_normal((2, n, n))
    return w


def random_choi(dim_in: int, dim_out: int, seed: int) -> ChoiOperator:
    """Random admissible process matrix: the Wishart sample W W^dagger made
    trace-preserving.  DimensionMismatchError for bad dims, ValueError for a
    seed that fails the seed rule."""
    require_dims(dim_in, dim_out)
    linalg.require_seed(seed)
    w = _gaussian(dim_in * dim_out, seed)
    return ChoiOperator(dim_in, dim_out, _extremal_step(w @ w.conj().T, dim_in, dim_out)[1])


def initial_choi(r: TargetOperator, init: str | ChoiOperator) -> ChoiOperator:
    """The start a solve iterates from: a given ChoiOperator, after the dims and
    the constraint checks, or a named one ("maxmix" or "random:SEED", else
    InvalidSpecError).  Where R has a plan, a named start is built on R's
    blocks and carries its stack (README's random-start convention); else it
    is maxmix_choi or random_choi."""
    if isinstance(init, ChoiOperator):
        require_same_dims(init, r, "init", "target")
        require_valid_choi(init)
        return init
    if not _named_init(init):
        raise InvalidSpecError(f"unknown init {init!r}")
    d, k, plan = r.dim_in, r.dim_out, r.blocks
    seed = None if init == "maxmix" else int(init.removeprefix("random:"))
    if plan is None:
        return maxmix_choi(d, k) if seed is None else random_choi(d, k, seed)
    if seed is None:
        stack = (np.eye(plan.pad.shape[1]) * (~plan.pad / k)).astype(np.complex128)
    else:
        rows = plan.flat[:, :, 0] // (d * k)  # n on the padding, which reads row n - 1, zeroed next
        w = _gaussian(d * k, seed).take(rows, axis=0, mode="clip")
        w[rows == d * k] = 0.0
        stack = _normalized(plan, w @ w.conj().swapaxes(1, 2), d)[1]
    return ChoiOperator._frozen(d, k, None, (plan, stack))


def iterate_once(chi: ChoiOperator, r: TargetOperator) -> ChoiOperator:
    """One update chi -> Lambda^{-1} (R chi R) Lambda^{-1}, re-Hermitized, frozen
    and unchecked.  DimensionMismatchError unless chi has R's dims; lambda's
    roots raise as _inverse_roots."""
    require_same_dims(chi, r, "process", "target")
    return _step(chi, r)[1]


def _psd_solve(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m^+ v for a Hermitian PSD m and a vector or columns v, by one eigh and the
    support rule at PINV_CUTOFF."""
    w, u = np.linalg.eigh(m)
    return (u * linalg.inverse_on_support(w, PINV_CUTOFF)) @ (u.conj().T @ v)


def _dense_dual(r: TargetOperator, chi: ChoiOperator) -> tuple:
    """_dual_endgame's layout where R has no plan: a Hermitian Y, warm-started at
    Tr_K[R chi], and the n x n slack."""
    d, k = r.dim_in, r.dim_out
    n = d * k
    lift = np.eye(k)[None, :, None, :]

    def slack(y):  # eigh of Y (x) 1_K - R
        return np.linalg.eigh((y[:, None, :, None] * lift).reshape(n, n) - r.matrix)

    def derivatives(z_eigs, z_vecs):  # Tr_K[Z^-1] and the Hessian over mu
        w = ((z_vecs / z_eigs) @ z_vecs.conj().T).reshape(d, k, d, k)  # Z^-1
        return np.einsum("akbk->ab", w), np.einsum("akbl,dlck->acbd", w, w).reshape(d * d, d * d)

    def recover(z_eigs, z_vecs, cut):  # P X P†, P the (n, rank) eigenvectors below cut
        p = z_vecs[:, z_eigs < cut]
        rank = p.shape[1]
        if rank == 0:
            raise InvalidChoiError("the slack has no kernel")
        pk = p.reshape(d, k, rank)
        trace_map = np.einsum("aki,bkj->abij", pk, pk.conj()).reshape(d * d, rank * rank)
        adj = trace_map.conj().T
        x = linalg.hermitian_part(_psd_solve(adj @ trace_map, adj @ np.eye(d).ravel()).reshape(rank, rank))
        if np.linalg.eigvalsh(x)[0] < -PSD_TOL:
            raise InvalidChoiError("the recovered X is not PSD")
        return ChoiOperator(d, k, linalg.hermitian_part(p @ x @ p.conj().T))

    y = linalg.hermitian_part(linalg.partial_trace(r.matrix @ chi.matrix, d, k))
    return y, np.eye(d), slack, derivatives, recover


def _diagonal_dual(r: TargetOperator, chi: ChoiOperator) -> tuple:
    """_dual_endgame's layout on R's plan (README's "The dual on the blocks"): a
    real dim_in vector y, warm-started at Tr_K[R chi]'s diagonal, the (B, s, s)
    slack, and a recovery fitted on the blocks whose answer carries its stack
    on R's plan; the padding counts in no derivative and no kernel vector."""
    plan, d = r.blocks, r.dim_in
    r_b = plan.gather(r.matrix)
    minus_r = -r_b  # the slack's constant part, copied on every call
    diagonal = slice(None, None, r_b.shape[1] + 1)  # the diagonal of a raveled s x s block
    labels = plan.input_labels.ravel()
    pairs = np.repeat(plan.pair_labels, 2)  # per float of the stack's float64 view: real, imaginary
    padded = np.ones(d + 1)  # y, then the padding's 1
    onehot = plan.input_labels[:, :, None] == np.arange(d)  # (B, s, dim_in), all False on the padding

    def slack(y):  # the batched eigh of the Z_b
        padded[:d] = y
        z = minus_r.copy()
        z.reshape(len(z), -1)[:, diagonal] += padded[plan.input_labels]
        return np.linalg.eigh(z)

    def derivatives(z_eigs, z_vecs):  # Tr_K[Z^-1]'s diagonal and the Hessian over mu, both real
        w = (z_vecs / z_eigs[:, None, :]) @ z_vecs.conj().swapaxes(1, 2)  # the Z_b^-1
        w_trace = np.bincount(labels, w.reshape(len(w), -1)[:, diagonal].real.ravel(), d + 1)
        floats = w.view(np.float64).ravel()
        hess = np.bincount(pairs, floats * floats, (d + 1) ** 2)  # |Z_b^-1|^2 summed per pair of inputs
        return w_trace[:d], hess.reshape(d + 1, d + 1)[:d, :d]

    def recover(z_eigs, z_vecs, cut):  # Q X Q†, Q the (B, s, s) eigenvectors below cut, zero on the padding
        q = z_vecs * (z_eigs[:, None, :] < cut)
        q[plan.input_labels == d] = 0.0  # the padding's rows
        if not q.any():
            raise InvalidChoiError("the slack has no kernel")
        a = np.einsum("bpa,bpi,bpj->abij", onehot, q, q.conj()).reshape(d, -1)  # X -> Tr_K[Q X Q†]'s diagonal
        x = linalg.hermitian_part((_psd_solve(a @ a.conj().T, np.ones(d)) @ a.conj()).reshape(q.shape))
        if np.linalg.eigvalsh(x)[:, 0].min() < -PSD_TOL:
            raise InvalidChoiError("the recovered X is not PSD")
        stack = linalg.hermitian_part(q @ x @ q.conj().swapaxes(1, 2))
        return ChoiOperator._frozen(d, r.dim_out, None, (plan, stack))

    carried, stack = chi._stack
    blocks = stack if carried is plan else plan.gather(chi.matrix)
    y = np.bincount(plan.inputs.ravel(), np.einsum("bpq,bqp->bp", r_b, blocks).real.ravel(), d)
    return y, np.ones(d), slack, derivatives, recover


def _dual_endgame(r: TargetOperator, chi: ChoiOperator) -> tuple[ChoiOperator, float] | None:
    """The checked optimal chi and its certified gap from the dual SDP
    min Tr Y s.t. Y (x) 1_K >= R, warm-started from chi; None on any failure.

    A layout gives the warm start, the unit of its unknowns and three
    functions: slack(y), the eigh of the slack Z; derivatives(eigs, vecs),
    Tr_K[Z^-1] and the Hessian over mu; recover(eigs, vecs, cut), the
    operator P X P† on Z's eigenvectors P below cut, X >= 0 fitted to
    Tr_K = 1 by one _psd_solve, or InvalidChoiError when P is empty or X is
    indefinite.  Any feasible Y bounds every channel's fidelity by Tr Y, so
    the gap Tr Y + dim_in max(0, -lambda_min(Z)) - F is rigorous.  README's
    "Dual endgame" gives the barrier schedule and the recovery.
    """
    d, k = r.dim_in, r.dim_out
    n = d * k
    mu_end = BARRIER_GAP / n
    y, one, slack, derivatives, recover = (_dense_dual if r.blocks is None else _diagonal_dual)(r, chi)

    def trace(y):  # Tr Y, or the sum of a diagonal y
        return float(np.vdot(one, y).real)

    try:
        z_eigs, z_vecs = slack(y)  # one eigh of the start's slack: the shift moves no eigenvector
        excess = max(0.0, -z_eigs.min())
        mu = max(mu_end, (trace(y) + d * excess - fidelity(chi, r)) / n)
        y, z_eigs = y + (excess + mu) * one, z_eigs + (excess + mu)
        while True:
            last = np.inf
            for _ in range(MAX_NEWTON):
                if z_eigs.min() <= 0.0:  # rounding left the feasible set
                    return None
                w_trace, hess = derivatives(z_eigs, z_vecs)
                grad = one - mu * w_trace
                # One solve gives the Newton step and the tangent dY/dmu = H^-1 Tr_K[Z^-1].
                rhs = np.array((-grad, w_trace)).reshape(2, -1).T.copy()  # the columns -grad and Tr_K[Z^-1]
                both = _psd_solve(mu * hess, rhs).T.reshape(2, *y.shape)
                step, tangent = linalg.hermitian_part(both) if y.ndim == 2 else both  # Y stays Hermitian
                dec2 = -float(np.vdot(grad, step).real) / mu  # squared Newton decrement
                if dec2 < NEWTON_TOL or last <= dec2 < 1 / 16:  # centred, or at the rounding floor
                    break
                last = dec2
                # Both steps stay inside the Dikin ellipsoid, so Y stays strictly
                # feasible; full steps converge quadratically once dec2 < 1/16.
                y = y + step / (1.0 + math.sqrt(dec2)) if dec2 > 1 / 16 else y + step
                z_eigs, z_vecs = slack(y)
            else:
                return None
            if mu == mu_end:
                break
            mu_next = max(mu_end, mu / STAGE_CUT)
            trial = y + tangent * (mu_next - mu)
            t_eigs, t_vecs = slack(trial)
            if t_eigs.min() > 0.0:  # else the predictor is dropped
                y, z_eigs, z_vecs = trial, t_eigs, t_vecs
            mu = mu_next
        chi = iterate_once(recover(z_eigs, z_vecs, np.sqrt(mu)), r)  # central path: Z ~ mu / chi on the kernel
        require_valid_choi(chi)
    except (np.linalg.LinAlgError, ChoiOptError):
        return None
    return chi, trace(y) + d * max(0.0, -z_eigs.min()) - fidelity(chi, r)


def _slow_tail(fids: list[float], fid_tol: float) -> bool:
    """The rate rule (README's "Rate rule"): whether the fidelities F_0 .. F_k
    predict a long tail.  Python floats, not numpy scalars: it runs every step."""
    if len(fids) <= RATE_FROM:
        return False
    step, prev = fids[-1] - fids[-2], fids[-2] - fids[-3]
    if step <= 0.0 or prev <= 0.0:
        return False
    rate = step / prev
    return rate >= 1.0 or math.log(fid_tol / step) / math.log(rate) > STEPS_LEFT


def solve(r: TargetOperator, opts: SolverOptions | None = None) -> SolverResult:
    """The fidelity-optimal channel for r by the extremal iteration from opts'
    start, with at most one dual-endgame attempt (README's "Stopping" and "Dual
    endgame").  Non-convergence is not an error: the result has converged=False
    and the full fidelity trace.  The result's chi carries no stack."""
    opts = opts or SolverOptions()
    chi = initial_choi(r, opts.init)
    fids = [fidelity(chi, r)]  # F_0 of the start; the reported trace begins at F_1
    converged = False
    gap = float("nan")
    endgame = r.dim_in <= r.dim_out  # the one attempt is still to come (dim_in <= dim_out only)
    while not converged and len(fids) <= opts.max_iters:
        done = None
        if endgame and _slow_tail(fids, opts.fid_tol):
            endgame, done = False, _dual_endgame(r, chi)
        if done is not None and done[1] <= opts.fid_tol:
            chi, gap = done
        else:
            chi = iterate_once(chi, r)
        fids.append(fidelity(chi, r))
        converged = gap <= opts.fid_tol or abs(fids[-1] - fids[-2]) < opts.fid_tol
    if np.isnan(gap):  # a certified endgame answer was checked by _dual_endgame
        require_valid_choi(chi)
    lambda_gap = float(np.diff(np.sort(_roots(chi, r))).min(initial=np.inf))
    return SolverResult(
        chi=ChoiOperator._frozen(r.dim_in, r.dim_out, chi.matrix),  # so a kept result holds no stack
        fidelity=fids[-1],
        bound=fidelity_bound(r),
        iterations=len(fids) - 1,
        converged=converged,
        fidelity_trace=tuple(fids[1:]),
        lambda_gap=lambda_gap,
        gap=gap,
    )
