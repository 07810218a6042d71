"""Built-in transformation models (README's "Built-in models"): each kind's
dims, state family, closed-form target and best known optimum come from one
branch of _model, which ModelSpec.dims, model_family, analytic_r and
known_optimum only read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .channels import ChoiOperator
from .errors import InvalidSpecError, OutOfRangeError
from .targets import StateFamily, TargetOperator

MODEL_KINDS = ("unot", "cloner", "entangler_a", "entangler_b", "shifter", "identity")

# Threshold shift angle above which damping beats the identity channel.
ALPHA_THRESHOLD = math.atan(8.0 / (3.0 * math.pi))

PSI_PLUS = np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128) / np.sqrt(2.0)
KET_00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


@dataclass(frozen=True)
class ModelSpec:
    """A built-in model; copies is read by unot and cloner only, alpha by shifter only."""

    kind: str
    copies: int = 1
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidSpecError(f"unknown model kind {self.kind!r}")
        if not linalg.is_count(self.copies):
            raise InvalidSpecError(f"copies must be an integer >= 1, got {self.copies!r}")
        if self.kind not in ("unot", "cloner") and self.copies != 1:
            raise InvalidSpecError(f"{self.kind} takes no copies (only unot and cloner do)")
        if self.kind != "shifter" and self.alpha != 0.0:
            raise InvalidSpecError(f"{self.kind} takes no alpha (only shifter does)")
        if not (linalg.is_real(self.alpha) and 0.0 <= self.alpha <= math.pi):
            raise OutOfRangeError(f"alpha {linalg._shown(self.alpha)} outside [0, pi]")

    @property
    def dims(self) -> tuple[int, int]:
        return _model(self).dims


def parse_model(name: str, copies: int = 1, alpha: float = 0.0) -> ModelSpec:
    """Build a ModelSpec from a CLI-style name ('entangler-a' etc.)."""
    return ModelSpec(name.replace("-", "_") if isinstance(name, str) else name, copies=copies, alpha=alpha)


def bloch_state(theta, phi) -> np.ndarray:
    """Qubit cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>; broadcasts over angles."""
    return _bloch(theta, np.exp(1j * np.asarray(phi, dtype=float)))


def _bloch(theta, phase) -> np.ndarray:
    """bloch_state(theta, phi) from phi's phase e^{i phi}, so that states at
    one phi share one evaluation of the phase."""
    half = np.asarray(theta, dtype=float) / 2
    out = np.empty(np.broadcast_shapes(half.shape, np.shape(phase)) + (2,), dtype=np.complex128)
    out[..., 0] = np.cos(half)
    np.multiply(phase, np.sin(half), out=out[..., 1])
    return out


def orthogonal_state(theta, phi) -> np.ndarray:
    """The qubit orthogonal to bloch_state: sin(theta/2)|0> - e^{i phi} cos(theta/2)|1>,
    which is bloch_state(pi - theta, phi + pi)."""
    return bloch_state(np.subtract(np.pi, theta), np.add(phi, np.pi))


def symmetric_state(n_qubits: int, theta, phi) -> np.ndarray:
    """N identical qubits in the symmetric basis, whose index j holds N-j qubits
    in |0>: amplitude sqrt(C(N, j)) e^{i j phi} cos^{N-j}(theta/2) sin^j(theta/2),
    unit norm by the binomial theorem.  ValueError unless n_qubits is an
    integer >= 0."""
    if not linalg.is_natural(n_qubits):
        raise ValueError(f"n_qubits must be an integer >= 0, got {n_qubits!r}")
    return _symmetric_power(bloch_state(theta, phi), n_qubits)


def _symmetric_power(a: np.ndarray, n: int) -> np.ndarray:
    """The state a^(x)n of qubit amplitudes a = (a0, a1) (last axis) in the
    symmetric basis: sqrt(C(n, j)) a0^(n-j) a1^j at index j."""
    a0, a1 = a[..., 0], a[..., 1]
    out = np.empty(a.shape[:-1] + (n + 1,), dtype=np.complex128)
    out[..., 0] = 1.0
    for j in range(1, n + 1):
        out[..., j] = out[..., j - 1] * a1
    power0 = np.ones_like(a0)
    for j in range(n - 1, -1, -1):
        power0 = power0 * a0
        out[..., j] *= power0
    out *= np.sqrt([math.comb(n, j) for j in range(n + 1)])
    return out


def _entangler_a_output(a: np.ndarray) -> np.ndarray:
    """(sqrt(2) a0|00> + a1|Psi+>) / sqrt(1 + |a0|^2) for qubit amplitudes
    a = (a0, a1) (last axis), written entry by entry into one array."""
    a0 = a[..., 0]
    scale = 1.0 / np.sqrt(1.0 + (a0.real**2 + a0.imag**2))
    out = np.zeros(a.shape[:-1] + (4,), dtype=np.complex128)  # |00>, |01>, |10>, |11>
    np.multiply(a0, np.sqrt(2.0) * scale, out=out[..., 0])
    out[..., 1] = out[..., 2] = a[..., 1] * (PSI_PLUS[1].real * scale)
    return out


def _from_qubit(output: Callable) -> Callable:
    """Evaluator (theta, phi) -> (a, output(a)) with a = bloch_state(theta, phi),
    so the output is built from the input's amplitudes."""

    def ev(theta, phi):
        a = bloch_state(theta, phi)
        return a, output(a)

    return ev


def _entangler_b_output(a: np.ndarray) -> np.ndarray:
    """(|a>|b> + |b>|a>) / sqrt(2) for qubit amplitudes a = (a0, a1) (last axis),
    with b = (conj(a1), -conj(a0)) orthogonal to a: orthogonal_state up to a
    global phase, which R does not see."""
    b = np.stack([a[..., 1].conj(), -a[..., 0].conj()], axis=-1)
    pair = np.einsum("...i,...j->...ij", a, b) + np.einsum("...i,...j->...ij", b, a)
    return pair.reshape(pair.shape[:-2] + (4,)) / np.sqrt(2.0)


def _r_cloner(n: int) -> np.ndarray:
    dk = n + 1
    r = np.zeros((2 * dk, 2 * dk), dtype=np.complex128)
    den = (n + 1) * (n + 2)

    def idx(q, k):  # input-qubit index q, symmetric index n-k
        return q * dk + (n - k)

    for k in range(n + 1):
        r[idx(0, k), idx(0, k)] = (k + 1) / den
        r[idx(1, k), idx(1, k)] = (n - k + 1) / den
    for k in range(1, n + 1):
        c = math.sqrt(k * (n - k + 1)) / den
        r[idx(0, k), idx(1, k - 1)] = c
        r[idx(1, k - 1), idx(0, k)] = c
    return r


def _r_unot(n: int) -> np.ndarray:
    """The cloner's R mirrored, since psi_perp = eps conj(psi) with eps = [[0, 1], [-1, 0]]:
    its two factors swapped, the qubit's transposed and conjugated by eps."""
    t = _r_cloner(n).reshape(2, n + 1, 2, n + 1)[::-1, :, ::-1]  # eps's permutation of the qubit
    r = t.transpose(1, 2, 3, 0).copy()  # r[s, q, s', q'] = t[q', s, q, s']
    for q in (0, 1):  # eps's signs; 0.0 - x keeps a zero +0.0
        r[:, q, :, 1 - q] = 0.0 - r[:, q, :, 1 - q]
    return r.reshape(2 * (n + 1), 2 * (n + 1))


def _r_entangler_a() -> np.ndarray:
    ln2 = math.log(2.0)
    p0 = np.diag([1.0, 0.0]).astype(np.complex128)
    p1 = np.diag([0.0, 1.0]).astype(np.complex128)
    raise01 = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    proj00 = np.outer(KET_00, KET_00.conj())
    proj_plus = np.outer(PSI_PLUS, PSI_PLUS.conj())
    cross = np.outer(KET_00, PSI_PLUS.conj())
    r = (
        (2 * ln2 - 1) * np.kron(p0, proj00)
        + (3 - 4 * ln2) * np.kron(p1, proj00)
        + (1.5 - 2 * ln2) * np.kron(p0, proj_plus)
        + (4 * ln2 - 2.5) * np.kron(p1, proj_plus)
        + math.sqrt(2) * (1.5 - 2 * ln2) * (np.kron(raise01, cross) + np.kron(raise01.T, cross.conj().T))
    )
    return r


def _r_entangler_b() -> np.ndarray:
    g = np.eye(4, dtype=np.complex128)
    for sigma in PAULI:
        g += np.kron(sigma, sigma) / 3.0
    return np.kron(np.eye(2), g) / 8.0


def _r_shifter(alpha: float) -> np.ndarray:
    ca, sa = math.cos(alpha), math.sin(alpha)
    r = np.diag(
        [
            0.25 + ca / 12 - math.pi * sa / 16,
            0.25 - ca / 12 + math.pi * sa / 16,
            0.25 - ca / 12 - math.pi * sa / 16,
            0.25 + ca / 12 + math.pi * sa / 16,
        ]
    ).astype(np.complex128)
    r[0, 3] = r[3, 0] = ca / 6.0
    return r


def damping_channel(beta: float) -> ChoiOperator:
    """Qubit damping channel: |0><0| -> cos^2(b)|0><0| + sin^2(b)|1><1|,
    coherences scaled by cos(b), |1><1| fixed.

    beta in [0, pi]; values above pi/2 give a negative coherence factor, which
    is still completely positive and is what the optimal shifter channel uses
    for shifts past pi/2.
    """
    if not (linalg.is_real(beta) and 0.0 <= beta <= math.pi):
        raise OutOfRangeError(f"beta {linalg._shown(beta)} outside [0, pi]")
    c, s = math.cos(beta), math.sin(beta)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = c * c
    m[1, 1] = s * s
    m[0, 3] = m[3, 0] = c
    m[3, 3] = 1.0
    return ChoiOperator(2, 2, m)


def damping_fidelity(alpha: float, beta: float) -> float:
    """Mean fidelity of damping_channel(beta) against the shift-by-alpha target:
    1/2 + cos(a)/6 (cos^2 b + 2 cos b) + pi/8 sin(a) sin^2 b."""
    return float(
        0.5
        + math.cos(alpha) / 6.0 * (math.cos(beta) ** 2 + 2.0 * math.cos(beta))
        + math.pi / 8.0 * math.sin(alpha) * math.sin(beta) ** 2
    )


@dataclass(frozen=True)
class ShifterOptimum:
    """Closed-form optimum of the damping ansatz for one shift angle."""

    alpha: float
    alpha0: float
    beta_opt: float
    fidelity: float
    fidelity_of_beta: Callable[[float], float]


def shifter_closed_forms(alpha: float) -> ShifterOptimum:
    """Optimal damping angle and fidelity for a shift by alpha.

    Below the threshold alpha0 = arctan(8/(3 pi)) the stationary damping angle
    is 0 (identity channel) and F = (1 + cos a)/2; above it the better root is
    cos(beta) = (3 pi/4 tan(a) - 1)^{-1}.  The formula is evaluated as
    written all the way to alpha = pi, where beta reaches pi and F = 2/3.
    """
    if not (linalg.is_real(alpha) and 0.0 <= alpha <= math.pi):
        raise OutOfRangeError(f"alpha {linalg._shown(alpha)} outside [0, pi]")
    if alpha <= ALPHA_THRESHOLD:
        beta = 0.0
        f = 0.5 * (1.0 + math.cos(alpha))
    else:
        cos_beta = 1.0 / (0.75 * math.pi * math.tan(alpha) - 1.0)
        beta = math.acos(min(1.0, max(-1.0, cos_beta)))
        f = damping_fidelity(alpha, beta)
    return ShifterOptimum(
        alpha=alpha,
        alpha0=ALPHA_THRESHOLD,
        beta_opt=beta,
        fidelity=f,
        fidelity_of_beta=lambda b: damping_fidelity(alpha, b),
    )


def entangler_a_state_fidelity(theta) -> np.ndarray:
    """Pointwise fidelity of the optimal entangling isometry:
    [sqrt(2) cos^2(t/2) + sin^2(t/2)]^2 / (1 + cos^2(t/2))."""
    theta = np.asarray(theta, dtype=float)
    c2 = np.cos(theta / 2) ** 2
    return (math.sqrt(2) * c2 + (1.0 - c2)) ** 2 / (1.0 + c2)


ENTANGLER_A_FIDELITY = 3.0 * math.sqrt(2.0) - 3.5 + (6.0 - 4.0 * math.sqrt(2.0)) * math.log(2.0)
ENTANGLER_A_MIN_FIDELITY = 4.0 * math.sqrt(2.0) * (math.sqrt(2.0) - 1.0) ** 2


def entangler_a_isometry() -> np.ndarray:
    """The optimal entangling isometry |0> -> |00>, |1> -> (|01>+|10>)/sqrt(2)."""
    return np.stack((KET_00, PSI_PLUS), axis=1)


def entangler_b_output_state() -> np.ndarray:
    """The constant optimal output (|00><00| + |11><11| + |Psi+><Psi+|)/3."""
    return (np.diag([1.0, 0.0, 0.0, 1.0]) + np.outer(PSI_PLUS, PSI_PLUS.conj())) / 3.0


@dataclass(frozen=True)
class KnownOptimum:
    """Best known fidelity for a model, with the optimal channel when one is
    specified in closed form."""

    fidelity: float
    chi: ChoiOperator | None


@dataclass(frozen=True)
class _Model:
    """One kind's facts: its dims, its family's evaluator and quadrature
    degree, and zero-argument builders of R's closed-form matrix (target) and
    of the known optimum, so that a family builds neither and R no optimum;
    dual, where known in closed form, builds the optimal diagonal y of the
    dual SDP from R's matrix."""

    dims: tuple[int, int]
    evaluator: Callable
    degree: int
    target: Callable[[], np.ndarray]
    optimum: Callable[[], KnownOptimum]
    dual: Callable[[np.ndarray], np.ndarray] | None = None


def _model(spec: ModelSpec) -> _Model:
    """The facts of spec's kind at spec's parameters: the one dispatch on the kind."""
    n, alpha = spec.copies, spec.alpha
    if spec.kind == "unot":
        ev = lambda t, p: (symmetric_state(n, t, p), orthogonal_state(t, p))
        # chi = 2R at N = 1: twice the projector onto span{|01>,|10>,|Phi->}/3.
        chi = lambda: ChoiOperator(2, 2, 2.0 * _r_unot(1)) if n == 1 else None
        optimum = lambda: KnownOptimum((n + 1) / (n + 2), chi())
        return _Model((n + 1, 2), ev, 2 * (n + 1), lambda: _r_unot(n), optimum)
    if spec.kind == "cloner":
        ev = _from_qubit(lambda a: _symmetric_power(a, n))
        optimum = lambda: KnownOptimum(2.0 / (n + 1), None)
        return _Model((2, n + 1), ev, 2 * (n + 1), lambda: _r_cloner(n), optimum)
    if spec.kind == "entangler_a":

        def optimum():
            w = entangler_a_isometry().T.ravel()  # |0>|00> + |1>|Psi+>
            return KnownOptimum(ENTANGLER_A_FIDELITY, ChoiOperator(2, 4, np.outer(w, w.conj())))

        # The output is rational in cos(theta): no finite trig degree exists,
        # but its harmonics decay geometrically, so the default node floor of
        # the quadrature already integrates it to rounding.
        return _Model((2, 4), _from_qubit(_entangler_a_output), 4, _r_entangler_a, optimum)
    if spec.kind == "entangler_b":
        chi = lambda: ChoiOperator(2, 4, linalg.kron(np.eye(2), entangler_b_output_state()))
        optimum = lambda: KnownOptimum(1.0 / 3.0, chi())
        return _Model((2, 4), _from_qubit(_entangler_b_output), 6, _r_entangler_b, optimum)

    # The shifter, and identity as the shifter at alpha = 0.  Its output is
    # evaluated literally at theta + alpha even past the pole; that is the
    # convention under which the closed-form target is derived.  Both states share phi's phase.
    def ev(t, p):
        phase = np.exp(1j * np.asarray(p, dtype=float))
        return _bloch(t, phase), _bloch(np.asarray(t, dtype=float) + alpha, phase)

    def optimum():
        opt = shifter_closed_forms(alpha)
        return KnownOptimum(opt.fidelity, damping_channel(opt.beta_opt))

    return _Model((2, 2), ev, 4, lambda: _r_shifter(alpha), optimum, _shifter_dual)


def _shifter_dual(r: np.ndarray) -> np.ndarray:
    """The optimal y of min y0 + y1 s.t. diag(y) (x) 1 >= R for the shifter's R:
    with a = R00, b = R33 and c = |R03|, y0 = max(a + c, R11) and
    y1 = b + c^2 / (y0 - a).  Below alpha0, y0 = a + c (the identity channel's
    dual); above it, the bound y0 >= R11 is active."""
    a, b, c, r11 = r[0, 0].real, r[3, 3].real, abs(r[0, 3]), r[1, 1].real
    y0 = max(a + c, r11)
    return np.array([y0, b + c * c / (y0 - a)])


def model_family(spec: ModelSpec) -> StateFamily:
    """State family (input/output evaluator plus quadrature degree) for a model."""
    model = _model(spec)
    return StateFamily(*model.dims, model.evaluator, model.degree)


def analytic_r(spec: ModelSpec) -> TargetOperator:
    """Closed-form target operator; matches build_r_quadrature(model_family(...)).
    It carries the optimum's dual where that is known in closed form (the
    shifter and identity), else none."""
    model = _model(spec)
    m = model.target()
    return TargetOperator(*model.dims, m, dual=None if model.dual is None else model.dual(m))


def known_optimum(spec: ModelSpec) -> KnownOptimum:
    """The best known fidelity for a model, with the optimal channel where it is known in closed form."""
    return _model(spec).optimum()
