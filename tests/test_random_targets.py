"""Seeded random finite ensembles: targets without a block plan, dim_in > dim_out
among them, solved with default options.  Only what holds on every target is
asserted; how many answers fall short of an independent reference is reported."""

from functools import lru_cache

import numpy as np
import pytest

from choiopt.channels import fidelity
from choiopt.errors import ChoiOptError
from choiopt.solver import SolverOptions, _dual_endgame, solve
from choiopt.targets import TargetOperator

ENSEMBLES = 20
INITS = ("maxmix", "random:1")
ROUNDING = 1e-12


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@lru_cache(maxsize=None)
def ensembles() -> tuple:
    """(name, target) per ensemble: R = (1/m) sum_s v_s v_s^dagger with
    v_s = conj(psi_in,s) (x) psi_out,s, Hermitian part taken.  Even indices take
    m Haar pairs, odd ones a u1 family psi_in = sum_j c_j e^{i j phi} |j>,
    psi_out = sum_j c'_j e^{i q j phi} |j> on a uniform grid of m angles."""
    rng = np.random.default_rng(12345)
    out = []
    for index in range(ENSEMBLES):
        d, k = (int(x) for x in rng.integers(2, 4, size=2))
        if index % 2 == 0:
            m = int(rng.choice([2, d, d * k, 3 * d * k]))
            psi_in, psi_out = (_unit(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) for n in (d, k))
            name = f"haar-{d}x{k}-m{m}"
        else:
            m, q = int(rng.choice([7, 16])), int(rng.choice([-1, 1, 2]))
            c_in, c_out = _unit(rng.standard_normal(d)), _unit(rng.standard_normal(k))
            phi = 2 * np.pi * np.arange(m) / m
            psi_in = c_in * np.exp(1j * np.outer(phi, np.arange(d)))
            psi_out = c_out * np.exp(1j * q * np.outer(phi, np.arange(k)))
            name = f"u1-{d}x{k}-m{m}-q{q}"
        v = (psi_in.conj()[:, :, None] * psi_out[:, None, :]).reshape(m, d * k)
        r = v.T @ v.conj() / m
        out.append((f"{index}-{name}", TargetOperator(d, k, (r + r.conj().T) / 2)))
    return tuple(out)


@lru_cache(maxsize=None)
def outcome(index: int, init: str):
    """The solve of ensemble index from init: (result, None) or (None, what it raised)."""
    try:
        return solve(ensembles()[index][1], SolverOptions(init=init)), None
    except Exception as exc:  # judged by the tests, not here
        return None, exc


ROWS = [(i, init) for i in range(ENSEMBLES) for init in INITS]
IDS = [f"{ensembles()[i][0]}-{init}" for i, init in ROWS]


@pytest.mark.parametrize("index, init", ROWS, ids=IDS)
def test_a_raise_is_typed(index, init):
    exc = outcome(index, init)[1]
    assert exc is None or isinstance(exc, ChoiOptError), repr(exc)


@pytest.mark.parametrize("index, init", ROWS, ids=IDS)
def test_fidelity_within_the_bound(index, init):
    result = outcome(index, init)[0]
    if result is not None:
        assert result.fidelity <= result.bound + ROUNDING


@lru_cache(maxsize=None)
def reference_lead(index: int, init: str):
    """How far the dual endgame's answer, warm-started from the result, beats the
    result's fidelity; None when the solve raised or the endgame gave no answer."""
    result, r = outcome(index, init)[0], ensembles()[index][1]
    reference = None if result is None else _dual_endgame(r, result.chi)
    return None if reference is None else fidelity(reference[0], r) - result.fidelity


@pytest.mark.parametrize("index, init", ROWS, ids=IDS)
def test_a_certified_gap_covers_the_reference(index, init):
    # Any admissible answer bounds the optimum from below, so a certified gap
    # is at least the reference answer's lead over the result.
    result, lead = outcome(index, init)[0], reference_lead(index, init)
    if result is not None and not np.isnan(result.gap) and lead is not None:
        assert result.gap >= lead


def test_the_off_tally_is_reported(capsys):
    # Not asserted: an uncertified stop can sit short of the optimum.
    results = [outcome(index, init)[0] for index, init in ROWS]
    raised = sum(result is None for result in results)
    certified = sum(result is not None and not np.isnan(result.gap) for result in results)
    off = sum((reference_lead(*row) or 0.0) > ROUNDING for row in ROWS)
    with capsys.disabled():
        print(f"\nrandom targets: {len(ROWS)} solves, {raised} raised, {certified} certified, {off} off")
