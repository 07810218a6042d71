"""Local-unitary images of the built-in targets: R' = W R W† with
W = conj(U) (x) V for Haar unitaries U (input) and V (output).  W chi W† is
trace-preserving exactly when chi is, so R' keeps R's optimum, while a Haar W
destroys R's zero pattern: the images exercise the dense step, the dense
endgame and the closing check against a known answer.  Only what holds on
every image is asserted; how many converged answers are off is reported."""

from functools import lru_cache

import numpy as np
import pytest

from choiopt.errors import ChoiOptError
from choiopt.models import ModelSpec, analytic_r, known_optimum
from choiopt.solver import SolverOptions, solve
from choiopt.targets import TargetOperator

SPECS = (
    [ModelSpec("unot", copies=n) for n in range(1, 7)]
    + [ModelSpec("cloner", copies=n) for n in range(1, 6)]
    + [ModelSpec("shifter", alpha=a) for a in (0.3, 0.71, 1.5, 2.5, 3.0)]
    + [ModelSpec("entangler_a"), ModelSpec("entangler_b"), ModelSpec("identity")]
)
IMAGES = 3  # Haar pairs (U, V) per built-in
INITS = ("maxmix", "random:1")
ROUNDING = 1e-12


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    """A Haar-random d x d unitary: the QR factor of a complex Gaussian, its phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


@lru_cache(maxsize=None)
def images() -> tuple:
    """(name, image target, known optimum) per built-in and Haar pair, drawn in
    this order from default_rng(2026)."""
    rng = np.random.default_rng(2026)
    out = []
    for spec in SPECS:
        r, best = analytic_r(spec), known_optimum(spec).fidelity
        for k in range(IMAGES):
            w = np.kron(_haar(rng, r.dim_in).conj(), _haar(rng, r.dim_out))
            m = w @ r.matrix @ w.conj().T
            image = TargetOperator(r.dim_in, r.dim_out, (m + m.conj().T) / 2)
            out.append((f"{spec.kind}-{spec.copies}-{spec.alpha:g}-u{k}", image, best))
    return tuple(out)


@lru_cache(maxsize=None)
def outcome(index: int, init: str):
    """The solve of image index from init: (result, None) or (None, what it raised)."""
    try:
        return solve(images()[index][1], SolverOptions(init=init)), None
    except Exception as exc:  # judged by the tests, not here
        return None, exc


ROWS = [(i, init) for i in range(len(SPECS) * IMAGES) for init in INITS]
IDS = [f"{images()[i][0]}-{init}" for i, init in ROWS]


def test_the_images_have_no_block_plan():
    assert all(r.blocks is None for _, r, _ in images())


@pytest.mark.parametrize("index, init", ROWS, ids=IDS)
def test_a_raise_is_typed(index, init):
    exc = outcome(index, init)[1]
    assert exc is None or isinstance(exc, ChoiOptError), repr(exc)


@pytest.mark.parametrize("index, init", ROWS, ids=IDS)
def test_fidelity_within_the_known_optimum(index, init):
    result, best = outcome(index, init)[0], images()[index][2]
    if result is not None:
        assert result.fidelity <= best + ROUNDING


@pytest.mark.parametrize("index, init", ROWS, ids=IDS)
def test_a_certified_gap_covers_the_true_error(index, init):
    result, best = outcome(index, init)[0], images()[index][2]
    if result is not None and not np.isnan(result.gap):
        assert result.gap >= best - result.fidelity


def test_the_off_tally_is_reported(capsys):
    # Not asserted: an uncertified stop can sit short of the optimum.
    results = [(outcome(index, init)[0], images()[index][2]) for index, init in ROWS]
    raised = sum(result is None for result, _ in results)
    certified = sum(result is not None and not np.isnan(result.gap) for result, _ in results)
    errors = [best - result.fidelity for result, best in results if result is not None and result.converged]
    off = [e for e in errors if e > ROUNDING]
    with capsys.disabled():
        print(
            f"\nlocal-unitary images: {len(ROWS)} solves, {raised} raised, {certified} certified, "
            f"{len(off)} converged but off (max {max(off, default=0.0):.2e})"
        )
