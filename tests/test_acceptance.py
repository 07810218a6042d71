"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from choiopt.analysis import alpha_scan, ppt_check, state_fidelity_curve
from choiopt.channels import (
    DensityMatrix,
    apply_matrix,
    choi_from_kraus,
    dilation,
    kraus_from_choi,
    maxmix_choi,
    validate_choi,
)
from choiopt.linalg import partial_trace, psd_sqrt
from choiopt.models import (
    ALPHA_THRESHOLD,
    ENTANGLER_A_FIDELITY,
    ENTANGLER_A_MIN_FIDELITY,
    ModelSpec,
    analytic_r,
    entangler_a_isometry,
    entangler_a_state_fidelity,
    model_family,
)
from choiopt.solver import SolverOptions, iterate_once, random_choi, solve
from choiopt.targets import TargetOperator, build_r_montecarlo, build_r_quadrature, fidelity_bound
from helpers import (
    entangler_b_mixed_state,
    random_density,
    random_psd,
    unot_channel_action,
)

REPRESENTATIVE_SPECS = [
    ModelSpec("unot", copies=1),
    ModelSpec("cloner", copies=2),
    ModelSpec("entangler_a"),
    ModelSpec("entangler_b"),
    ModelSpec("shifter", alpha=1.9),
    ModelSpec("identity"),
]


def _report(line):
    print(f"\n{line}")


def test_criterion_1_unot_bound():
    for n in range(1, 6):
        bound = fidelity_bound(analytic_r(ModelSpec("unot", copies=n)))
        assert abs(bound - (n + 1) / (n + 2)) < 1e-12, f"N={n}"
    _report("criterion 1: PASS — inverting-gate bound (N+1)/(N+2) for N=1..5 within 1e-12")


def test_criterion_2_unot_solve():
    r = analytic_r(ModelSpec("unot", copies=1))
    fids = [solve(r).fidelity]
    for seed in range(10):
        fids.append(solve(r, SolverOptions(init=f"random:{seed}")).fidelity)
    assert all(abs(f - 2 / 3) < 1e-9 for f in fids)

    chi1 = iterate_once(maxmix_choi(2, 2), r)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            got = apply_matrix(chi1, unit)
            assert np.abs(got - unot_channel_action(unit)).max() < 1e-12
    _report(
        "criterion 2: PASS — F = 2/3 from maxmix and 10 random starts; one step from "
        "the unbiased start is the state-independent inverting channel"
    )


def test_criterion_3_cloner():
    for n in range(1, 6):
        bound = fidelity_bound(analytic_r(ModelSpec("cloner", copies=n)))
        assert abs(bound - 2 / (n + 1)) < 1e-12, f"N={n}"
    result = solve(analytic_r(ModelSpec("cloner", copies=2)))
    assert result.converged and result.iterations <= 200
    assert abs(result.fidelity - 2 / 3) < 1e-10
    _report(
        f"criterion 3: PASS — cloning bound 2/(N+1) for N=1..5; N=2 solve reached "
        f"|F - 2/3| = {abs(result.fidelity - 2 / 3):.2e} in {result.iterations} iterations"
    )


def test_criterion_4_entangler_a():
    spec = ModelSpec("entangler_a")
    r = analytic_r(spec)
    assert abs(fidelity_bound(r) - 1.0) < 1e-12
    result = solve(r)
    assert abs(result.fidelity - ENTANGLER_A_FIDELITY) < 1e-8

    ks = kraus_from_choi(result.chi)
    assert len(ks.operators) == 1
    op = ks.operators[0]
    phase = op[np.abs(op).argmax() // 2, np.abs(op).argmax() % 2]
    op = op * (phase.conjugate() / abs(phase))
    assert np.abs(op - entangler_a_isometry()).max() < 1e-8

    curve = state_fidelity_curve(result.chi, model_family(spec), theta_steps=1001)
    assert np.abs(curve[:, 1] - entangler_a_state_fidelity(curve[:, 0])).max() < 1e-10
    assert abs(curve[:, 1].min() - ENTANGLER_A_MIN_FIDELITY) < 1e-4
    _report(
        f"criterion 4: PASS — entangler-A F = {result.fidelity:.10f}, single Kraus "
        f"operator equals the optimal isometry, curve matches the closed form"
    )


def test_criterion_5_entangler_b():
    spec = ModelSpec("entangler_b")
    result = solve(analytic_r(spec))
    assert abs(result.fidelity - 1 / 3) < 1e-9

    expected = entangler_b_mixed_state()
    for seed in range(20):
        rho = random_density(np.random.default_rng(seed), 2)
        assert np.abs(apply_matrix(result.chi, rho) - expected).max() < 1e-8

    report = ppt_check(DensityMatrix(expected), 2, 2)
    assert report.ppt and report.certifies_separability
    _report(
        "criterion 5: PASS — entangler-B F = 1/3, constant mixed output for 20 random "
        "inputs, output state is PPT (separable)"
    )


def test_criterion_6_shifter_scan():
    alphas = np.linspace(0.0, np.pi, 101)
    rows = alpha_scan(alphas)
    step = alphas[1] - alphas[0]

    for row in rows:
        assert abs(row.F_solver - row.F_closed) < 1e-6, f"alpha={row.alpha}"
        assert row.F_solver <= row.F_bound + 1e-9

    touch_points = (0.0, np.pi / 2, np.pi)
    for row in rows:
        gap = row.F_bound - row.F_solver
        near_touch = any(abs(row.alpha - t) <= step + 1e-12 for t in touch_points)
        if gap < 1e-6:
            assert near_touch, f"bound touched away from the three points at alpha={row.alpha}"

    mid = rows[50]
    assert abs(mid.alpha - np.pi / 2) < 1e-12
    assert abs(mid.F_solver - (4 + np.pi) / 8) < 1e-9

    interior = [r for r in rows if ALPHA_THRESHOLD < r.alpha < np.pi]
    witness = any(
        a.F_solver < b.F_solver for a, b in zip(interior, interior[1:])
    )
    assert witness, "no non-monotonicity witness found"
    _report(
        "criterion 6: PASS — 101-point scan matches the piecewise closed form within "
        "1e-6, respects the bound, touches it only at {0, pi/2, pi}, and is non-monotonic"
    )


def test_criterion_7_quadrature_and_montecarlo():
    for seed, spec in enumerate(REPRESENTATIVE_SPECS):
        family = model_family(spec)
        exact = analytic_r(spec).matrix
        quad = build_r_quadrature(family).matrix
        assert np.abs(quad - exact).max() < 1e-10, f"quadrature {spec}"
        mc = build_r_montecarlo(family, samples=10**6, seed=1000 + seed).matrix
        assert np.abs(mc - exact).max() < 5e-3, f"monte-carlo {spec}"
    _report(
        "criterion 7: PASS — quadrature matches closed forms within 1e-10 and 1e6-sample "
        "Monte Carlo within 5e-3 for every model"
    )


def test_criterion_8_randomized_structural_invariants():
    rng = np.random.default_rng(20240817)
    dims_pool = [(2, 2), (2, 3), (3, 2), (2, 4)]

    for trial in range(500):
        d1, d2 = dims_pool[rng.integers(len(dims_pool))]
        m = rng.standard_normal((d1 * d2,) * 2) + 1j * rng.standard_normal((d1 * d2,) * 2)
        assert abs(np.trace(partial_trace(m, d1, d2, "first")) - np.trace(m)) <= 1e-12 * max(
            1.0, abs(np.trace(m))
        )

    for trial in range(500):
        p = random_psd(rng, int(rng.integers(2, 7)))
        s = psd_sqrt(p)
        assert np.linalg.norm(s @ s - p) <= 1e-10 * max(1.0, np.linalg.norm(p))

    for trial in range(500):
        din, dout = dims_pool[rng.integers(len(dims_pool))]
        chi = random_choi(din, dout, seed=int(rng.integers(2**32)))
        ks = kraus_from_choi(chi, cutoff=0.0)
        assert np.linalg.norm(choi_from_kraus(ks).matrix - chi.matrix) <= 1e-9
        d = dilation(kraus_from_choi(chi))
        assert np.abs(d.conj().T @ d - np.eye(din)).max() <= 1e-10

    for trial in range(500):
        din, dout = dims_pool[rng.integers(len(dims_pool))]
        p = random_psd(rng, din * dout)
        r = TargetOperator(din, dout, p / np.trace(p).real)
        chi = random_choi(din, dout, seed=int(rng.integers(2**32)))
        out = validate_choi(iterate_once(chi, r))
        assert out.trace_preservation_deviation <= 1e-9
        assert out.min_eigenvalue >= -1e-10
    _report(
        "criterion 8: PASS — 500 randomized trials each: partial-trace preservation, "
        "square-root squaring, Kraus round trip, dilation orthonormality, iteration "
        "constraint preservation"
    )


def test_criterion_9_reference_value_table():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", root / "scripts" / "verify_reference_values.py"],
        capture_output=True,
        text=True,
        cwd=root,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all values reproduced: yes" in proc.stdout
    assert any("0.6666666667" in line for line in proc.stdout.splitlines())
    _report("criterion 9: PASS — verification table reproduced all reference values")
    print(proc.stdout)
