#!/usr/bin/env python3
"""Reference-value verification table.

Solves every built-in model and prints each reference value next to the
solver result and their absolute difference.  Exits 0 when every difference
is below its tolerance, 1 otherwise.  Run via `make verify` or directly:

    python3 scripts/verify_reference_values.py
"""

import bisect
import math
import sys

import numpy as np

from choiopt.analysis import state_fidelity_curve
from choiopt.models import (
    ALPHA_THRESHOLD,
    ENTANGLER_A_FIDELITY,
    ENTANGLER_A_MIN_FIDELITY,
    ModelSpec,
    analytic_r,
    model_family,
    shifter_closed_forms,
)
from choiopt.solver import solve


def solver_alpha_threshold(step=5e-4, window=0.02):
    """Locate where damping starts to beat the identity channel, from solver runs.

    Bisects the grid for its first angle where it does, which relies on the
    solver's advantage being monotone in alpha over the window; NaN when even
    the last grid angle shows none.
    """
    alphas = np.arange(ALPHA_THRESHOLD - window, ALPHA_THRESHOLD + window, step)

    def damping_wins(alpha):
        result = solve(analytic_r(ModelSpec("shifter", alpha=float(alpha))))
        return bool(result.fidelity - 0.5 * (1.0 + math.cos(alpha)) > 1e-9)

    i = bisect.bisect_left(alphas, True, key=damping_wins)
    return float(alphas[i]) if i < len(alphas) else float("nan")


def main():
    rows = []

    def add(name, reference, solved, tol):
        rows.append((name, reference, solved, abs(solved - reference), tol))

    result = solve(analytic_r(ModelSpec("unot", copies=1)))
    add("inverting gate N=1, F", 2 / 3, result.fidelity, 1e-9)

    for n in range(1, 6):
        result = solve(analytic_r(ModelSpec("cloner", copies=n)))
        add(f"1->{n} cloner, F = 2/(N+1)", 2 / (n + 1), result.fidelity, 1e-9)

    ent_a = solve(analytic_r(ModelSpec("entangler_a")))
    add("entangler A, mean F", ENTANGLER_A_FIDELITY, ent_a.fidelity, 1e-8)

    curve = state_fidelity_curve(ent_a.chi, model_family(ModelSpec("entangler_a")), 2001)
    add("entangler A, min F", ENTANGLER_A_MIN_FIDELITY, float(curve[:, 1].min()), 1e-4)

    ent_b = solve(analytic_r(ModelSpec("entangler_b")))
    add("entangler B, F", 1 / 3, ent_b.fidelity, 1e-9)

    half_pi = solve(analytic_r(ModelSpec("shifter", alpha=math.pi / 2)))
    add("shifter, F(pi/2) = (4+pi)/8", (4 + math.pi) / 8, half_pi.fidelity, 1e-9)

    add(
        "shifter threshold alpha0",
        ALPHA_THRESHOLD,
        solver_alpha_threshold(),
        2e-3,
    )

    name_width = max(len(r[0]) for r in rows) + 2
    print(f"{'quantity':<{name_width}}{'reference':>16}{'solver':>16}{'|diff|':>12}")
    ok = True
    for name, ref, got, diff, tol in rows:
        ok = ok and diff <= tol
        flag = "" if diff <= tol else "  <-- exceeds tolerance"
        print(f"{name:<{name_width}}{ref:>16.10f}{got:>16.10f}{diff:>12.2e}{flag}")
    print(f"all values reproduced: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
