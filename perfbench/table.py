"""Fixed iteration table: models and starts that do not depend on the seed.

Each row solves one closed-form target with default options and records the
iteration count, the convergence flag and the true error against
known_optimum.  The counts repeat exactly from run to run, so a change to
the iteration (acceleration, a new stopping rule) shows in them directly.

Three rows show known defects that the workloads steer around: at
ALPHA_THRESHOLD + 1e-4 and at pi - 1e-3 the solver reports converged=True
while its fidelity is off by more than 1e-9, and at 3.13 it stops
unconverged at max_iters.

FLOPs and bytes per iteration are computed from the dimensions with the
operation counts of the current update, not measured.
"""

from __future__ import annotations

import math

from choiopt import models, solver

ROWS = (
    ("shifter-0.5", models.ModelSpec("shifter", alpha=0.5), "maxmix"),
    ("shifter-0.7", models.ModelSpec("shifter", alpha=0.7), "maxmix"),
    ("shifter-0.7048", models.ModelSpec("shifter", alpha=0.7048), "maxmix"),
    ("shifter-0.71", models.ModelSpec("shifter", alpha=0.71), "maxmix"),
    ("shifter-3.0", models.ModelSpec("shifter", alpha=3.0), "maxmix"),
    ("shifter-a0-plus-1e-4", models.ModelSpec("shifter", alpha=models.ALPHA_THRESHOLD + 1e-4), "maxmix"),
    ("shifter-3.13", models.ModelSpec("shifter", alpha=3.13), "maxmix"),
    ("shifter-pi-minus-1e-3", models.ModelSpec("shifter", alpha=math.pi - 1e-3), "maxmix"),
    ("cloner-10", models.ModelSpec("cloner", copies=10), "maxmix"),
    ("unot-30-random-1", models.ModelSpec("unot", copies=30), "random:1"),
)

COMPLEX_BYTES = 16
# Real-arithmetic cost of a complex Hermitian eigendecomposition with
# eigenvectors, about: tridiagonal reduction 16/3 d^3, back-transformation
# 8 d^3, tridiagonal solve ~12 d^3.
EIGH_FLOPS_PER_D3 = 26


def flops_per_iteration(dim_in: int, dim_out: int) -> int:
    """Computed real FLOPs of one update plus its fidelity evaluation."""
    n, d = dim_in * dim_out, dim_in
    matmul = 8 * n**3  # one complex n x n product
    products = 2 * matmul + 2 * matmul + matmul  # R chi R, the Lambda sandwich, chi R
    marginal_roots = 2 * (EIGH_FLOPS_PER_D3 * d**3 + 8 * d**3)  # psd_sqrt, reg_inverse
    elementwise = 16 * n**2  # partial trace, Hermitian part, change of chi
    return products + marginal_roots + elementwise


def bytes_per_iteration(dim_in: int, dim_out: int) -> int:
    """Computed bytes of n x n complex matrices read and written per update."""
    n2 = (dim_in * dim_out) ** 2
    matrices = (
        5 * 3  # five products: two operands read, one result written
        + 1  # the Lambda^{-1} (x) 1 sandwich factor written
        + 5  # Hermitian part: read, conjugate transpose, sum, scale
        + 2  # frozen copy in ChoiOperator
        + 4  # norm of the change of chi
        + 1  # partial trace read
    )
    return matrices * COMPLEX_BYTES * n2


def iteration_table() -> list[dict]:
    rows = []
    for name, spec, init in ROWS:
        result = solver.solve(models.analytic_r(spec), solver.SolverOptions(init=init))
        dim_in, dim_out = spec.dims
        rows.append(
            {
                "name": name,
                "model": f"{spec.kind} copies={spec.copies} alpha={spec.alpha!r}",
                "init": init,
                "iterations": result.iterations,
                "converged": result.converged,
                "true_error": abs(result.fidelity - models.known_optimum(spec).fidelity),
                "computed_flops_per_iter": flops_per_iteration(dim_in, dim_out),
                "computed_bytes_per_iter": bytes_per_iteration(dim_in, dim_out),
            }
        )
    return rows
