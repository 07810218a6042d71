"""Machine-speed reference: a fixed kernel timed between the workload's calls.

On a shared virtual machine, other tenants' load can slow everything by
20-40% for stretches of seconds to minutes, CPU time as well as wall time
(seen on a 2-vCPU x86-64 VM).  A run cannot tell such a stretch from a
slower program, so each timing is rescaled by the speed of the machine at
the moment it was taken: a short slice of this kernel runs before every unit
of a pass, and the pass's times are multiplied by

    REFERENCE_SLICE_S / (median slice time in that pass).

The reported times are therefore seconds at the reference speed, the speed
at which one slice takes REFERENCE_SLICE_S (about its median over many runs
on that VM).  The kernel does the same mix of work as the solver: small
Hermitian eigendecompositions and products (interpreter and call overhead)
and 62 x 62 complex ones (BLAS).  It uses numpy only, never choiopt, so a
change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_SLICE_S = 0.0045
SMALL_STEPS = 25
LARGE_STEPS = 2


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = a @ a.conj().T
    return a / np.trace(a).real


_RNG = np.random.default_rng(20011)
_SMALL = _hermitian(_RNG, 16)
_LARGE = _hermitian(_RNG, 62)


def _steps(a: np.ndarray, n: int) -> None:
    x = a
    for _ in range(n):
        w, v = np.linalg.eigh(x)
        x = (v * np.sqrt(np.abs(w))) @ v.conj().T @ a
        x = (x + x.conj().T) / np.trace(x).real


def slice_s() -> float:
    """Time one slice of the kernel."""
    t0 = time.perf_counter()
    _steps(_SMALL, SMALL_STEPS)
    _steps(_LARGE, LARGE_STEPS)
    return time.perf_counter() - t0


def factor(slices: list[float]) -> float:
    """Multiplier from measured seconds to seconds at the reference speed."""
    return REFERENCE_SLICE_S / statistics.median(slices)
