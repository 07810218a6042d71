#!/usr/bin/env python3
"""Solve the reference set and print how the solves ended.

The reference set is 381 solves: the 101-point shifter grid on [0, pi], the
shifter at pi - 1e-3, 3.13 and ALPHA_THRESHOLD + 1e-4, unot and cloner for
N = 1..10, entangler-a, entangler-b and identity, each from the starts
maxmix, random:1 and random:2.  Every solve uses the default SolverOptions.
The summary gives the solve count and their summed time, the iterations
(in all, then per start); how many dual-endgame calls certified and how
many of those by the target's stored dual (analytic_r's shifter and
identity), their summed time and, per start, the median and the largest
Newton step count of a barrier call (a target without a stored dual) that
returned an answer, or "none"; the unconverged rows, the rows reported
converged but further than fid_tol from the known optimum, and the rows
that ended through the endgame but further than 1e-12 from it.
Exits 1 when a solve raises or ends unconverged, 0 otherwise.  With --rows
FILE it also writes one line per solve to FILE: spec, init, chi=H and
trace=H (the first 12 hex digits of the SHA-256 of chi's matrix bytes and
of the fidelity trace's float64 bytes), iterations, converged,
repr(fidelity), repr(gap) and repr(lambda_gap), or spec, init and the error
of a raising solve; `diff` of two such files shows which rows changed, a
changed channel too where F, gap and lambda_gap agree (`make refset-diff
REF=<commit>` makes that diff against a commit's src/).  Run via `make
refset [ROWS=FILE]` or directly:

    PYTHONPATH=src python3 scripts/reference_set.py [--rows FILE]
"""

import argparse
import hashlib
import math
import statistics
import sys
import time

import numpy as np

from choiopt import solver
from choiopt.models import ALPHA_THRESHOLD, ModelSpec, analytic_r, known_optimum
from choiopt.solver import SolverOptions, solve

STARTS = ("maxmix", "random:1", "random:2")
ENDGAME_TOL = 1e-12  # distance from the known optimum allowed to a row the endgame finished


def specs():
    alphas = [*np.linspace(0.0, np.pi, 101), np.pi - 1e-3, 3.13, ALPHA_THRESHOLD + 1e-4]
    yield from (ModelSpec("shifter", alpha=float(a)) for a in alphas)
    for kind in ("unot", "cloner"):
        yield from (ModelSpec(kind, copies=n) for n in range(1, 11))
    yield from (ModelSpec(kind) for kind in ("entangler_a", "entangler_b", "identity"))


def stored_dual(r) -> bool:
    """Whether r carries a stored dual; false under a src/ whose targets have
    no dual field, which `make refset-diff` may run this script against."""
    return getattr(r, "dual", None) is not None


def digest(data: bytes) -> str:
    """A row's short SHA-256: its first 12 hex digits."""
    return hashlib.sha256(data).hexdigest()[:12]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", metavar="FILE", help="write one line per solve to FILE")
    args = ap.parse_args(argv)
    calls = solves_made = 0
    endgame_time = 0.0
    newton = {init: [] for init in STARTS}  # per start, the Newton steps of each barrier call that returned an answer
    real, real_solve = solver._dual_endgame, solver._psd_solve

    def counted_solve(m, v):  # one per Newton step, and one in the recovery of an answer
        nonlocal solves_made
        solves_made += 1
        return real_solve(m, v)

    def counted(r, chi):  # counts the endgame calls, sums their time and keeps the barrier's Newton steps
        nonlocal calls, endgame_time, solves_made
        solves_made = 0
        start = time.perf_counter()
        done = real(r, chi)
        endgame_time += time.perf_counter() - start
        calls += 1
        if done is not None and not stored_dual(r):
            newton[init].append(solves_made - 1)
        return done

    solver._dual_endgame, solver._psd_solve = counted, counted_solve
    solves = certified = by_dual = 0
    iterations = dict.fromkeys(STARTS, 0)  # per start
    raised, unconverged, off, endgame_off = [], [], [], []
    elapsed = 0.0
    rows = []
    for spec in specs():
        r, optimum = analytic_r(spec), known_optimum(spec).fidelity
        for init in STARTS:
            opts = SolverOptions(init=init)
            solves += 1
            start = time.perf_counter()
            try:
                result = solve(r, opts)
            except Exception as exc:  # a raising solve is a reported row, not the end of the run
                raised.append(f"{spec} {init}: {type(exc).__name__}: {exc}")
                rows.append(raised[-1])
                continue
            finally:
                elapsed += time.perf_counter() - start
            iterations[init] += result.iterations
            chi, trace = digest(result.chi.matrix.tobytes()), digest(np.array(result.fidelity_trace).tobytes())
            rows.append(
                f"{spec} {init} chi={chi} trace={trace} {result.iterations} {result.converged} "
                f"{result.fidelity!r} {result.gap!r} {result.lambda_gap!r}"
            )
            certified += not math.isnan(result.gap)  # solve keeps a gap only when it certified
            by_dual += not math.isnan(result.gap) and stored_dual(r)
            error = abs(result.fidelity - optimum)
            if not result.converged:
                unconverged.append(f"{spec} {init}")
            elif error > opts.fid_tol:
                off.append(error)
            if not math.isnan(result.gap) and error > ENDGAME_TOL:
                endgame_off.append(f"{spec} {init}: {error:.2e}")
    by_start = " / ".join(f"{init} {count}" for init, count in iterations.items())
    print(f"solves = {solves}  time = {elapsed:.2f} s  iterations = {sum(iterations.values())} ({by_start})")
    steps = " / ".join(
        f"{init} {statistics.median(counts):g}, {max(counts)}" if counts else f"{init} none"
        for init, counts in newton.items()
    )
    print(
        f"{certified} of {calls} endgame calls certified ({by_dual} by a stored dual)  "
        f"endgame time = {endgame_time:.2f} s  "
        f"Newton steps (median, max) = {steps}"
    )
    print(
        f"raised = {len(raised)}  unconverged = {len(unconverged)}  "
        f"converged but off by more than fid_tol = {len(off)} (max {max(off, default=0.0):.2e})  "
        f"endgame rows off by more than {ENDGAME_TOL:g} = {len(endgame_off)}"
    )
    for line in raised + unconverged + endgame_off:
        print(f"  {line}")
    if args.rows:
        with open(args.rows, "w") as f:
            f.writelines(f"{row}\n" for row in rows)
    return 1 if raised or unconverged else 0


if __name__ == "__main__":
    sys.exit(main())
