import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from choiopt import solver
from choiopt.models import ModelSpec, analytic_r
from choiopt.solver import SolverOptions, solve

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def proc():
    """One run of the reference-set script, under make refset's warning policy, shared by every test here."""
    cmd = [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", str(ROOT / "scripts" / "reference_set.py")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


def test_every_reference_solve_converges_and_every_endgame_certifies(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    solves, endgame, verdict = proc.stdout.splitlines()
    assert solves.startswith("solves = 381  ")
    certified, calls = map(int, endgame.split(" endgame calls certified ")[0].split(" of "))
    assert calls == certified >= 1
    assert verdict.startswith("raised = 0  unconverged = 0  ")
    assert verdict.endswith("endgame rows off by more than 1e-12 = 0")


def test_endgame_line_reports_its_time_and_newton_steps(proc):
    # "N of N endgame calls certified (S by a stored dual)  endgame time = T s
    #  Newton steps (median, max) = maxmix none / random:1 M, X / ...", the steps of barrier calls only
    solves, endgame = proc.stdout.splitlines()[:2]
    total = float(solves.split("  time = ")[1].split(" s")[0])
    calls_part, time_part, steps_part = endgame.split("  ")
    certified = int(calls_part.split(" of ")[0])
    by_dual = int(calls_part.removesuffix(" by a stored dual)").split(" (")[1])
    assert 1 <= by_dual < certified  # the shifter rows by their stored dual, and at least one barrier call
    assert time_part.startswith("endgame time = ") and time_part.endswith(" s")
    assert 0.0 < float(time_part.removeprefix("endgame time = ").removesuffix(" s")) <= total
    by_start = [entry.split(" ", 1) for entry in steps_part.removeprefix("Newton steps (median, max) = ").split(" / ")]
    assert [init for init, _ in by_start] == ["maxmix", "random:1", "random:2"]
    assert any(counts != "none" for _, counts in by_start)
    for _, counts in by_start:
        if counts != "none":
            median, largest = (float(count) for count in counts.split(", "))
            assert 1 <= median <= largest <= 45  # TestPredictorCorrector.BUDGET


def test_first_line_splits_the_iterations_by_start(proc):
    # "iterations = TOTAL (maxmix A / random:1 B / random:2 C)"
    part = proc.stdout.splitlines()[0].split("  iterations = ")[1].split("  ")[0]
    total, by_start = part.removesuffix(")").split(" (")
    counts = [entry.split(" ") for entry in by_start.split(" / ")]
    assert [init for init, _ in counts] == ["maxmix", "random:1", "random:2"]
    assert all(int(count) >= 127 for _, count in counts)  # each of the 127 specs takes a step at least
    assert sum(int(count) for _, count in counts) == int(total)


def test_rows_file_holds_one_line_per_solve(tmp_path, monkeypatch, capsys):
    # In process, on two specs: the script wraps solver._dual_endgame and
    # solver._psd_solve, which monkeypatch puts back afterwards.
    module_spec = importlib.util.spec_from_file_location("reference_set", ROOT / "scripts" / "reference_set.py")
    reference_set = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(reference_set)
    monkeypatch.setattr(solver, "_dual_endgame", solver._dual_endgame)
    monkeypatch.setattr(solver, "_psd_solve", solver._psd_solve)
    specs = [ModelSpec("shifter", alpha=0.71), ModelSpec("unot", copies=2)]
    monkeypatch.setattr(reference_set, "specs", lambda: iter(specs))
    rows = tmp_path / "rows.txt"
    assert reference_set.main(["--rows", str(rows)]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("solves = 6  ")
    lines = rows.read_text().splitlines()
    solves = [(s, init) for s in specs for init in reference_set.STARTS]
    assert [line.rsplit(" ", 8)[:2] for line in lines] == [[str(s), init] for s, init in solves]
    gaps, chis = [], set()
    for (spec, init), line in zip(solves, lines):
        _, _, chi, trace, iterations, converged, fid, gap, lambda_gap = line.rsplit(" ", 8)
        result = solve(analytic_r(spec), SolverOptions(init=init))  # the same solve again, hashed here
        assert chi == "chi=" + hashlib.sha256(result.chi.matrix.tobytes()).hexdigest()[:12]
        assert trace == "trace=" + hashlib.sha256(np.array(result.fidelity_trace).tobytes()).hexdigest()[:12]
        chis.add(chi)
        assert int(iterations) >= 1 and converged == "True" and 0.0 < float(fid) <= 1.0
        assert float(gap) >= 0.0 or gap == "nan"
        assert math.isfinite(float(lambda_gap)) and float(lambda_gap) >= 0.0
        gaps.append(gap)
    assert "nan" in gaps and any(gap != "nan" for gap in gaps)
    assert len(chis) > 1

