import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def proc():
    """One run of the reference-set script, shared by every test here."""
    cmd = [sys.executable, str(ROOT / "scripts" / "reference_set.py")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


def test_every_reference_solve_converges_and_every_endgame_certifies(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    solves, endgame, verdict = proc.stdout.splitlines()
    assert solves.startswith("solves = 381  ")
    calls, certified = (int(part.split(" = ")[1]) for part in endgame.split("  "))
    assert calls == certified >= 1
    assert verdict.startswith("raised = 0  unconverged = 0  ")
    assert verdict.endswith("endgame rows off by more than 1e-12 = 0")


def test_first_line_reports_the_endgame_time(proc):
    solves = proc.stdout.splitlines()[0]
    total = float(solves.split("  time = ")[1].split(" s")[0])
    endgame = solves.split("  ")[-1]
    assert endgame.startswith("endgame time = ") and endgame.endswith(" s")
    assert 0.0 < float(endgame.removeprefix("endgame time = ").removesuffix(" s")) <= total
