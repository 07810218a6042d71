import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_reference_solve_converges_and_every_endgame_certifies():
    cmd = [sys.executable, str(ROOT / "scripts" / "reference_set.py")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    solves, endgame, verdict = proc.stdout.splitlines()
    assert solves.startswith("solves = 381  ")
    calls, certified = (int(part.split(" = ")[1]) for part in endgame.split("  "))
    assert calls == certified >= 1
    assert verdict.startswith("raised = 0  unconverged = 0  ")
    assert verdict.endswith("endgame rows off by more than 1e-12 = 0")
