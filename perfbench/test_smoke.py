"""Smoke run of the benchmark: every workload at small sizes, untraced and
traced.  Every metric that BENCHMARK.json names is printed by name with its
unit, no item fails, and without the package the benchmark refuses to run.
The span accounting is checked in a separate interpreter, because tracing
replaces functions inside the package."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *argv],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", "smoke"
    )
    assert proc.returncode == 0, proc.stderr
    *text, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {line.split()[0]: line.split()[1:] for line in text if line.startswith("  ") and line.split()}
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert unit in printed[name][1:2], f"{name} printed without its unit {unit}"
        assert isinstance(result["metrics"][name]["value"], (int, float))
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], "\n".join(l for l in text if l.startswith("FAIL"))
    assert float(printed["fail_frac"][0]) == 0.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "wide-solve", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


SPAN_CHECK = """
import sys
sys.path[:0] = ["src", "perfbench"]
import numpy as np
import tracer as tracing
from choiopt import analysis, models, solver

tracer = tracing.Tracer()
tracer.install()
r = models.analytic_r(models.ModelSpec("shifter", alpha=0.5))
tracer.on = True
result = solver.solve(r)
analysis.alpha_scan([1.0, 2.0])
tracer.on = False
a = tracer.arrays()
s = tracer.summarize()
roots = a["parent"] < 0
assert list(np.unique(a["root"])) == [0, 1]
assert abs(sum(s.self_s.values()) - (a["end"] - a["start"])[roots].sum()) < 1e-9
assert s.calls["solver.solve"] == 3 and s.calls["analysis.alpha_scan"] == 1
assert s.calls["solver.iterate_once"] == s.counts["solver.iterations"] >= result.iterations
assert min(s.self_s.values()) >= 0.0
"""


def test_self_times_add_up_to_the_top_level_calls():
    proc = subprocess.run([sys.executable, "-c", SPAN_CHECK], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
