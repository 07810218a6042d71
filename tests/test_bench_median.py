import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_record(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # bench_record imports bench_pairs
    return importlib.import_module("bench_record")


def result(wall: float, failed: int = 0) -> dict:
    """A run's last output line, as perfbench/run.py --trace 0 prints it."""
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def test_median_of_the_runs_with_each_run_kept(bench_record):
    entry = bench_record.median_of_runs([result(0.9), result(0.7), result(0.8, failed=1)])
    assert entry["metrics"] == {"wall_s": {"value": 0.8, "unit": "s", "runs": [0.9, 0.7, 0.8]}}
    assert (entry["correct"], entry["attempted"], entry["failed"]) == (False, 30, 1)
