import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_records_every_workload(tmp_path):
    out = tmp_path / "BENCH_0.json"
    cmd = [
        sys.executable, str(ROOT / "scripts" / "bench_record.py"),
        "--pr", "0", "--seed", "1", "--size", "smoke", "--seconds", "0", "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert (record["pr"], record["seed"], record["size"]) == (0, 1, "smoke")
    assert record["commit"]
    assert list(record["workloads"]) == ["shifter-scan", "wide-solve", "sampled-pipeline"]
    for result in record["workloads"].values():
        assert set(result["metrics"]) == END_TO_END
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
