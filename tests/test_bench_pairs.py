import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "items_per_s": "higher"}


def result(wall: float, items: float, failed: int = 0) -> dict:
    """A run's last output line, as perfbench/run.py --trace 0 prints it."""
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "items_per_s": {"value": items, "unit": "1/s"}}
    return {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}


PAIRS = [
    (result(1.0, 10.0), result(0.8, 12.0)),
    (result(1.2, 10.0), result(0.9, 10.0)),
    (result(1.1, 11.0), result(1.3, 9.0, failed=2)),
]


def test_one_line_per_metric_then_the_failures():
    lines = bench_pairs.summarize(PAIRS, BETTER)
    assert [line.split()[0] for line in lines[1:3]] == ["wall_s", "items_per_s"]
    assert lines[3:] == ["failed items (ref): 0/300", "failed items (change): 2/300"]


def test_medians_quartiles_change_and_wins():
    # wall_s: lower wins in pairs 1 and 2; items_per_s: pair 1 wins, pair 2 ties.
    lines = bench_pairs.summarize(PAIRS, BETTER)
    assert lines[1].split() == ["wall_s", "1.1", "[1.05,", "1.15]", "0.9", "[0.85,", "1.1]", "-18.2%", "2/3"]
    assert lines[2].split() == ["items_per_s", "10", "[10,", "10.5]", "10", "[9.5,", "11]", "+0.0%", "1/3"]


def test_a_single_pair_is_its_own_quartiles():
    assert bench_pairs.spread([2.5]) == (2.5, 2.5, 2.5)
    lines = bench_pairs.summarize(PAIRS[:1], BETTER)
    assert lines[1].split()[-1] == "1/1"


# verdict: ref values, then the change's, pair by pair; REF's quartiles of [1.0 .. 1.9] are 1.225 and 1.675.
REF10 = [1.0 + 0.1 * i for i in range(10)]


def test_a_claim_needs_nine_wins_and_a_drop_beyond_the_ref_spread():
    faster = [a - 0.5 for a in REF10]  # median drop 0.5 > IQR 0.45, 10/10 won
    assert bench_pairs.verdict(REF10, faster, "lower", 0.25) == "claim met"
    eight = faster[:8] + [a + 0.01 for a in REF10[8:]]  # 8/10 won
    assert bench_pairs.verdict(REF10, eight, "lower", 0.25) == "within noise"
    small = [a - 0.4 for a in REF10]  # 10/10 won, but a drop of 0.4 < IQR 0.45
    assert bench_pairs.verdict(REF10, small, "lower", 0.25) == "within noise"


def test_higher_is_better_reads_the_other_way():
    more = [a + 0.5 for a in REF10]  # median 1.45 -> 1.95, +34%
    assert bench_pairs.verdict(REF10, more, "higher", 0.25) == "claim met"
    assert bench_pairs.verdict(REF10, more, "lower", 0.25) == "worse than bound"
    assert bench_pairs.verdict(REF10, more, "lower", 0.4) == "within noise"
    less = [a - 0.5 for a in REF10]  # -34%
    assert bench_pairs.verdict(REF10, less, "higher", 0.25) == "worse than bound"


def test_one_verdict_line_per_metric():
    lines = bench_pairs.verdicts(PAIRS, BETTER, {"wall_s": 0.25, "items_per_s": 0.25})
    assert [line.split() for line in lines] == [["wall_s", "within", "noise"], ["items_per_s", "within", "noise"]]
    slower = [(a, result(2 * a["metrics"]["wall_s"]["value"], 10.0)) for a, _ in PAIRS]
    assert bench_pairs.verdicts(slower, BETTER, {"wall_s": 0.25, "items_per_s": 0.25})[0].split()[1:] == [
        "worse", "than", "bound"
    ]


def test_all_names_every_benchmark_workload_once():
    assert bench_pairs.workloads(["all"]) == bench_pairs.WORKLOADS
    first = bench_pairs.WORKLOADS[-1]
    assert bench_pairs.workloads([first, "all"]) == [first] + bench_pairs.WORKLOADS[:-1]
    try:
        bench_pairs.workloads(["no-such-workload"])
    except SystemExit as exc:
        assert "unknown workload 'no-such-workload'" in str(exc)
    else:
        raise AssertionError("an unknown workload was accepted")


def test_one_report_per_workload(monkeypatch, capsys):
    # Each run's wall time tells its tree and workload apart: the working tree
    # (ROOT) is 20% faster, so every workload's report reads -20.0% and 3/3 won.
    walls = {name: 1.0 + i for i, name in enumerate(bench_pairs.WORKLOADS)}
    calls = []

    def fake_run(tree, workload, seed, seconds, size):
        calls.append((workload, seed, tree == bench_pairs.ROOT))
        wall = walls[workload] * (0.8 if tree == bench_pairs.ROOT else 1.0)
        metrics = {name: {"value": wall, "unit": "s"} for name in bench_pairs.BETTER}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    assert bench_pairs.main(["--ref", "HEAD", "--workload", "all", "--pairs", "3", "--seed", "5"]) == 0
    assert [w for w, _, _ in calls] == [w for w in bench_pairs.WORKLOADS for _ in range(6)]
    assert [(s, new) for _, s, new in calls[:6]] == [(5, False), (5, True), (6, True), (6, False), (7, False), (7, True)]
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert [block.split(":")[0] for block in blocks] == bench_pairs.WORKLOADS
    for block in blocks:
        lines = block.splitlines()
        assert len(lines) == 2 + 2 * len(bench_pairs.BETTER) + 2
        assert lines[2].split()[-2:] == ["-20.0%", "3/3"]
