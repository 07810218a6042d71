import importlib.util
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("refset_diff", ROOT / "scripts" / "refset_diff.py")
refset_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refset_diff)

SPEC = "ModelSpec(kind='shifter', copies=1, alpha=0.7)"
HASHES = "chi=0123456789ab trace=ba9876543210"  # chi's and the trace's, ahead of the iterations
ROWS = [
    f"{SPEC} maxmix {HASHES} 300 True 0.9 nan 0.01",
    f"{SPEC} random:1 {HASHES} 12 True 0.9 1e-15 0.02",
    f"{SPEC} random:2 {HASHES} 40 False 0.8 nan 0.03",
    f"{SPEC} maxmix: SingularLambdaError: Tr_K[R chi R] vanished; cannot continue iterating",
]


def test_same_rows_differ_nowhere():
    assert refset_diff.compare(ROWS, list(ROWS)) == ["rows = 4  differing = 0  in iterations or converged = 0"]


def test_only_iterations_or_converged_count_as_a_changed_outcome():
    new = [
        f"{SPEC} maxmix {HASHES} 300 True 0.9000000000000001 nan 0.01",  # fidelity bits only
        f"{SPEC} random:1 {HASHES} 13 True 0.9 1e-15 0.02",  # iterations
        f"{SPEC} random:2 {HASHES} 40 True 0.8 nan 0.03",  # converged
        ROWS[3],
    ]
    lines = refset_diff.compare(ROWS, new)
    assert lines[0] == "rows = 4  differing = 3  in iterations or converged = 2"
    assert lines[1:] == [f"- {ROWS[0]}", f"+ {new[0]}", f"- {ROWS[1]}", f"+ {new[1]}", f"- {ROWS[2]}", f"+ {new[2]}"]


def test_a_changed_channel_alone_is_a_difference():
    new = [f"{SPEC} maxmix chi=0123456789ac trace=ba9876543210 300 True 0.9 nan 0.01", *ROWS[1:]]  # chi only
    assert refset_diff.compare(ROWS, new)[0] == "rows = 4  differing = 1  in iterations or converged = 0"
    assert refset_diff.largest_change(ROWS, new) == "largest change: F = 0  gap = 0  lambda_gap = 0"


def test_lambda_gap_alone_is_a_difference():
    new = [*ROWS[:2], f"{SPEC} random:2 {HASHES} 40 False 0.8 nan 0.031", ROWS[3]]
    assert refset_diff.compare(ROWS, new)[0] == "rows = 4  differing = 1  in iterations or converged = 0"


def test_a_solve_that_starts_or_stops_raising_changes_its_outcome():
    new = [ROWS[3], *ROWS[1:3], ROWS[0]]  # maxmix raises where it solved, and solves where it raised
    assert refset_diff.outcome(ROWS[3]) == ROWS[3]
    assert refset_diff.outcome(ROWS[0]) == ("300", "True")
    assert refset_diff.compare(ROWS, new)[0] == "rows = 4  differing = 2  in iterations or converged = 2"


def test_row_counts_must_agree():
    with pytest.raises(ValueError, match="ref has 4 rows, the working tree 3"):
        refset_diff.compare(ROWS, ROWS[:3])


def test_values_of_a_solve_row_and_of_a_raising_row():
    assert refset_diff.values(ROWS[1]) == (0.9, 1e-15, 0.02)
    assert refset_diff.values(ROWS[3]) is None


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (0.9, 0.9000000000000001, 1.1102230246251565e-16),
        (float("nan"), float("nan"), 0.0),
        (float("inf"), float("inf"), 0.0),
        (float("nan"), 1e-15, float("inf")),
        (1e-15, float("nan"), float("inf")),
        (0.5, float("inf"), float("inf")),
    ],
)
def test_change_between_two_row_values(a, b, expected):
    assert refset_diff.change(a, b) == expected


def test_largest_change_over_the_solves():
    new = [
        f"{SPEC} maxmix {HASHES} 300 True 0.9000000000000001 nan 0.01",  # F moves 1.1e-16
        f"{SPEC} random:1 {HASHES} 12 True 0.9 3e-15 0.02",  # gap moves 2e-15
        f"{SPEC} random:2 {HASHES} 41 False 0.8 nan 0.0305",  # lambda_gap moves 5e-4
        f"{SPEC} maxmix {HASHES} 9 True 0.5 nan 0.01",  # a raising row that now solves counts in no column
    ]
    assert refset_diff.largest_change(ROWS, new) == "largest change: F = 1.11e-16  gap = 2e-15  lambda_gap = 0.0005"


def test_a_gap_that_appears_is_an_infinite_change():
    new = [f"{SPEC} maxmix {HASHES} 9 True 0.9 1e-15 0.01", *ROWS[1:]]
    assert refset_diff.largest_change(ROWS, new) == "largest change: F = 0  gap = inf  lambda_gap = 0"


def test_no_solves_change_nothing():
    assert refset_diff.largest_change(ROWS[3:], ROWS[3:]) == "largest change: F = 0  gap = 0  lambda_gap = 0"


def test_main_prints_the_largest_change_after_the_counts(monkeypatch, capsys):
    new = [f"{SPEC} maxmix {HASHES} 300 True 0.9000000000000001 nan 0.01", *ROWS[1:]]
    outputs = iter([ROWS, new])
    monkeypatch.setattr(refset_diff, "rows", lambda src, out: next(outputs))
    monkeypatch.setitem(sys.modules, "bench_pairs", types.SimpleNamespace(export=lambda ref, tree: None))
    assert refset_diff.main(["--ref", "HEAD"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "reference set: ref HEAD against the working tree",
        "rows = 4  differing = 1  in iterations or converged = 0",
        "largest change: F = 1.11e-16  gap = 0  lambda_gap = 0",
        f"- {ROWS[0]}",
        f"+ {new[0]}",
    ]


def test_main_prints_only_the_counts_when_nothing_differs(monkeypatch, capsys):
    monkeypatch.setattr(refset_diff, "rows", lambda src, out: list(ROWS))
    monkeypatch.setitem(sys.modules, "bench_pairs", types.SimpleNamespace(export=lambda ref, tree: None))
    assert refset_diff.main(["--ref", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["rows = 4  differing = 0  in iterations or converged = 0"]
