import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("refset_diff", ROOT / "scripts" / "refset_diff.py")
refset_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refset_diff)

SPEC = "ModelSpec(kind='shifter', copies=1, alpha=0.7)"
ROWS = [
    f"{SPEC} maxmix 300 True 0.9 nan 0.01",
    f"{SPEC} random:1 12 True 0.9 1e-15 0.02",
    f"{SPEC} random:2 40 False 0.8 nan 0.03",
    f"{SPEC} maxmix: SingularLambdaError: Tr_K[R chi R] vanished; cannot continue iterating",
]


def test_same_rows_differ_nowhere():
    assert refset_diff.compare(ROWS, list(ROWS)) == ["rows = 4  differing = 0  in iterations or converged = 0"]


def test_only_iterations_or_converged_count_as_a_changed_outcome():
    new = [
        f"{SPEC} maxmix 300 True 0.9000000000000001 nan 0.01",  # fidelity bits only
        f"{SPEC} random:1 13 True 0.9 1e-15 0.02",  # iterations
        f"{SPEC} random:2 40 True 0.8 nan 0.03",  # converged
        ROWS[3],
    ]
    lines = refset_diff.compare(ROWS, new)
    assert lines[0] == "rows = 4  differing = 3  in iterations or converged = 2"
    assert lines[1:] == [f"- {ROWS[0]}", f"+ {new[0]}", f"- {ROWS[1]}", f"+ {new[1]}", f"- {ROWS[2]}", f"+ {new[2]}"]


def test_lambda_gap_alone_is_a_difference():
    new = [*ROWS[:2], f"{SPEC} random:2 40 False 0.8 nan 0.031", ROWS[3]]
    assert refset_diff.compare(ROWS, new)[0] == "rows = 4  differing = 1  in iterations or converged = 0"


def test_a_solve_that_starts_or_stops_raising_changes_its_outcome():
    new = [ROWS[3], *ROWS[1:3], ROWS[0]]  # maxmix raises where it solved, and solves where it raised
    assert refset_diff.outcome(ROWS[3]) == ROWS[3]
    assert refset_diff.outcome(ROWS[0]) == ("300", "True")
    assert refset_diff.compare(ROWS, new)[0] == "rows = 4  differing = 2  in iterations or converged = 2"


def test_row_counts_must_agree():
    with pytest.raises(ValueError, match="ref has 4 rows, the working tree 3"):
        refset_diff.compare(ROWS, ROWS[:3])
