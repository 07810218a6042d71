#!/usr/bin/env python3
"""Diff the reference-set rows of a commit's src/ against the working tree's.

Exports REF with `git archive` into a temporary directory, then runs this
checkout's scripts/reference_set.py --rows twice, under the same warning
policy as `make refset`: once with PYTHONPATH=<export>/src and once with
PYTHONPATH=src.  So both runs solve the same specs and write the same
fields; only the package differs.  Prints the row count, how many rows
differ (in any field: chi's hash alone counts) and how many of those
differ in iterations or converged.  When a row differs, it then prints the
largest change in F, gap and lambda_gap, and each differing pair as a "-"
line (REF) and a "+" line (working tree).  Exits 1 when a row differs, 0
otherwise.  Run via `make refset-diff REF=<commit>`
or directly:

    python3 scripts/refset_diff.py --ref REF
"""

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A solve's row ends in iterations, converged, fidelity, gap and lambda_gap,
# after the hashes of chi and of the trace, which only the whole-row comparison reads.
SOLVE_ROW = re.compile(r".* ([0-9]+) (True|False) (\S+) (\S+) (\S+)")


def outcome(row: str):
    """(iterations, converged) of a solve's row; a raising solve's row is its own outcome."""
    match = SOLVE_ROW.fullmatch(row)
    return match.groups()[:2] if match else row


def values(row: str):
    """(F, gap, lambda_gap) of a solve's row, None for a raising solve's row."""
    match = SOLVE_ROW.fullmatch(row)
    return tuple(map(float, match.groups()[2:])) if match else None


def change(a: float, b: float) -> float:
    """|a - b|: 0 when a == b or both are NaN, inf when only one is NaN."""
    if a == b or math.isnan(a) and math.isnan(b):
        return 0.0
    return abs(a - b) if math.isfinite(a - b) else math.inf


def compare(ref_rows: list, new_rows: list) -> list:
    """Report lines for two runs' rows, paired in order: the counts, then
    each differing pair as a "-" (ref) and a "+" (new) line."""
    if len(ref_rows) != len(new_rows):
        raise ValueError(f"ref has {len(ref_rows)} rows, the working tree {len(new_rows)}")
    pairs = [(a, b) for a, b in zip(ref_rows, new_rows) if a != b]
    changed = sum(outcome(a) != outcome(b) for a, b in pairs)
    lines = [f"rows = {len(ref_rows)}  differing = {len(pairs)}  in iterations or converged = {changed}"]
    for a, b in pairs:
        lines += [f"- {a}", f"+ {b}"]
    return lines


def largest_change(ref_rows: list, new_rows: list) -> str:
    """The largest change in F, gap and lambda_gap over the paired rows that are
    both solves (0 where none is)."""
    solved = [(x, y) for x, y in zip(map(values, ref_rows), map(values, new_rows)) if x and y]
    largest = (max((change(x[i], y[i]) for x, y in solved), default=0.0) for i in range(3))
    return "largest change: F = {:.3g}  gap = {:.3g}  lambda_gap = {:.3g}".format(*largest)


def rows(src: Path, out: Path) -> list:
    """The rows reference_set.py writes with the package imported from src."""
    cmd = [
        sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", str(ROOT / "scripts" / "reference_set.py"),
        "--rows", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    if proc.returncode not in (0, 1) or not out.exists():  # 1: a raising or unconverged row, still written
        raise SystemExit(f"error: {' '.join(cmd)} with PYTHONPATH={src}: {proc.stderr.strip()}")
    return out.read_text().splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ref", required=True, help="commit to compare against, e.g. HEAD")
    args = ap.parse_args(argv)
    from bench_pairs import export  # scripts/ is sys.path[0] when this file runs as a script

    with tempfile.TemporaryDirectory(prefix="refset_diff_") as tmp:
        tree = Path(tmp) / "ref"
        export(args.ref, tree)
        ref_rows, new_rows = rows(tree / "src", Path(tmp) / "ref.txt"), rows(ROOT / "src", Path(tmp) / "new.txt")
    lines = compare(ref_rows, new_rows)
    differ = len(lines) > 1
    if differ:
        lines.insert(1, largest_change(ref_rows, new_rows))
    print(f"reference set: ref {args.ref} against the working tree")
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
