#!/usr/bin/env python3
"""Compare a commit with the working tree by alternating benchmark runs.

Exports REF with `git archive` into a temporary directory, then, for each
workload W in turn, runs `perfbench/run.py --workload W --trace 0` there and
in this checkout, one pair per seed S .. S+N-1; the first pair runs REF first
and each later pair flips the order.  Prints, per workload, a header line,
then per end-to-end metric each side's median [quartiles], the change of the
medians relative to REF's, the pairs the working tree won (ties count for
neither side) and the failed item counts, then one verdict line per metric
(verdict).  --workload takes one or more workload names, or all for every
workload BENCHMARK.json lists:

    python3 scripts/bench_pairs.py --ref REF --workload W [W ...] --pairs N --seed S [--seconds T] [--size full|smoke]
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def export(ref: str, dest: Path) -> None:
    """Write the tree of commit ref into dest."""
    proc = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: git archive {ref}: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """The result object, the last output line, of one untraced benchmark run in tree."""
    cmd = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--trace", "0",
        "--seed", str(seed), "--seconds", str(seconds), "--size", size,
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """(median, lower quartile, upper quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def _values(pairs: list, name: str) -> tuple[list, list]:
    """The metric's values in REF's runs and in the working tree's, pair by pair."""
    return [a["metrics"][name]["value"] for a, _ in pairs], [b["metrics"][name]["value"] for _, b in pairs]


def _wins(ref: list, new: list, direction: str) -> int:
    """The pairs in which the working tree's value is better (direction "lower" or "higher")."""
    sign = 1 if direction == "higher" else -1
    return sum(sign * (b - a) > 0 for a, b in zip(ref, new))


def summarize(pairs: list, better: dict = BETTER) -> list:
    """Report lines for pairs of (REF result, working-tree result): one line
    per end-to-end metric in better (name -> "lower" or "higher"), then the
    failed/attempted item counts of each side."""
    n = len(pairs)
    lines = [f"{'metric':<14}{'ref median [quartiles]':>34}{'change median [quartiles]':>34}{'change':>9}  won"]
    for name, direction in better.items():
        ref, new = _values(pairs, name)
        won = _wins(ref, new, direction)
        (rm, r1, r3), (nm, n1, n3) = spread(ref), spread(new)
        rel = f"{(nm - rm) / rm:+.1%}" if rm else "n/a"
        lines.append(
            f"{name:<14}{f'{rm:.5g} [{r1:.5g}, {r3:.5g}]':>34}{f'{nm:.5g} [{n1:.5g}, {n3:.5g}]':>34}"
            f"{rel:>9}  {won}/{n}"
        )
    for side, i in (("ref", 0), ("change", 1)):
        failed = sum(p[i]["failed"] for p in pairs)
        attempted = sum(p[i]["attempted"] for p in pairs)
        lines.append(f"failed items ({side}): {failed}/{attempted}")
    return lines


def verdict(ref: list, new: list, direction: str, bound: float) -> str:
    """The verdict on one metric from its values in REF's runs and the working
    tree's, pair by pair, better when "lower" or "higher" (direction):
    "claim met" when the working tree wins at least 9 in 10 of the pairs and
    its median is better than REF's by more than REF's interquartile range;
    "worse than bound" when its median is worse than REF's by more than
    bound, a fraction of REF's median; "within noise" otherwise."""
    sign = 1 if direction == "higher" else -1
    (rm, r1, r3), nm = spread(ref), spread(new)[0]
    if 10 * _wins(ref, new, direction) >= 9 * len(ref) and sign * (nm - rm) > r3 - r1:
        return "claim met"
    if -sign * (nm - rm) > bound * abs(rm):
        return "worse than bound"
    return "within noise"


def verdicts(pairs: list, better: dict = BETTER, bound: dict = BOUND) -> list:
    """One line per end-to-end metric in better: its name and its verdict."""
    return [f"{name:<14}{verdict(*_values(pairs, name), direction, bound[name])}" for name, direction in better.items()]


def workloads(names: list) -> list:
    """The workloads named, in the order given, with all standing for every
    BENCHMARK.json workload; SystemExit for a name BENCHMARK.json does not list."""
    chosen = []
    for name in names:
        for w in WORKLOADS if name == "all" else [name]:
            if w not in WORKLOADS:
                raise SystemExit(f"error: unknown workload {w!r}; BENCHMARK.json lists {', '.join(WORKLOADS)}")
            if w not in chosen:
                chosen.append(w)
    return chosen


def run_pairs(ref_tree: Path, workload: str, args) -> list:
    """args.pairs alternating pairs of (REF result, working-tree result) on one workload."""
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = [(0, ref_tree), (1, ROOT)]
        if i % 2:
            order.reverse()
        got = {side: run(tree, workload, seed, args.seconds, args.size) for side, tree in order}
        pairs.append((got[0], got[1]))
        wall = [got[s]["metrics"]["wall_s"]["value"] for s in (0, 1)]
        print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: wall_s ref {wall[0]:.4g}  change {wall[1]:.4g}",
              file=sys.stderr, flush=True)
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--ref", required=True, help="commit to compare against, e.g. HEAD")
    ap.add_argument("--workload", required=True, nargs="+", help="workload names, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    names = workloads(args.workload)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        ref_tree = Path(tmp)
        export(args.ref, ref_tree)
        for n, workload in enumerate(names):
            pairs = run_pairs(ref_tree, workload, args)
            print(("\n" if n else "") + f"{workload}: {args.pairs} alternating pairs, ref {args.ref} against the "
                  f"working tree, seeds {args.seed}..{args.seed + args.pairs - 1}, {args.seconds:g} s, size {args.size}")
            print("\n".join(summarize(pairs) + verdicts(pairs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
