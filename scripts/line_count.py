#!/usr/bin/env python3
"""Count the lines of each module of the package.

Prints one row per src/choiopt module: its lines as `wc -l` counts them
(newline characters) and its code lines, the lines that hold a token of a
statement.  Comments, blank lines and docstrings (a statement that is only
a string literal) hold none, so they do not count; every line of a
multi-line token in a statement does.  A last row gives both totals.  Run
via `make lines` or directly, optionally on other files:

    python3 scripts/line_count.py [FILE ...]

With --ref (`make lines REF=<commit>`), each module's row gives its lines
and code lines at that commit (read with `git show`), then in the working
tree, then the change; a module missing on one side counts 0 there.  Its
same_code cell reads yes when the module's ast.dump, without its docstrings,
equals the commit's, and no otherwise (a module missing on one side too);
the total's reads yes when every module's does:

    python3 scripts/line_count.py --ref REF
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def count_lines(source: str) -> tuple[int, int]:
    """(newline count, code line count) of Python source."""
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the tokens of the logical line being read
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT and tok.type != tokenize.COMMENT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):  # else a docstring
                code.update(row for t in statement for row in range(t.start[0], t.end[0] + 1))
            statement = []
    return source.count("\n"), len(code)


class _DropDocstrings(ast.NodeTransformer):
    def visit_Expr(self, node: ast.Expr) -> ast.Expr | None:
        """None for a string-only statement (a docstring), which drops it from its body."""
        return None if isinstance(node.value, ast.Constant) and isinstance(node.value.value, (str, bytes)) else node


def code_dump(source: str) -> str:
    """ast.dump of Python source without its docstrings: equal for two sources
    that differ only in docstrings, comments and layout."""
    return ast.dump(_DropDocstrings().visit(ast.parse(source)))


def git(root: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout


def ref_sources(ref: str, root: Path) -> dict[str, str]:
    """{module name: source} of the src/choiopt modules at commit ref."""
    paths = git(root, "ls-tree", "--name-only", ref, "src/choiopt/").splitlines()
    return {Path(p).name: git(root, "show", f"{ref}:{p}") for p in paths if p.endswith(".py")}


def print_rows(header: tuple, rows: list) -> None:
    """Names left-aligned to the longest row name, the other cells right-aligned
    to their header's width, at least 6."""
    width = max(len(row[0]) for row in rows)
    widths = [max(6, len(h)) for h in header[1:]]
    for name, *cells in (header, *rows):
        print("  ".join([f"{name:<{width}}", *(f"{c:>{w}}" for c, w in zip(cells, widths))]))


def main(argv: list[str], root: Path = ROOT) -> None:
    parser = argparse.ArgumentParser(description="Count the lines and code lines of each module.")
    parser.add_argument("files", nargs="*", type=Path, help="modules to count instead of src/choiopt/*.py")
    parser.add_argument("--ref", help="a commit: also count its src/choiopt modules, and print the change")
    args = parser.parse_args(argv)
    if args.ref and args.files:
        parser.error("--ref counts src/choiopt and takes no FILE")
    paths = args.files or sorted((root / "src" / "choiopt").glob("*.py"))
    if not args.ref:
        counts = [(path.name, *count_lines(path.read_text())) for path in paths]
        counts.append(("total", sum(c[1] for c in counts), sum(c[2] for c in counts)))
        print_rows(("module", "lines", "code"), counts)
        return
    old, new = ref_sources(args.ref, root), {path.name: path.read_text() for path in paths}
    rows = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, ""), new.get(name, "")  # "" counts (0, 0)
        same = name in old and name in new and code_dump(a) == code_dump(b)
        rows.append((name, *count_lines(a), *count_lines(b), same))
    rows.append(("total", *(sum(r[i] for r in rows) for i in range(1, 5)), all(r[5] for r in rows)))
    header = ("module", "ref_lines", "ref_code", "lines", "code", "d_lines", "d_code", "same_code")
    print_rows(header, [(*r[:5], f"{r[3] - r[1]:+d}", f"{r[4] - r[2]:+d}", "yes" if r[5] else "no") for r in rows])


if __name__ == "__main__":
    main(sys.argv[1:])
