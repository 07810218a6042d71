#!/usr/bin/env python3
"""Count the lines of each module of the package.

Prints one row per src/choiopt module: its lines as `wc -l` counts them
(newline characters) and its code lines, the lines that hold a token of a
statement.  Comments, blank lines and docstrings (a statement that is only
a string literal) hold none, so they do not count; every line of a
multi-line token in a statement does.  A last row gives both totals.  Run
via `make lines` or directly, optionally on other files:

    python3 scripts/line_count.py [FILE ...]
"""

import io
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


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "choiopt").glob("*.py"))
    counts = [(path.name, *count_lines(path.read_text())) for path in paths]
    counts.append(("total", sum(c[1] for c in counts), sum(c[2] for c in counts)))
    width = max(len(name) for name, _, _ in counts)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in counts:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
