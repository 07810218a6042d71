import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("line_count", ROOT / "scripts" / "line_count.py")
line_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_count)

SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment

# a comment line


def area(r):
    """A one-line docstring."""
    text = """a string that is
    part of a statement"""
    return (
        math.pi * r**2
    )
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # code: import, def, text = (two lines), return (three lines)
    assert line_count.count_lines(SNIPPET) == (15, 7)


def test_source_without_a_final_newline():
    assert line_count.count_lines("x = 1\ny = 2") == (1, 2)


def test_prints_each_module_and_the_totals(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SNIPPET)
    b.write_text('"""Only a docstring."""\n\nx = 1\n')
    line_count.main([str(a), str(b)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "15", "7"], ["b.py", "3", "1"], ["total", "18", "8"]]
