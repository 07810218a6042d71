import importlib.util
import subprocess
from pathlib import Path

import pytest

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


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)


def _committed(tmp_path, files: dict):
    pkg = tmp_path / "src" / "choiopt"
    pkg.mkdir(parents=True)
    for name, text in files.items():
        (pkg / name).write_text(text)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "base")
    return pkg


def test_ref_prints_both_sides_and_the_change(tmp_path, capsys):
    pkg = _committed(tmp_path, {"kept.py": SNIPPET, "gone.py": "x = 1\n"})
    (pkg / "gone.py").unlink()
    (pkg / "kept.py").write_text(SNIPPET + "y = 2\n")
    (pkg / "new.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    line_count.main(["--ref", "HEAD"], root=tmp_path)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "ref_lines", "ref_code", "lines", "code", "d_lines", "d_code", "same_code"],
        ["gone.py", "1", "1", "0", "0", "-1", "-1", "no"],
        ["kept.py", "15", "7", "16", "8", "+1", "+1", "no"],
        ["new.py", "0", "0", "3", "1", "+3", "+1", "no"],
        ["total", "16", "8", "19", "9", "+3", "+1", "no"],
    ]


def _same_code(capsys, tmp_path) -> dict:
    line_count.main(["--ref", "HEAD"], root=tmp_path)
    return {row.split()[0]: row.split()[-1] for row in capsys.readouterr().out.splitlines()[1:]}


def test_same_code_ignores_docstrings_comments_and_layout(tmp_path, capsys):
    pkg = _committed(tmp_path, {"a.py": SNIPPET, "b.py": SNIPPET, "c.py": SNIPPET})
    (pkg / "a.py").write_text(SNIPPET.replace("A one-line docstring.", "Another docstring,\n    over two lines."))
    (pkg / "b.py").write_text(SNIPPET.replace("# a comment line\n", "").replace("import math", "import math  # why"))
    (pkg / "c.py").write_text(SNIPPET.split("\n", 2)[2])  # no module docstring
    assert _same_code(capsys, tmp_path) == {"a.py": "yes", "b.py": "yes", "c.py": "yes", "total": "yes"}


def test_same_code_sees_a_changed_constant(tmp_path, capsys):
    pkg = _committed(tmp_path, {"a.py": SNIPPET, "b.py": SNIPPET})
    (pkg / "a.py").write_text(SNIPPET.replace("r**2", "r**3"))
    (pkg / "b.py").write_text(SNIPPET.replace("part of a statement", "part of another statement"))
    assert _same_code(capsys, tmp_path) == {"a.py": "no", "b.py": "no", "total": "no"}


def test_ref_of_an_unknown_commit_exits_with_the_git_error(tmp_path):
    _git(tmp_path, "init", "-q")
    with pytest.raises(SystemExit, match="^error: git ls-tree"):
        line_count.main(["--ref", "nosuch"], root=tmp_path)
