"""Every Python file of the project parses with the grammar of the oldest
Python that pyproject.toml's requires-python admits.

This checks grammar only (ast.parse with feature_version, which is best
effort): a call to a standard-library function added after that version, or a
changed library behaviour, still passes here and needs that Python to show.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "scripts", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
FLOOR = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M).groups()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_the_floor_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=tuple(map(int, FLOOR)))
