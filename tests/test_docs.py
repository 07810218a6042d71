"""The documentation holds: README's command-line block runs as written, and
every class and function the package exports has a hand-written docstring."""

import inspect
import re
import shlex
from pathlib import Path

import pytest

import choiopt
from choiopt.cli import main

ROOT = Path(__file__).resolve().parent.parent
BLOCK = re.search(r"^## Command line\n\n```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S).group(1)
COMMANDS = [line for line in BLOCK.splitlines() if line.startswith("choiopt ")]
EXPECTED = re.search(r"^# -> (.*)$", BLOCK, re.M).group(1)  # the first command's output


def run_block(capsys, monkeypatch, directory: Path) -> dict:
    """Run each command of the block in order in directory; {file name: bytes} of what they wrote."""
    monkeypatch.chdir(directory)
    for i, line in enumerate(COMMANDS):
        assert main(shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out
        if i == 0:
            assert out == EXPECTED + "\n"
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_readme_command_block_runs_in_order(capsys, monkeypatch, tmp_path):
    assert len(COMMANDS) == 12
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    written = run_block(capsys, monkeypatch, first)
    assert run_block(capsys, monkeypatch, second) == written  # identical invocations, identical bytes
    assert {"chi.json", "rho.json", "out.json", "scan.csv", "curve.csv"} <= written.keys()


EXPORTED = sorted(
    name
    for name in dir(choiopt)
    if not name.startswith("_") and (inspect.isclass(getattr(choiopt, name)) or inspect.isfunction(getattr(choiopt, name)))
)


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_has_a_hand_written_docstring(name):
    doc = getattr(choiopt, name).__doc__
    # dataclass writes "Name(field: type, ...)" into a class that has none
    assert doc and doc.strip() and not re.fullmatch(rf"{name}\(.*\)", doc, re.S), name
