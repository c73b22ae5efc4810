"""The README's library quick start and command-line examples run as written."""

import re
from pathlib import Path

import pytest

import quasiflags.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["lhs"] == namespace["rhs"]


def _command_lines():
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line.split()[1:] for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _command_lines(), ids=" ".join)
def test_command_line_examples_exit_0(capsys, argv):
    assert cli.main(argv) == 0
    capsys.readouterr()
