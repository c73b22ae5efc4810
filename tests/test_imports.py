"""Every name a package module imports is used in that module, and the CLI
starts without the heavy standard-library modules.

__init__.py is left out of the unused-name check: it imports names to
re-export them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasiflags

MODULES = sorted(p for p in Path(quasiflags.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detector_flags_an_unused_name():
    assert unused_imports("from typing import Iterator\nimport os\nos.sep\n") == \
        ["line 1: Iterator"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Each report command runs in a fresh interpreter, so what importing the
    CLI pulls in is paid on every run.  The modules are compared before and
    after the import, so whatever site loads at start-up does not count."""
    script = ("import sys\nbefore = set(sys.modules)\nimport quasiflags.cli\n"
              "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(quasiflags.__file__).parents[1]))
    added = subprocess.run([sys.executable, "-c", script], capture_output=True,
                           text=True, env=env, check=True).stdout.split()
    assert "quasiflags.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added)
