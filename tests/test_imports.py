"""Every name a package module imports is used in that module, every
top-level function or class is used or re-exported, and the CLI starts
without the heavy standard-library modules.

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


def orphaned_definitions(sources: dict[str, str]) -> list[str]:
    """module.name for each top-level function or class in `sources` (module
    name -> text) that no other top-level statement of any module names,
    as a variable, an attribute or an import."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(f"{module}.{own}")
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) else
                        sub.attr if isinstance(sub, ast.Attribute) else
                        sub.name if isinstance(sub, ast.alias) else None)
                if name is not None and name != own:
                    used.add(name)
    return [d for d in defined if d.split(".")[1] not in used]


def test_detector_flags_an_orphaned_definition():
    sources = {"a": "def f():\n    g()\ndef g(): pass\ndef h():\n    h()\n",
               "b": "from .a import f\nclass C: pass\n"}
    assert orphaned_definitions(sources) == ["a.h", "b.C"]


# definitions kept although nothing in the package names them
ORPHANS_KEPT = []


def test_every_definition_is_used_or_exported():
    """A helper orphaned by a refactor fails here: every top-level function
    or class of the package is named elsewhere in it or re-exported by
    __init__."""
    package = Path(quasiflags.__file__).parent
    sources = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    assert orphaned_definitions(sources) == ORPHANS_KEPT


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
