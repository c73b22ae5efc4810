"""No function in a package module calls itself: every enumeration is a
list of partial results extended one layer at a time."""

import ast
from pathlib import Path

import pytest

import quasiflags

MODULES = sorted(Path(quasiflags.__file__).parent.glob("*.py"))


def self_calls(source: str) -> list[str]:
    """Functions whose body calls them by name, or as self.name / cls.name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (isinstance(func, ast.Name) and func.id == node.name
                    or isinstance(func, ast.Attribute) and func.attr == node.name
                    and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls")):
                found.append(f"line {node.lineno}: {node.name}")
                break
    return found


def test_detector_flags_a_recursive_function():
    source = ("def f(k):\n    return f(k - 1) if k else 0\n"
              "def g():\n    def h():\n        yield from h()\n    return f(1)\n"
              "class C:\n    def m(self):\n        return self.m()\n")
    assert self_calls(source) == ["line 1: f", "line 4: h", "line 8: m"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert self_calls(path.read_text()) == []
