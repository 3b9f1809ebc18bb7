"""No function nested in a library function refers to its own name.

A nested function that calls itself holds itself through its closure cell:
a reference cycle that keeps the enclosing call's state alive until the
next full collection.  The library's searches walk explicit stacks instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cosmopoly"
MODULES = sorted(SRC.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referencing_closures(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every nested function whose body names itself."""
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, FUNCTIONS):
                continue
            names = {n.id for stmt in inner.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            if inner.name in names:
                found.add((inner.lineno, inner.name))
    return sorted(found)


def test_every_module_is_walked():
    assert {"grobner.py", "hstar.py", "multigraph.py", "triangulation.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_recursive_closure(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert self_referencing_closures(tree) == []


def test_detector_flags_each_self_reference():
    source = (
        "def outer(n):\n"
        "    def rec(k):\n"
        "        return rec(k - 1) if k else 0\n"
        "    def calls_outer():\n"
        "        return outer(n)\n"
        "    class Local:\n"
        "        def method(self):\n"
        "            def walk():\n"
        "                yield from walk()\n"
        "            return self.method\n"
        "    return rec, calls_outer, Local\n"
        "def top(n):\n"
        "    return top(n - 1)\n"
    )
    assert self_referencing_closures(ast.parse(source)) == [(2, "rec"), (8, "walk")]
