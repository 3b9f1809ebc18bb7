"""Arithmetic stays exact: no module of the library has a float literal, a
true division or a call to ``float``.  The wall-clock seconds a cache record
stores come from ``time.monotonic()`` and enter no computed result."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cosmopoly"
MODULES = sorted(SRC.glob("*.py"))


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of every float literal, true division and float call."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "call to float"))
    return sorted(found)


def test_every_module_is_walked():
    assert {"cli.py", "hstar.py", "polytope.py", "sweep.py", "triangulation.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_floats(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert float_uses(tree) == []


def test_detector_flags_each_float_use():
    source = "a = 5e-1\nb = a / 2\nb /= 3\nc = float(1)\nd = 7 // 2 * 3 % 2\ne: float = 1\n"
    assert [line for line, _ in float_uses(ast.parse(source))] == [1, 2, 3, 4]
