"""Rules the library source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

import novcube


def test_runtime_checks_raise_and_never_assert():
    """An ``assert`` vanishes under ``python -O``, so the library checks
    its inputs and invariants with exceptions only."""
    root = Path(novcube.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) >= 9
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        found += ["%s:%d" % (path.relative_to(root), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_linalg_divides_only_in_its_exact_helper():
    """``int / int`` is a float, so every ``/`` in ``linalg`` is inside
    ``_div``, which returns an ``int`` or a ``Fraction``."""
    path = Path(novcube.__file__).parent / "linalg.py"
    tree = ast.parse(path.read_text(), str(path))
    [helper] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "_div"]
    divisions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    inside = {id(node) for node in ast.walk(helper)}
    assert divisions and all(id(node) in inside for node in divisions)
