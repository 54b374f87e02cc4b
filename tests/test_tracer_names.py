"""The benchmark tracer wraps ``novcube`` functions by name; each must exist.

``perfbench/tracer.py`` is read as source, never imported or changed, so a
refactor that removes or renames a traced function fails here rather than
in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tables():
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and \
                        target.id in ("SPANS", "COUNTS"):
                    found[target.id] = ast.literal_eval(node.value)
    return found


TABLES = _tables()


def test_tracer_tables_are_found():
    assert set(TABLES) == {"SPANS", "COUNTS"}
    assert TABLES["SPANS"] and TABLES["COUNTS"]


@pytest.mark.parametrize("module,attr", [
    (mod, attr) for table in ("SPANS", "COUNTS")
    for mod, attr, _ in TABLES.get(table, ())])
def test_traced_name_resolves(module, attr):
    mod = importlib.import_module("novcube." + module)
    if attr == "cmd_*":
        assert any(name.startswith("cmd_") for name in vars(mod))
    elif "." in attr:
        cls_name, meth = attr.split(".")
        assert hasattr(getattr(mod, cls_name), meth)
    else:
        assert callable(getattr(mod, attr))
