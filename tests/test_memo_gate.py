"""Lint gate: only ``coalgebra._memo`` writes to a pointed coalgebra.

A ``PointedCoalgebra`` is a frozen dataclass whose derived analyses are kept
in its instance dictionary by ``coalgebra._memo``, so the value can never
go stale.  Any other write (``object.__setattr__``, ``object.__delattr__``,
``obj.__dict__`` or ``vars(obj)``) could leave a kept analysis that no
longer matches, so no other code in the package may use them.  Standard
library only (``ast``).  The gate cannot see types: it flags each of these
names anywhere in the package outside that one function.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "thincoalg"

BYPASSES = {"__setattr__", "__delattr__"}
ALLOWED = ("coalgebra.py", "_memo")
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def instance_writes(tree, allowed_function=None):
    """Line numbers in ``tree`` that reach an instance dictionary or call a
    ``__setattr__`` or ``__delattr__`` directly, outside the function named
    ``allowed_function``.  Naming a class's blocking ``__setattr__`` without
    calling it (``__setattr__ = Term.__setattr__``) is no write."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed_function:
            skip.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in BYPASSES) or (
                isinstance(func, ast.Name) and func.id == "vars"
            ):
                lines.append(node.lineno)
    return sorted(lines)


def _parse(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", MODULES)
def test_only_the_memo_helper_writes_instances(name):
    allowed = ALLOWED[1] if name == ALLOWED[0] else None
    found = [f"{name}:{line}" for line in instance_writes(_parse(name), allowed)]
    assert not found, f"instance written outside coalgebra._memo at {found}"


def test_the_memo_helper_is_the_writer():
    # The exemption names a function that exists and does the writing.
    assert instance_writes(_parse(ALLOWED[0]))
    assert {"coalgebra.py", "thinness.py", "normalform.py", "treeenc.py"} <= set(MODULES)


def test_the_gate_sees_writes():
    src = '''
def _memo(pc, name, build):
    object.__setattr__(pc, name, build(pc))
    return pc.__dict__[name]

def direct(pc):
    object.__setattr__(pc, "root", 0)

def through_dict(pc, value):
    pc.__dict__["_thin"] = value

def update(pc):
    pc.__dict__.update(_thin=None)

def through_vars(pc):
    vars(pc)["_minimal"] = None

def forget(pc):
    object.__delattr__(pc, "_thin")

def reads(pc):
    return pc.root, getattr(pc, "coalg")

class Frozen:
    __setattr__ = object.__setattr__
'''
    assert instance_writes(ast.parse(src), "_memo") == [7, 10, 13, 16, 19]
    assert instance_writes(ast.parse(src)) == [3, 4, 7, 10, 13, 16, 19]
