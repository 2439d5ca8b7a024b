"""Lint gate: only ``signature.py`` builds ``FElem`` and ``ContextElem`` values.

Every other module gets its elements and contexts from the canonicalizing
constructors of ``SignatureSpec``, so each one is an orbit minimum.
Standard library only (``ast``).  A module fails the gate when it calls
either class, hands either class to a call other than ``isinstance`` or
``issubclass`` (``map(FElem, ...)``, ``object.__new__(FElem)``), or calls
``_make`` or ``_replace``, the named-tuple methods that build a new element
from any tuple or any element (``FElem._make(...)``, ``e._replace(...)``).
Type annotations may name the classes freely.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "thincoalg"

CLASSES = {"FElem", "ContextElem"}
TYPE_CHECKS = {"isinstance", "issubclass"}
TUPLE_BUILDERS = {"_make", "_replace"}
GATED = sorted(p.name for p in SRC.glob("*.py") if p.name != "signature.py")


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def element_constructions(tree):
    """Line numbers of the calls in ``tree`` that build or hand on an
    element class."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = _name(node.func)
        passed = [*node.args, *(k.value for k in node.keywords)]
        if func in CLASSES or func in TUPLE_BUILDERS or (
            func not in TYPE_CHECKS and any(_name(a) in CLASSES for a in passed)
        ):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("name", GATED)
def test_only_signature_builds_elements(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    found = [f"{name}:{line}" for line in element_constructions(tree)]
    assert not found, f"element built outside signature.py at {found}"


def test_the_gate_covers_the_package():
    assert {"coalgebra.py", "files.py", "terms.py", "normalform.py"} <= set(GATED)


def test_the_gate_sees_constructions():
    src = '''
from .signature import ContextElem, FElem
from . import signature

def direct(op, args):
    return FElem(op, tuple(args))

def qualified(op):
    return signature.ContextElem(op, 0, ())

def as_callback(pairs):
    return list(map(FElem, *zip(*pairs)))

def bare(args):
    return object.__new__(FElem)

def checks(x) -> FElem:
    ok = isinstance(x, (FElem, ContextElem)) or issubclass(type(x), FElem)
    return x if ok else None

def made(pair):
    return FElem._make(pair)

def replaced(ctx, sides):
    return ctx._replace(sides=sides)
'''
    assert element_constructions(ast.parse(src)) == [6, 9, 12, 15, 22, 25]
