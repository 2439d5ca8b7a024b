"""Lint gate: the package reads coalgebras through their arrays only.

A ``Coalgebra`` stores op indices, offsets and a flat successor array, and
builds the tuple of ``FElem``s its ``transition`` property returns on first
use.  Those elements are containers that every full collection walks, so
no code in the package may read ``transition``: not the loaders, the
analyses, the builders nor ``validate_path``.  The property itself is the
one exemption.  Standard library only (``ast``).  The gate cannot see
types: it flags every ``.transition`` attribute and every ``getattr`` with
the literal name, outside that property.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "thincoalg"

ALLOWED = ("coalgebra.py", "Coalgebra", "transition")


def transition_reads(tree, exempt=None):
    """Line numbers in ``tree`` that read ``transition``, outside the
    method ``exempt`` names as ``(class, method)``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and exempt and node.name == exempt[0]:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == exempt[1]:
                    skip.update(id(n) for n in ast.walk(item))
    lines = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "transition":
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "getattr"
            and any(isinstance(a, ast.Constant) and a.value == "transition" for a in node.args)
        ):
            lines.append(node.lineno)
    return sorted(lines)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_reads_the_elements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        exempt = ALLOWED[1:] if path.name == ALLOWED[0] else None
        found += [f"{path.name}:{line}" for line in transition_reads(_parse(path), exempt)]
    assert not found, f"Coalgebra.transition read at {found}"


def test_the_exemption_is_the_property():
    tree = _parse(SRC / ALLOWED[0])
    (cls,) = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == ALLOWED[1]]
    (prop,) = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == ALLOWED[2]]
    assert [ast.unparse(d) for d in prop.decorator_list] == ["property"]


def test_the_gate_sees_reads():
    src = '''
class Coalgebra:
    @property
    def transition(self):
        return self.sig.unpack(self).transition

    def rows(self):
        return self.transition


def successors(c, s):
    return c.transition[s].args


def ops(pc):
    return {e.op for e in pc.coalg.transition}


def dynamic(c):
    return getattr(c, "transition"), getattr(c, "ops")


class Other:
    def transition(self, c):
        return c.transition
'''
    tree = ast.parse(src)
    assert transition_reads(tree, ALLOWED[1:]) == [8, 12, 16, 20, 25]
    assert transition_reads(tree) == [5, 8, 12, 16, 20, 25]
