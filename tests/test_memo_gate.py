"""Lint gate: only ``coalgebra._memo`` writes to a pointed coalgebra.

A ``PointedCoalgebra`` is a frozen dataclass whose derived analyses are kept
in its instance dictionary by ``coalgebra._memo``, so the value can never
go stale.  Any other write (``object.__setattr__``, ``object.__delattr__``,
``obj.__dict__`` or ``vars(obj)``) could leave a kept analysis that no
longer matches, so no other code in the package may use them.  Standard
library only (``ast``).  The gate cannot see types: it flags each of these
names anywhere in the package outside ``_memo``.  A second check keeps the
names of kept values apart: every ``_memo(pc, NAME, BUILD)`` call passes a
string literal as ``NAME``, and each name always comes with the same
builder, so no two analyses can overwrite or read each other's kept value.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "thincoalg"

BYPASSES = {"__setattr__", "__delattr__"}
ALLOWED = ("coalgebra.py", ("_memo",))
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def instance_writes(tree, allowed_functions=()):
    """Line numbers in ``tree`` that reach an instance dictionary or call a
    ``__setattr__`` or ``__delattr__`` directly, outside the functions named
    in ``allowed_functions``.  Naming a class's blocking ``__setattr__``
    without calling it (``__setattr__ = Term.__setattr__``) is no write."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in allowed_functions:
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
    allowed = ALLOWED[1] if name == ALLOWED[0] else ()
    found = [f"{name}:{line}" for line in instance_writes(_parse(name), allowed)]
    assert not found, f"instance written outside coalgebra._memo at {found}"


def _function(tree, name):
    (fn,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def test_the_memo_helper_is_the_writer():
    # The exemption names a function that exists and does the writing.
    (writer,) = ALLOWED[1]
    assert instance_writes(_function(_parse(ALLOWED[0]), writer))
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
    assert instance_writes(ast.parse(src), ("_memo",)) == [7, 10, 13, 16, 19]
    assert instance_writes(ast.parse(src)) == [3, 4, 7, 10, 13, 16, 19]


def memo_faults(trees):
    """Faults of the ``_memo`` calls in ``trees`` (module name to parsed
    source): a call whose name is no string literal, one not of the form
    ``_memo(pc, NAME, BUILD)``, and a name that comes with two builders.
    Builders are compared as source expressions."""
    faults = []
    builders = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) != "_memo":
                continue
            where = f"{module}:{node.lineno}"
            if len(node.args) != 3 or node.keywords:
                faults.append(f"{where}: not _memo(pc, NAME, BUILD)")
                continue
            name, build = node.args[1], ast.unparse(node.args[2])
            if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
                faults.append(f"{where}: name {ast.unparse(name)} is no string literal")
                continue
            builders.setdefault(name.value, {}).setdefault(build, where)
    for name, seen in sorted(builders.items()):
        if len(seen) > 1:
            by = ", ".join(f"{build} at {where}" for build, where in sorted(seen.items()))
            faults.append(f"{name!r} kept by {by}")
    return faults


def test_each_kept_name_has_one_builder():
    trees = {name: _parse(name) for name in MODULES}
    assert memo_faults(trees) == []
    names = {
        node.args[1].value
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_memo"
    }
    assert names == {"_thin", "_minimal", "_key", "_ranks"}


def test_the_name_check_sees_clashes():
    clean = '''
def a(pc):
    return _memo(pc, "_x", build_x)

def b(pc):
    return coalgebra._memo(pc, "_x", build_x)[0]
'''
    clash = '''
def c(pc):
    return _memo(pc, "_x", build_y)
'''
    computed = '''
NAME = "_x"

def d(pc):
    return _memo(pc, NAME, build_x)

def e(pc):
    return _memo(pc, "_" + "x", build_x)

def f(pc):
    return _memo(pc, name="_x", build=build_x)
'''
    assert memo_faults({"clean": ast.parse(clean)}) == []
    assert memo_faults({"clean": ast.parse(clean), "clash": ast.parse(clash)}) == [
        "'_x' kept by build_x at clean:3, build_y at clash:3"
    ]
    assert memo_faults({"computed": ast.parse(computed)}) == [
        "computed:5: name NAME is no string literal",
        "computed:8: name '_' + 'x' is no string literal",
        "computed:11: not _memo(pc, NAME, BUILD)",
    ]
