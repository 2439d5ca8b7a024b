"""Lint gate: only ``coalgebra._collector_paused`` switches the collector.

The loaders, ``dump_coalgebra`` and the thinness witness pause CPython's
cyclic garbage collector through that one context manager, whose
docstring says why it is safe and what it cannot promise across threads.
Any other switch (``gc.disable``, ``gc.enable``, ``gc.freeze``,
``gc.set_threshold`` or a forced ``gc.collect``) could leave the collector
off after an error, or fight the helper's rule that the outermost scope
owns the switch, so no other code in the package may call them.  Standard
library only (``ast``).  A call is matched through ``gc`` under any name it
is imported as, and through names imported from it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "thincoalg"

SWITCHES = {"disable", "enable", "freeze", "set_threshold", "collect"}
ALLOWED = ("coalgebra.py", "_collector_paused")


def switch_calls(tree, allowed_function=None):
    """Line numbers in ``tree`` of calls to a collector switch, outside the
    function named ``allowed_function``."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            names.update(a.asname or a.name for a in node.names if a.name in SWITCHES)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed_function:
            skip.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if id(node) in skip or not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SWITCHES
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ) or (isinstance(func, ast.Name) and func.id in names):
            lines.append(node.lineno)
    return sorted(lines)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_helper_switches_the_collector():
    found = []
    for path in sorted(SRC.glob("*.py")):
        allowed = ALLOWED[1] if path.name == ALLOWED[0] else None
        found += [f"{path.name}:{line}" for line in switch_calls(_parse(path), allowed)]
    assert not found, f"collector switched outside coalgebra._collector_paused at {found}"


def test_the_helper_is_the_switch():
    # The exemption names a function that exists and does the switching.
    tree = _parse(SRC / ALLOWED[0])
    (fn,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == ALLOWED[1]
    ]
    lines = switch_calls(tree)
    assert len(lines) == 2
    assert all(fn.lineno <= line <= fn.end_lineno for line in lines)


def test_the_gate_sees_switches():
    src = '''
import gc
import gc as collector
from gc import collect, freeze as pin


def _collector_paused():
    gc.disable()
    gc.enable()


def load(path):
    gc.disable()
    collector.set_threshold(0)
    collect()
    pin()
    gc.freeze()
    return gc.isenabled(), gc.get_count()


def unrelated(obj):
    obj.enable()
    return obj.collect()
'''
    tree = ast.parse(src)
    assert switch_calls(tree, "_collector_paused") == [13, 14, 15, 16, 17]
    assert switch_calls(tree) == [8, 9, 13, 14, 15, 16, 17]
