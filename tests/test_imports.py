"""Lint gate: no module of the package imports a name it never uses.

Standard library only (``ast``).  ``from __future__`` imports and the names
``__init__.py`` re-exports through ``__all__`` are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "thincoalg"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree) | _exported(tree)
    unused = [
        f"{name} (line {line})" for name, line in _imported(tree) if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_gate_sees_an_unused_import():
    tree = ast.parse("from typing import Callable, Iterator\nx: Iterator[int]\n")
    assert [n for n, _ in _imported(tree) if n not in _used(tree)] == ["Callable"]
