"""Lint gate: the package walks terms, paths and graphs on explicit stacks,
never by recursion.

Standard library only (``ast``).  A function fails the gate when its body,
nested functions included, mentions its own name: a call ``f(...)``, a
callback ``map(f, ...)``, or ``self.f`` / ``cls.f`` in a method.  Functions
are named by qualified name (``outer.inner``, ``Class.method``), so a
nested helper is told apart from a namesake elsewhere in the module.  The
brute-force oracle helpers, which only ever see tiny inputs, are allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "thincoalg"

GATED = (
    "terms.py", "semantics.py", "files.py", "treeenc.py", "normalform.py", "generate.py",
    "coalgebra.py", "thinness.py", "cli.py", "signature.py",
)
ALLOWED = {
    "normalform.py": {"_compositions", "enumerate_terms"},
    "generate.py": {"rand_term"},
}

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _mentioned_names(fn):
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            yield node.attr


def _qualified_functions(tree):
    """(qualified name, node) for every function in ``tree``."""
    stack = [("", node) for node in ast.iter_child_nodes(tree)]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (*_FUNCTION, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, _FUNCTION):
                yield name, node
            prefix = name + "."
        stack.extend((prefix, child) for child in ast.iter_child_nodes(node))


def recursive_functions(tree):
    """Qualified names of the functions in ``tree`` that call themselves."""
    return sorted(
        name
        for name, fn in _qualified_functions(tree)
        if fn.name in set(_mentioned_names(fn))
    )


def _functions(path):
    return {name for name, _ in _qualified_functions(ast.parse(path.read_text(encoding="utf-8")))}


@pytest.mark.parametrize("name", GATED)
def test_no_recursive_term_walks(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    found = [f for f in recursive_functions(tree) if f not in ALLOWED.get(name, ())]
    assert not found, f"{name} has recursive functions: {found}"


def test_allowlist_names_existing_functions():
    assert set(ALLOWED) <= set(GATED)
    for name, allowed in ALLOWED.items():
        assert allowed <= _functions(SRC / name), name


def test_the_gate_sees_recursion():
    src = '''
def direct(n):
    return 1 if n == 0 else direct(n - 1)

def outer(t):
    def go(u):
        return [go(c) for c in u]
    return go(t)

def through_closure(t):
    def helper(u):
        return through_closure(u)
    return helper(t)

class Walker:
    def walk(self, t):
        return self.walk(t)

def paths(t):
    def walk(u):
        return [walk(c) for c in u]
    return walk(t)

def cycles(t):
    def walk(u):
        return list(u)
    return walk(t)

def as_callback(sig, elem):
    return sig.map_elem(elem, lambda x: as_callback(sig, x))

def iterative(t):
    stack = [t]
    while stack:
        stack.extend(stack.pop())

class Node:
    def __new__(cls):
        return object.__new__(cls)
'''
    assert recursive_functions(ast.parse(src)) == [
        "Walker.walk", "as_callback", "direct", "outer.go", "paths.walk", "through_closure"
    ]
