"""Lint gate: the term modules walk terms on explicit stacks, never by
recursion.

Standard library only (``ast``).  A function fails the gate when its body,
nested functions included, mentions its own name: a call ``f(...)``, a
callback ``map(f, ...)``, or ``self.f`` / ``cls.f`` in a method.  The brute-force oracle helpers, which only ever see tiny
inputs, are allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "thincoalg"

GATED = ("terms.py", "semantics.py", "files.py", "treeenc.py", "normalform.py", "generate.py")
ALLOWED = {"_compositions", "enumerate_terms", "rand_term"}


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


def recursive_functions(tree):
    """Names of the functions in ``tree`` that call themselves."""
    return sorted(
        {
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name in set(_mentioned_names(fn))
        }
    )


def _functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        fn.name for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@pytest.mark.parametrize("name", GATED)
def test_no_recursive_term_walks(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    found = [f for f in recursive_functions(tree) if f not in ALLOWED]
    assert not found, f"{name} has recursive functions: {found}"


def test_allowlist_names_existing_functions():
    defined = set().union(*(_functions(SRC / name) for name in GATED))
    assert ALLOWED <= defined


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
        "as_callback", "direct", "go", "through_closure", "walk"
    ]
