"""Lint gate: the component search, the thinness guard and the refinement
have fixed callers.

Every reachable component analysis of the package is the one that
``thinness._analyse`` keeps on a pointed coalgebra, so ``_scc_csr`` is
called there and in ``coalgebra.reachable_condensation``, the public view
of the same search, and nowhere else.  The ``_require_thin`` guard is
passed in two places: ``is_thin`` and the one fold over that analysis,
``thinness._rank_fold``, whose kept lists answer the census, ``cb_rank``,
``state_ranks`` and ``extract_normal``.  ``_refine`` runs for the minimal
quotient, for its canonical key when class sizes differ (see the lemma in
``coalgebra.canonical_key``) and over the shared unfolding of two terms.
A new caller means a second search, fold or equality path; this gate names
it.  Standard library only (``ast``).  A call is matched by the name it is
made through, bare or as an attribute, and is charged to the innermost
enclosing function (``<module>`` at the top level).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "thincoalg"

ALLOWED = {
    "_scc_csr": {"thinness._analyse", "coalgebra.reachable_condensation"},
    "_require_thin": {"thinness.is_thin", "thinness._rank_fold"},
    "_refine": {"coalgebra._minimal_quotient", "coalgebra._key", "semantics.beh_equal_terms"},
}


def callers(trees, name):
    """``module.function`` for each call to ``name`` in ``trees`` (module
    name to parsed source), with the line of the first such call."""
    found = {}

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == name:
                found.setdefault(where, node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, tree in trees.items():
        visit(tree, module, f"{module}.<module>")
    return found


def _package():
    return {
        p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))
    }


def test_the_component_search_and_the_guard_have_fixed_callers():
    trees = _package()
    for name, allowed in ALLOWED.items():
        assert set(callers(trees, name)) == allowed, name


def test_the_gate_sees_an_extra_caller():
    src = '''
from .coalgebra import _scc_csr
from . import thinness


def _analyse(pc):
    return _scc_csr(offs, flat, [pc.root], n)


def census(pc):
    comps, comp, looped = thinness._require_thin(pc)
    return [c for c in comps]


def beh_equal(pc1, pc2):
    return _refine(union, states)


class Report:
    def components(self, pc):
        return _scc_csr(offs, flat, [pc.root], n)


SEARCHED = _scc_csr(offs, flat, [0], 1)
'''
    trees = {"thinness": ast.parse(src)}
    assert callers(trees, "_scc_csr") == {
        "thinness._analyse": 7,
        "thinness.components": 21,
        "thinness.<module>": 24,
    }
    assert callers(trees, "_require_thin") == {"thinness.census": 11}
    assert callers(trees, "_refine") == {"thinness.beh_equal": 16}
    assert set(callers(trees, "_scc_csr")) != ALLOWED["_scc_csr"]
    assert set(callers(trees, "_refine")) != ALLOWED["_refine"]
