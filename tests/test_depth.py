"""Deep terms through the library at the default recursion limit.

Terms nested ten thousand levels deep, terms with a thousand nested stream
nodes, and the normal form of a 4000-state ladder-shaped tree go through
normalize, dump, load, rank, equality and the tree encodings.  Documents are
passed as Python objects: the standard ``json`` reader itself recurses, so
JSON text this deep is refused (see ``tests/test_cli.py``).
"""

import random
import sys

import pytest

from conftest import ladder_tree
from thincoalg import Coalgebra, PointedCoalgebra, cb_rank, extract_normal, is_thin
from thincoalg.files import dump_term, load_term
from thincoalg.normalform import normalize
from thincoalg.semantics import beh_equal_terms, unfold
from thincoalg.terms import FNode, GNode, LassoStream, rank, term_compare, term_depth
from thincoalg.treeenc import dom_tree, enc


@pytest.fixture(autouse=True)
def default_limit():
    limit = sys.getrecursionlimit()
    assert limit <= 1000
    yield
    assert sys.getrecursionlimit() == limit


def _chain(sig, depth):
    t = FNode(sig.canonical_tuple("c", ()))
    for _ in range(depth):
        t = FNode(sig.canonical_tuple("u", (t,)))
    return t


def _nested_loops(sig, loops):
    # b(hole, inner) repeated forever, around the next level inside.
    t = FNode(sig.canonical_tuple("c", ()))
    for _ in range(loops):
        t = GNode(LassoStream((), (sig.canonical_context("b", 0, (t,)),)))
    return t


def _round_trip(sig, t):
    nf = normalize(sig, t)
    back = load_term(dump_term(nf), sig)
    assert back is nf
    assert beh_equal_terms(sig, back, t)
    assert enc(sig, back, 8) == dom_tree(sig, back, 8) == dom_tree(sig, t, 8)
    return nf


def test_chain_ten_thousand_deep_round_trips(sig_poly):
    t = _chain(sig_poly, 10_000)
    assert term_depth(t) == 10_001
    nf = _round_trip(sig_poly, t)
    assert nf is t  # a finite tree is its own normal form
    assert rank(nf) == rank(load_term(dump_term(t), sig_poly))
    assert (rank(nf).major, rank(nf).minor) == (0, 10_001)
    other = _chain(sig_poly, 9_999)
    assert not beh_equal_terms(sig_poly, t, other)
    assert term_compare(other, t) == -1 and other < t


def test_thousand_nested_loops_round_trip(sig_poly):
    t = _nested_loops(sig_poly, 1000)
    nf = _round_trip(sig_poly, t)
    assert rank(nf).major == 1000
    assert term_depth(nf) == 1001
    # differing only at the innermost leaf: decided a thousand levels down
    u = _nested_loops(sig_poly, 999)
    u = GNode(LassoStream((), (sig_poly.canonical_context("b", 1, (u,)),)))
    assert term_compare(t, u) == -1 and term_compare(u, t) == 1


def test_ladder_tree_of_four_thousand_states(sig_poly):
    raw, loops = ladder_tree(4000, random.Random(7))
    coalg = Coalgebra(sig_poly, tuple(sig_poly.canonical_tuple(op, args) for op, args in raw))
    pc = PointedCoalgebra(coalg, 0)
    assert coalg.n_states >= 4000 and loops >= 200
    assert is_thin(pc).thin
    nf = extract_normal(pc)
    assert rank(nf).major == cb_rank(pc) == loops
    assert term_depth(nf) > loops
    assert load_term(dump_term(nf), sig_poly) is nf
    assert extract_normal(unfold(sig_poly, nf).pc) is nf
