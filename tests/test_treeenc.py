"""Position-word trees and the derivative rank of rigid behaviours."""

import random

import pytest

from conftest import _reference_cb_rank, build
from thincoalg import NonThinError, SignatureError, TermError
from thincoalg.generate import rand_term
from thincoalg.normalform import normalize
from thincoalg.semantics import unfold
from thincoalg.terms import FNode, GNode, LassoStream, rank
from thincoalg.treeenc import WordTree, assert_polynomial, cb_rank, dom_tree, enc


@pytest.fixture(scope="module")
def atoms(sig_poly):
    Fc = FNode(sig_poly.canonical_tuple("c", ()))
    return {
        "Fc": Fc,
        "uomega": GNode(LassoStream((), (sig_poly.canonical_context("u", 0, ()),))),
        "bspine": GNode(
            LassoStream((), (sig_poly.canonical_context("b", 0, (Fc,)),))
        ),
    }


def test_rigidity_guard(sig_poly, sig_bag, sig_server):
    assert_polynomial(sig_poly)
    for sig in (sig_bag, sig_server):
        with pytest.raises(SignatureError, match="trivial"):
            assert_polynomial(sig)


def test_word_tree_validation():
    WordTree(1, frozenset({(), (0,)}))
    with pytest.raises(ValueError, match="empty word"):
        WordTree(1, frozenset({(0,)}))
    with pytest.raises(ValueError, match="longer"):
        WordTree(1, frozenset({(), (0,), (0, 0)}))
    with pytest.raises(ValueError, match="prefix-closed"):
        WordTree(2, frozenset({(), (0, 0)}))


def test_encoding_of_small_terms(sig_poly, atoms):
    assert enc(sig_poly, atoms["uomega"], 3).words == frozenset(
        {(), (0,), (0, 0), (0, 0, 0)}
    )
    pair = FNode(sig_poly.canonical_tuple("b", (atoms["Fc"], atoms["Fc"])))
    assert enc(sig_poly, pair, 2).words == frozenset({(), (0,), (1,)})
    for tree in (enc, dom_tree):
        with pytest.raises(TermError, match="nonnegative"):
            tree(sig_poly, pair, -1)
    # spine of first positions with the halted side hanging off it
    assert enc(sig_poly, atoms["bspine"], 2).words == frozenset(
        {(), (0,), (1,), (0, 0), (0, 1)}
    )


def test_encoding_rejects_group_signatures(sig_bag):
    z = FNode(sig_bag.canonical_tuple("b0", ()))
    with pytest.raises(SignatureError):
        enc(sig_bag, z, 2)


def test_truncation_is_consistent(sig_poly, atoms):
    for t in atoms.values():
        for d in range(5):
            full = enc(sig_poly, t, d + 1).words
            assert enc(sig_poly, t, d).words == frozenset(
                w for w in full if len(w) <= d
            )


def test_term_and_coalgebra_trees_agree(sig_poly, atoms):
    rng = random.Random(616)
    terms = list(atoms.values()) + [
        rand_term(sig_poly, rng.randrange(1, 12), rng) for _ in range(40)
    ]
    for t in terms:
        for depth in range(1, 7):
            assert enc(sig_poly, t, depth) == dom_tree(sig_poly, t, depth)


def test_derivative_rank_of_fixtures(u_loop, full_binary, sig_poly):
    assert cb_rank(u_loop) == 1
    # a loop exiting into a live loop adds a layer; a dead exit does not
    assert cb_rank(build(sig_poly, [("b", (0, 1)), ("u", (1,))])) == 2
    assert cb_rank(build(sig_poly, [("b", (0, 1)), ("c", ())])) == 1
    assert cb_rank(build(sig_poly, [("u", (1,)), ("c", ())])) == 0
    with pytest.raises(NonThinError) as exc:
        cb_rank(full_binary)
    assert exc.value.verdict.witness is not None


def test_derivative_rank_matches_normal_major(sig_poly):
    rng = random.Random(747)
    for _ in range(60):
        t = rand_term(sig_poly, rng.randrange(1, 12), rng)
        pc = unfold(sig_poly, t).pc
        assert cb_rank(pc) == rank(normalize(sig_poly, t)).major == _reference_cb_rank(pc)
