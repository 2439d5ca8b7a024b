"""Unfolding terms into coalgebras and behavioural equality of terms."""

import random

import pytest

from conftest import _reference_beh_equal
from thincoalg import Coalgebra, FElem, PointedCoalgebra, semantics
from thincoalg.coalgebra import beh_equal, minimize
from thincoalg.generate import rand_term
from thincoalg.normalform import enumerate_terms
from thincoalg.semantics import _unfold, beh_equal_terms, unfold
from thincoalg.terms import FNode, GNode, LassoStream, apply_rewrite, random_rewrite, rewrite_actions
from thincoalg.thinness import is_thin


@pytest.fixture(scope="module")
def atoms(sig_poly):
    Fc = FNode(sig_poly.canonical_tuple("c", ()))
    uctx = sig_poly.canonical_context("u", 0, ())
    return {
        "Fc": Fc,
        "uomega": GNode(LassoStream((), (uctx,))),
        "bspine": GNode(LassoStream((), (sig_poly.canonical_context("b", 0, (Fc,)),))),
    }


def test_pure_loop_unfolds_to_one_state(sig_poly, atoms):
    r = unfold(sig_poly, atoms["uomega"])
    assert r.pc.coalg.transition == (FElem("u", (0,)),)
    assert r.pc.root == 0
    assert r.node_index == {atoms["uomega"]: 0}


def test_shared_subterms_share_states(sig_poly, atoms):
    uomega = atoms["uomega"]
    pair = FNode(sig_poly.canonical_tuple("b", (uomega, uomega)))
    r = unfold(sig_poly, pair)
    assert r.pc.coalg.transition == (FElem("b", (1, 1)), FElem("u", (1,)))
    assert r.node_index == {pair: 0, uomega: 1}


def test_stream_sides_become_states(sig_poly, atoms):
    r = unfold(sig_poly, atoms["bspine"])
    assert r.pc.coalg.transition == (FElem("b", (0, 1)), FElem("c", ()))
    assert r.node_index[atoms["bspine"]] == 0
    assert r.node_index[atoms["Fc"]] == 1


def test_unfold_is_deterministic(sig_server):
    rng = random.Random(12)
    for _ in range(30):
        t = rand_term(sig_server, rng.randrange(1, 12), rng)
        r1, r2 = unfold(sig_server, t), unfold(sig_server, t)
        assert r1.pc == r2.pc
        assert r1.node_index == r2.node_index


def test_node_index_replays_the_transition(sig_poly, sig_bag, sig_server):
    rng = random.Random(13)
    for sig in (sig_poly, sig_bag, sig_server):
        for _ in range(40):
            t = rand_term(sig, rng.randrange(1, 12), rng)
            r = unfold(sig, t)
            assert sorted(r.node_index.values()) == list(range(r.pc.coalg.n_states))
            for u, i in r.node_index.items():
                if isinstance(u, FNode):
                    assert sig.map_elem(u.elem, r.node_index.__getitem__) == (
                        r.pc.coalg.transition[i]
                    )


def _reference_unfold(sig, t):
    # The unfolding as built before one canonicalization per stream row:
    # the head canonicalized as a context over state ids, then plugged with
    # the tail's state and canonicalized again.
    index, queue, transitions = {}, [], []

    def state_of(u):
        if u not in index:
            index[u] = len(index)
            queue.append(u)
        return index[u]

    state_of(t)
    for u in queue:
        if isinstance(u, FNode):
            transitions.append(sig.map_elem(u.elem, state_of))
        else:
            ctx = u.stream.head()
            head = sig.canonical_context(ctx.op, ctx.hole, tuple(map(state_of, ctx.sides)))
            transitions.append(sig.plug(head, state_of(GNode(u.stream.tail()))))
    return Coalgebra(sig, tuple(transitions)), index


def test_unfold_matches_the_plugged_context_reference(
    sig_poly, sig_bag, sig_server, sig_c3, sig_mixed
):
    rng = random.Random(4242)
    cases = []
    for sig, size in ((sig_poly, 5), (sig_bag, 5), (sig_server, 5), (sig_c3, 7), (sig_mixed, 7)):
        terms = enumerate_terms(sig, size)
        for _ in range(40):
            t = s = rand_term(sig, rng.randrange(1, 16), rng)
            for _ in range(rng.randrange(1, 6)):
                s = random_rewrite(sig, s, rng)
            terms += [t, s]
        cases += [(sig, t) for t in terms]
    streams = 0
    for sig, t in cases:
        got = unfold(sig, t)
        coalg, index = _reference_unfold(sig, t)
        assert got.pc == PointedCoalgebra(coalg, 0)
        assert list(got.node_index.items()) == list(index.items())
        streams += any(isinstance(u, GNode) for u in index)
    assert len(cases) > 2000 and streams > len(cases) // 4


def test_term_and_fixture_loops_agree(sig_poly, atoms, u_loop):
    assert beh_equal(unfold(sig_poly, atoms["uomega"]).pc, u_loop)


def test_beh_equal_terms_on_small_pairs(sig_poly, atoms):
    uomega, Fc = atoms["uomega"], atoms["Fc"]
    assert beh_equal_terms(sig_poly, uomega, FNode(sig_poly.canonical_tuple("u", (uomega,))))
    assert not beh_equal_terms(sig_poly, uomega, Fc)
    assert not beh_equal_terms(sig_poly, uomega, atoms["bspine"])


def test_beh_equal_terms_refines_one_shared_unfolding(
    sig_poly, sig_bag, sig_server, monkeypatch
):
    calls = []
    refine = semantics._refine

    def recording(c, states):
        calls.append((c, list(states)))
        return refine(c, states)

    monkeypatch.setattr(semantics, "_refine", recording)
    rng = random.Random(2718)
    answers, changed = set(), 0
    for sig in (sig_poly, sig_bag, sig_server):
        terms = enumerate_terms(sig, 4)
        pairs = [(a, b) for i, a in enumerate(terms) for b in terms[i:]]
        rewritten = []
        for _ in range(30):
            a, b = (rand_term(sig, rng.randrange(1, 14), rng) for _ in range(2))
            s = a
            for _ in range(rng.randrange(1, 6)):
                s = random_rewrite(sig, s, rng)
            pairs += [(a, b), (a, a)]
            rewritten.append((a, s))
        for a, b in pairs + rewritten:
            ua, ub = unfold(sig, a).pc, unfold(sig, b).pc
            want = _reference_beh_equal(ua, ub)
            calls.clear()
            assert beh_equal_terms(sig, a, b) == want
            shared = _unfold(sig, (a, b))[0]
            assert calls == [(shared, list(range(shared.n_states)))]
            assert shared.n_states <= ua.coalg.n_states + ub.coalg.n_states
            if a is b:
                assert shared == ua.coalg
            answers.add(want)
        for a, s in rewritten:
            assert beh_equal_terms(sig, a, s)
            changed += a != s
            assert _unfold(sig, (a, s))[0].n_states < sum(
                unfold(sig, t).pc.coalg.n_states for t in (a, s)
            )
    assert answers == {True, False} and changed > 0


def test_unfoldings_are_always_thin(sig_poly, sig_bag, sig_server):
    rng = random.Random(99)
    for sig in (sig_poly, sig_bag, sig_server):
        for _ in range(80):
            t = rand_term(sig, rng.randrange(1, 14), rng)
            assert is_thin(unfold(sig, t).pc).thin


def test_rewrites_preserve_behaviour(sig_poly, sig_bag, sig_server):
    rng = random.Random(314)
    for sig in (sig_poly, sig_bag, sig_server):
        for _ in range(40):
            t = rand_term(sig, rng.randrange(2, 12), rng)
            s = t
            for _ in range(rng.randrange(1, 4)):
                s = random_rewrite(sig, s, rng)
            assert beh_equal_terms(sig, t, s)


def test_every_single_rewrite_preserves_behaviour(sig_server):
    # exhaustive over the action list of a few terms, not just sampled
    rng = random.Random(271)
    for _ in range(12):
        t = rand_term(sig_server, rng.randrange(3, 10), rng)
        for action in rewrite_actions(sig_server, t):
            assert beh_equal_terms(sig_server, t, apply_rewrite(sig_server, t, action))


def test_minimized_unfolding_is_a_quotient(sig_bag):
    rng = random.Random(55)
    for _ in range(30):
        t = rand_term(sig_bag, rng.randrange(1, 12), rng)
        pc = unfold(sig_bag, t).pc
        mpc, mapping = minimize(pc)
        assert mpc.coalg.n_states <= pc.coalg.n_states
        assert beh_equal(pc, mpc)
        assert mapping[pc.root] == mpc.root
