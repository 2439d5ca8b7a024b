"""Lasso canonicalization, term ordering, hash-consing, ranks, and coherence
rewrites."""

import gc
import random
import sys
import threading
import weakref

import pytest

from thincoalg import TermError
from thincoalg import terms as terms_module
from thincoalg.files import dump_term, load_term
from thincoalg.generate import rand_term
from thincoalg.normalform import enumerate_terms
from thincoalg.signature import ContextElem, FElem
from thincoalg.terms import (
    FNode,
    GNode,
    LassoStream,
    Rank,
    apply_rewrite,
    fold_candidates,
    positions,
    random_rewrite,
    rank,
    replace_at,
    rewrite_actions,
    subterms,
    term_compare,
    term_size,
    unfold_step,
)


@pytest.fixture(scope="module")
def atoms(sig_poly):
    Fc = FNode(sig_poly.canonical_tuple("c", ()))
    uctx = sig_poly.canonical_context("u", 0, ())
    return {
        "Fc": Fc,
        "uctx": uctx,
        "uomega": GNode(LassoStream((), (uctx,))),
        "bL": sig_poly.canonical_context("b", 0, (Fc,)),
        "bR": sig_poly.canonical_context("b", 1, (Fc,)),
    }


# -- lasso canonicalization -----------------------------------------------


def test_period_is_made_primitive(atoms):
    u = atoms["uctx"]
    s = LassoStream((), (u, u, u))
    assert s.period == (u,) and s.prefix == ()


def test_prefix_absorbs_into_rotated_period(atoms):
    A, B, C = atoms["bL"], atoms["uctx"], atoms["bR"]
    s = LassoStream((A, B), (C, B))
    assert s.prefix == (A,)
    assert s.period == (B, C)


def test_rotation_alignment_identifies_streams(atoms):
    A, B = atoms["bL"], atoms["uctx"]
    assert LassoStream((A,), (B, A)) == LassoStream((), (A, B))
    assert LassoStream((A,), (A,)) == LassoStream((), (A,))


def test_empty_period_is_rejected(atoms):
    with pytest.raises(TermError, match="period"):
        LassoStream((atoms["uctx"],), ())


def _rand_stream(rng, alphabet):
    prefix = tuple(rng.choice(alphabet) for _ in range(rng.randrange(4)))
    period = tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, 4)))
    return (prefix, period), LassoStream(prefix, period)


def test_canonicalization_preserves_the_stream(atoms):
    rng = random.Random(42)
    alphabet = [atoms["bL"], atoms["bR"], atoms["uctx"]]
    for _ in range(300):
        (prefix, period), s = _rand_stream(rng, alphabet)
        n = 3 * (len(prefix) + len(period)) + 2
        raw = [
            prefix[i] if i < len(prefix) else period[(i - len(prefix)) % len(period)]
            for i in range(n)
        ]
        assert list(s.expand(n)) == raw
        # canonical fields rebuild to an equal stream, and the period stays
        # primitive
        assert LassoStream(s.prefix, s.period) == s
        p = s.period
        for d in range(1, len(p)):
            if len(p) % d == 0:
                assert p != p[:d] * (len(p) // d)


def test_head_tail_and_indexing_agree(atoms):
    rng = random.Random(43)
    alphabet = [atoms["bL"], atoms["bR"], atoms["uctx"]]
    for _ in range(200):
        _, s = _rand_stream(rng, alphabet)
        assert s.head() == s.expand(1)[0]
        assert s.tail().expand(6) == s.expand(7)[1:]
        assert tuple(s.context_at(i) for i in range(8)) == s.expand(8)


# -- ordering, subterms, measures -----------------------------------------


def test_branching_nodes_sort_before_stream_nodes(atoms):
    Fc, uomega = atoms["Fc"], atoms["uomega"]
    assert term_compare(Fc, uomega) == -1
    assert term_compare(uomega, Fc) == 1
    assert term_compare(uomega, uomega) == 0
    assert sorted([uomega, Fc]) == [Fc, uomega]


def test_immediate_subterms(sig_poly, atoms):
    Fc, uomega = atoms["Fc"], atoms["uomega"]
    pair = FNode(sig_poly.canonical_tuple("b", (Fc, uomega)))
    assert subterms(pair) == frozenset({Fc, uomega})
    assert subterms(uomega) == frozenset()
    assert subterms(GNode(LassoStream((), (atoms["bL"],)))) == frozenset({Fc})


def test_rank_of_small_terms(sig_poly, atoms):
    Fc, uomega = atoms["Fc"], atoms["uomega"]
    assert rank(Fc) == Rank(0, 1)
    assert rank(uomega) == Rank(1, 0)
    assert rank(FNode(sig_poly.canonical_tuple("u", (uomega,)))) == Rank(1, 1)
    assert rank(FNode(sig_poly.canonical_tuple("b", (Fc, Fc)))) == Rank(0, 2)
    wrapped = GNode(LassoStream((), (sig_poly.canonical_context("b", 0, (uomega,)),)))
    assert rank(wrapped) == Rank(2, 0)


def test_rank_orders_lexicographically():
    assert Rank(0, 5) < Rank(1, 0)
    assert Rank(1, 0) < Rank(1, 1)
    assert Rank(2, 0) > Rank(1, 9)


def test_term_size_counts_nodes(sig_poly, atoms):
    Fc, uomega = atoms["Fc"], atoms["uomega"]
    assert term_size(Fc) == 1
    assert term_size(uomega) == 2
    assert term_size(GNode(LassoStream((), (atoms["bL"],)))) == 3
    assert term_size(FNode(sig_poly.canonical_tuple("b", (Fc, uomega)))) == 4


# -- fold and unfold ------------------------------------------------------


def test_unfold_step_exposes_the_head(sig_poly, atoms):
    uomega = atoms["uomega"]
    assert unfold_step(sig_poly, uomega) == FNode(
        sig_poly.canonical_tuple("u", (uomega,))
    )


def test_fold_candidates_invert_unfolding(sig_poly, sig_bag, sig_server):
    rng = random.Random(77)
    folds_seen = 0
    for sig in (sig_poly, sig_bag, sig_server):
        for _ in range(120):
            t = rand_term(sig, rng.randrange(1, 10), rng)
            if isinstance(t, GNode):
                assert t in fold_candidates(sig, unfold_step(sig, t))
            else:
                for g in fold_candidates(sig, t):
                    folds_seen += 1
                    assert unfold_step(sig, g) == t
    assert folds_seen > 20


def test_no_fold_candidates_without_stream_arguments(sig_poly, atoms):
    Fc = atoms["Fc"]
    assert fold_candidates(sig_poly, Fc) == []
    assert fold_candidates(sig_poly, FNode(sig_poly.canonical_tuple("b", (Fc, Fc)))) == []


# -- positions and rewriting ----------------------------------------------


def test_positions_enumerate_the_canonical_layout(sig_poly, atoms):
    Fc, uomega = atoms["Fc"], atoms["uomega"]
    pair = FNode(sig_poly.canonical_tuple("b", (Fc, uomega)))
    assert list(positions(pair)) == [
        ((), pair),
        ((("f", 0),), Fc),
        ((("f", 1),), uomega),
    ]
    g = GNode(LassoStream((), (atoms["bL"],)))
    assert list(positions(g)) == [((), g), ((("g", 0, 0),), Fc)]


def test_replace_recanonicalizes_on_the_way_up(sig_poly, sig_bag, atoms):
    Fc, uomega = atoms["Fc"], atoms["uomega"]
    pair = FNode(sig_poly.canonical_tuple("b", (Fc, uomega)))
    uFc = FNode(sig_poly.canonical_tuple("u", (Fc,)))
    assert replace_at(sig_poly, pair, (("f", 0),), uFc) == FNode(
        sig_poly.canonical_tuple("b", (uFc, uomega))
    )
    # in the unordered pair the new argument may land in either slot
    z = FNode(sig_bag.canonical_tuple("b0", ()))
    o = FNode(sig_bag.canonical_tuple("b1", (z,)))
    bag_pair = FNode(sig_bag.canonical_tuple("b2", (z, o)))
    big = FNode(sig_bag.canonical_tuple("b1", (o,)))
    assert replace_at(sig_bag, bag_pair, (("f", 0),), big) == FNode(
        sig_bag.canonical_tuple("b2", (big, o))
    )


def test_replace_rejects_mismatched_steps(sig_poly, atoms):
    with pytest.raises(TermError):
        replace_at(sig_poly, atoms["uomega"], (("f", 0),), atoms["Fc"])
    with pytest.raises(TermError):
        replace_at(sig_poly, atoms["Fc"], (("g", 0, 0),), atoms["Fc"])


def test_rewrite_actions_list_both_directions(sig_poly, atoms):
    Fc, uomega = atoms["Fc"], atoms["uomega"]
    pair = FNode(sig_poly.canonical_tuple("b", (Fc, uomega)))
    assert rewrite_actions(sig_poly, pair) == [
        ((), "fold", 0),
        ((("f", 1),), "unfold", 0),
    ]
    folded = apply_rewrite(sig_poly, pair, ((), "fold", 0))
    assert folded == GNode(LassoStream((atoms["bR"],), (atoms["uctx"],)))
    assert unfold_step(sig_poly, folded) == pair


def test_apply_rewrite_checks_node_kind(sig_poly, atoms):
    with pytest.raises(TermError, match="unfold"):
        apply_rewrite(sig_poly, atoms["Fc"], ((), "unfold", 0))
    with pytest.raises(TermError, match="fold"):
        apply_rewrite(sig_poly, atoms["uomega"], ((), "fold", 0))


def test_random_rewrite_is_seed_deterministic(sig_server):
    t = rand_term(sig_server, 12, random.Random(5))
    out1 = [random_rewrite(sig_server, t, random.Random(9)) for _ in range(3)]
    out2 = [random_rewrite(sig_server, t, random.Random(9)) for _ in range(3)]
    assert out1 == out2


def test_random_rewrite_fixpoint_without_streams(sig_poly, atoms):
    Fc = atoms["Fc"]
    solid = FNode(sig_poly.canonical_tuple("b", (Fc, Fc)))
    assert rewrite_actions(sig_poly, solid) == []
    assert random_rewrite(sig_poly, solid, random.Random(1)) == solid


# -- hash-consing and the term order --------------------------------------


def _old_key(x):
    """The nested sort key terms used to carry, built recursively: the
    oracle for the order ``term_compare`` now computes node by node."""
    if isinstance(x, FNode):
        return (0, (x.elem.op, tuple(_old_key(a) for a in x.elem.args)))
    if isinstance(x, GNode):
        s = x.stream
        return (1, (tuple(map(_old_ctx_key, s.prefix)), tuple(map(_old_ctx_key, s.period))))
    return x


def _old_ctx_key(c):
    return (c.op, c.hole, tuple(_old_key(s) for s in c.sides))


def _old_hash(x):
    """The structural hash of the former frozen dataclasses."""
    if isinstance(x, FNode):
        return hash(((x.elem.op, tuple(_old_hash_arg(a) for a in x.elem.args)),))
    s = x.stream
    ctxs = tuple(
        tuple((c.op, c.hole, tuple(_old_hash_arg(v) for v in c.sides)) for c in part)
        for part in (s.prefix, s.period)
    )
    return hash((ctxs,))


class _Hashed:
    # Stands in for a subterm in _old_hash: hashes to the given value.
    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def _old_hash_arg(a):
    return _Hashed(_old_hash(a))


def _old_rank(t):
    subs = [_old_rank(u) for u in subterms(t)]
    if isinstance(t, FNode):
        return Rank(max((s.major for s in subs), default=0), 1 + max((s.minor for s in subs), default=0))
    return Rank(1 + max((s.major for s in subs), default=0), 0)


def _old_size(t):
    if isinstance(t, FNode):
        return 1 + sum(_old_size(c) for c in t.elem.args)
    ctxs = t.stream.prefix + t.stream.period
    return 1 + sum(1 + sum(_old_size(s) for s in c.sides) for c in ctxs)


@pytest.fixture(scope="module")
def pools(sig_poly, sig_bag, sig_server):
    return {
        name: (sig, enumerate_terms(sig, 6))
        for name, sig in (("poly", sig_poly), ("bag", sig_bag), ("server", sig_server))
    }


@pytest.mark.parametrize("name", ["poly", "bag", "server"])
def test_order_agrees_with_the_recursive_key_on_every_pair(pools, name):
    _, pool = pools[name]
    keys = [_old_key(t) for t in pool]
    assert keys == sorted(keys)  # enumerate_terms returns the old order
    for a, ka in zip(pool, keys):
        for b, kb in zip(pool, keys):
            want = (ka > kb) - (ka < kb)
            assert term_compare(a, b) == want
            assert (a < b, a <= b, a > b, a >= b) == (want < 0, want <= 0, want > 0, want >= 0)
    assert sorted(reversed(pool)) == pool


def test_order_agrees_with_the_recursive_key_on_uncanonical_widths(sig_poly, atoms):
    # Direct FElem construction skips the arity check; the old key still
    # ordered such nodes, a shorter argument tuple first.
    Fc, uomega = atoms["Fc"], atoms["uomega"]
    terms = [
        FNode(FElem("b", ())),
        FNode(FElem("b", (Fc,))),
        FNode(FElem("b", (Fc, Fc))),
        FNode(FElem("b", (Fc, uomega))),
        FNode(FElem("b", (uomega,))),
    ]
    for a in terms:
        for b in terms:
            ka, kb = _old_key(a), _old_key(b)
            assert term_compare(a, b) == (ka > kb) - (ka < kb)


@pytest.mark.parametrize("name", ["poly", "bag", "server"])
def test_cached_measures_match_their_recursive_definitions(pools, name):
    _, pool = pools[name]
    for t in pool:
        assert rank(t) == _old_rank(t)
        assert term_size(t) == _old_size(t)
        assert hash(t) == _old_hash(t)


@pytest.mark.parametrize("name", ["poly", "bag", "server"])
def test_terms_built_independently_are_the_same_object(pools, name):
    sig, pool = pools[name]
    for t in pool:
        assert load_term(dump_term(t), sig) is t
        if isinstance(t, FNode):
            args = [load_term(dump_term(a), sig) for a in reversed(t.elem.args)]
            assert FNode(sig.canonical_tuple(t.elem.op, args[::-1])) is t
        else:
            s = t.stream
            fresh = [ContextElem(c.op, c.hole, c.sides) for c in s.prefix + s.period]
            again = LassoStream(fresh[: len(s.prefix)], fresh[len(s.prefix):])
            assert again is s and GNode(again) is t
            assert all(a is b for a, b in zip(again.prefix + again.period, s.prefix + s.period))


def test_a_dropped_term_leaves_its_unique_table(sig_poly):
    tables = {n: getattr(terms_module, n) for n in ("_FNODES", "_GNODES", "_STREAMS")}
    before = {n: len(t) for n, t in tables.items()}
    c = FNode(sig_poly.canonical_tuple("c", ()))
    chain = [c]
    for _ in range(40):
        chain.append(FNode(sig_poly.canonical_tuple("u", (chain[-1],))))
    g = GNode(LassoStream((), (sig_poly.canonical_context("b", 0, (chain[-1],)),)))
    assert tables["_FNODES"].get((chain[-1].elem.op, chain[-1].elem.args)) is chain[-1]
    assert tables["_GNODES"].get(g.stream) is g
    refs = [weakref.ref(x) for x in chain + [g, g.stream]]
    grown = {n: len(t) for n, t in tables.items()}
    assert grown["_GNODES"] - before["_GNODES"] == 1
    del chain, g
    gc.collect()
    # Only the nodes held elsewhere (the fixture's pools) stay.
    alive = [r() for r in refs if r() is not None]
    assert all(isinstance(x, FNode) for x in alive) and len(alive) <= 7
    assert {n: len(t) for n, t in tables.items()} == {
        "_FNODES": grown["_FNODES"] - (41 - len(alive)),
        "_GNODES": grown["_GNODES"] - 1,
        "_STREAMS": grown["_STREAMS"] - 1,
    }
    del alive
    c = FNode(sig_poly.canonical_tuple("c", ()))
    assert tables["_FNODES"].get((c.elem.op, c.elem.args)) is c


def test_terms_are_immutable(atoms):
    with pytest.raises(AttributeError):
        atoms["Fc"].elem = None
    with pytest.raises(AttributeError):
        atoms["uomega"].stream.period = ()


def test_threads_building_equal_terms_share_one_object(sig_bag):
    # More threads than cores and a tiny switch interval, so threads are
    # often preempted between a table lookup and its insert.
    results = {}

    def build(tid):
        out = []
        t = FNode(sig_bag.canonical_tuple("b0", ()))
        for k in range(600):
            g = GNode(LassoStream((), (sig_bag.canonical_context("b2", 0, (t,)),)))
            t = FNode(sig_bag.canonical_tuple("b2", (t, g)))
            out.append((t, g, g.stream, g.stream.period[0]))
        results[tid] = out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == 6
    first = results[0]
    for other in results.values():
        assert all(x is y for a, b in zip(first, other) for x, y in zip(a, b))
