"""Signatures: permutation groups, canonical tuples and contexts, plug/base."""

import itertools
import math
import pickle
import random
import sys
import time

import pytest
from conftest import build
from hypothesis import given, settings
from hypothesis import strategies as st

from thincoalg import (
    ContextElem,
    FElem,
    OperationSymbol,
    PermGroup,
    SignatureError,
    SignatureSpec,
    canonical_key,
    enumerate_group,
    minimize,
)
from thincoalg import signature
from thincoalg.generate import rand_term
from thincoalg.normalform import enumerate_terms
from thincoalg.signature import (
    _HOLE,
    apply_perm,
    check_perm,
    compose_perms,
    identity_perm,
    invert_perm,
    position_orbits,
    sortable_orbits,
    stabilizer_chain,
)
from thincoalg.terms import GNode


# -- permutations ---------------------------------------------------------


def test_apply_perm_moves_entry_to_image_position():
    # sigma sends position k to position sigma[k]
    assert apply_perm((1, 2, 0), ("a", "b", "c")) == ("c", "a", "b")
    assert apply_perm((0, 2, 1), ("a", "b", "c")) == ("a", "c", "b")


def test_check_perm_rejects_non_bijections():
    with pytest.raises(SignatureError):
        check_perm((0, 0), 2)
    with pytest.raises(SignatureError):
        check_perm((0, 2), 2)
    with pytest.raises(SignatureError):
        check_perm((0, 1, 2), 2)
    # Entries equal to positions but not ints cannot index a tuple.
    with pytest.raises(SignatureError):
        check_perm((1.0, 2.0, 0.0), 3)
    with pytest.raises(SignatureError):
        check_perm((True, False), 2)


def test_compose_and_invert_are_group_operations():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 7)
        p = tuple(rng.sample(range(n), n))
        q = tuple(rng.sample(range(n), n))
        e = identity_perm(n)
        assert compose_perms(p, invert_perm(p)) == e
        assert compose_perms(invert_perm(p), p) == e
        assert compose_perms(p, e) == compose_perms(e, p) == p
        # apply respects composition: applying q then p equals compose(p, q)
        vals = tuple(range(n))
        assert apply_perm(compose_perms(p, q), vals) == apply_perm(
            p, apply_perm(q, vals)
        )


# -- group enumeration ----------------------------------------------------


def brute_closure(generators, arity):
    perms = {tuple(identity_perm(arity))}
    while True:
        new = {
            compose_perms(g, p) for g in generators for p in perms
        } | perms
        if new == perms:
            return perms
        perms = new


def test_enumerate_group_known_sizes():
    assert len(enumerate_group([], 3)) == 1
    assert len(enumerate_group([(1, 2, 0)], 3)) == 3
    assert len(enumerate_group([(1, 0, 2), (0, 2, 1)], 3)) == 6
    assert len(enumerate_group([(1, 0)], 2)) == 2
    # identity comes first in the sorted element order
    assert enumerate_group([(1, 0)], 2).elements[0] == (0, 1)


def test_enumerate_group_matches_brute_closure():
    rng = random.Random(1)
    for _ in range(100):
        arity = rng.randrange(1, 5)
        gens = [tuple(rng.sample(range(arity), arity)) for _ in range(rng.randrange(3))]
        got = set(enumerate_group(gens, arity).elements)
        assert got == brute_closure(gens, arity)


def test_group_is_closed_under_composition_and_inverse():
    g = enumerate_group([(1, 2, 0), (1, 0, 2)], 3)
    elems = set(g.elements)
    for p in elems:
        assert invert_perm(p) in elems
        for q in elems:
            assert compose_perms(p, q) in elems


def test_permgroup_trivial_flag():
    assert PermGroup(2, (), 1).is_trivial
    assert not enumerate_group([(1, 0)], 2).is_trivial


# -- signature validation -------------------------------------------------


def test_signature_rejects_duplicate_ids():
    with pytest.raises(SignatureError):
        SignatureSpec([OperationSymbol("a", 1), OperationSymbol("a", 2)])


def test_signature_rejects_negative_arity_and_cap_overflow(monkeypatch):
    with pytest.raises(SignatureError):
        SignatureSpec([OperationSymbol("a", -1)])
    for arity in (True, 2.0, "2"):
        with pytest.raises(SignatureError):
            SignatureSpec([OperationSymbol("a", arity)])
    # Arity alone bounds nothing: rigid ops and bags are never enumerated.
    assert SignatureSpec([OperationSymbol("a", 9)]).is_polynomial
    bag10 = SignatureSpec([OperationSymbol("b", 10, _full(10))])
    assert len(bag10.group("b")) == math.factorial(10)

    def refuse(*args):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(signature, "enumerate_group", refuse)
    monkeypatch.setattr(PermGroup, "elements", property(refuse))
    # A_9: no product of symmetric groups, and too large to enumerate.
    a9 = ((1, 2, 0) + tuple(range(3, 9)), tuple(range(1, 9)) + (0,))
    with pytest.raises(SignatureError, match="181440"):
        SignatureSpec([OperationSymbol("a", 9, a9)])
    # Neither the chain nor the classification of a rigid op reads its arity.
    started = time.perf_counter()
    sig = SignatureSpec([OperationSymbol("a", 10**9)])
    assert time.perf_counter() - started < 0.5
    assert sig.is_polynomial and sig.arity("a") == 10**9


def test_large_enumerated_groups_within_the_bound_build():
    c12 = OperationSymbol("c", 12, (tuple(range(1, 12)) + (0,),))
    d10 = OperationSymbol(
        "d", 10, (tuple(range(1, 10)) + (0,), tuple(-k % 10 for k in range(10)))
    )
    sig = SignatureSpec([c12, d10])
    assert len(sig.group("c")) == 12 and len(sig.group("d")) == 20
    vals = (5, 3, 0, 7, 1, 0, 9, 2, 8, 4, 6, 0)
    assert sig.canonical_tuple("c", vals).args == reference_tuple(sig.group("c"), vals)


def test_a_bag_of_order_above_sys_maxsize_builds_and_sorts():
    # 21! > 2**63, so nothing may take the group's order through len().
    a, b, c = (
        SignatureSpec([OperationSymbol("z", 0), OperationSymbol("b", 21, gens)])
        for gens in (_full(21), _full(21), _full(21)[::-1])
    )
    assert a.group("b").order == math.factorial(21) > sys.maxsize
    assert a == b == c and hash(a) == hash(b) == hash(c)
    vals = tuple(range(20, -1, -1))
    assert a.canonical_tuple("b", vals).args == tuple(range(21))


def test_len_of_a_group_above_sys_maxsize_names_order():
    # CPython's own error would be "cannot fit 'int' into an index-sized
    # integer"; the group's names the attribute to read instead.
    sig = SignatureSpec([OperationSymbol("b", 21, _full(21))])
    with pytest.raises(OverflowError, match=r"group order 51090942171709440000 .*\.order"):
        len(sig.group("b"))
    assert len(SignatureSpec([OperationSymbol("b", 20, _full(20))]).group("b")) == math.factorial(20)


def test_signature_rejects_bad_generator():
    with pytest.raises(SignatureError):
        SignatureSpec([OperationSymbol("a", 2, ((0, 0),))])
    # Floats and bools equal to positions are no positions either.
    with pytest.raises(SignatureError):
        SignatureSpec([OperationSymbol("a", 3, ((1.0, 2.0, 0.0),))])
    with pytest.raises(SignatureError):
        SignatureSpec([OperationSymbol("a", 2, ((True, False),))])


def test_signature_needs_an_operation():
    with pytest.raises(SignatureError):
        SignatureSpec([])


def test_signature_equality_is_semantic():
    # the swap generates the same group as the full element listing
    a = SignatureSpec([OperationSymbol("p", 2, ((1, 0),))])
    b = SignatureSpec([OperationSymbol("p", 2, ((1, 0), (0, 1)))])
    c = SignatureSpec([OperationSymbol("p", 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_signature_equality_key_and_hash_are_built_with_the_signature():
    s8 = ((1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0))
    a = SignatureSpec([OperationSymbol("z", 0), OperationSymbol("s", 8, s8)])
    b = SignatureSpec([OperationSymbol("z", 0), OperationSymbol("s", 8, s8[::-1])])
    c = SignatureSpec([OperationSymbol("z", 0), OperationSymbol("s", 8, s8[:1])])
    want = hash(a)
    # Neither == nor hash reads the op records (and their groups) again once
    # the signature is built.
    for sig in (a, b, c):
        sig._records = None
    assert a == a and a == b and b == a and a != c
    assert hash(a) == hash(b) == want
    # Same object: equal at once, without looking at the key.
    class Untouchable:
        def __eq__(self, other):
            raise AssertionError("compared the equality key")

    a._eq_key = Untouchable()
    assert a == a


def test_unknown_operation_raises(sig_poly):
    with pytest.raises(SignatureError):
        sig_poly.op("nope")
    with pytest.raises(SignatureError):
        sig_poly.canonical_tuple("nope", ())


def test_is_polynomial(sig_poly, sig_bag, sig_server):
    assert sig_poly.is_polynomial
    assert not sig_bag.is_polynomial
    assert not sig_server.is_polynomial


# -- canonical tuples -----------------------------------------------------


def test_canonical_tuple_sorts_bag_pairs(sig_bag):
    assert sig_bag.canonical_tuple("b2", (9, 3)).args == (3, 9)
    assert sig_bag.canonical_tuple("b2", (3, 9)).args == (3, 9)


def test_canonical_tuple_server_fixes_first_position(sig_server):
    # the group only swaps the last two positions
    assert sig_server.canonical_tuple("spawn", (5, 9, 7)).args == (5, 7, 9)
    assert sig_server.canonical_tuple("spawn", (9, 5, 7)).args == (9, 5, 7)


def test_canonical_tuple_wrong_arity(sig_poly):
    with pytest.raises(SignatureError):
        sig_poly.canonical_tuple("b", (1,))


def test_canonical_tuple_orbit_invariance(sig_server):
    rng = random.Random(2)
    group = sig_server.group("spawn")
    for _ in range(300):
        vals = tuple(rng.randrange(6) for _ in range(3))
        canon = sig_server.canonical_tuple("spawn", vals)
        for s in group:
            assert sig_server.canonical_tuple("spawn", apply_perm(s, vals)) == canon
        # the canonical tuple is the least element of the orbit
        assert canon.args == min(apply_perm(s, vals) for s in group)


# -- orbit sorting against group enumeration ------------------------------


def reference_tuple(group, vals):
    return min(apply_perm(s, vals) for s in group)


def _hole_key(full):
    # The hole (None) sorts below every argument value.
    return tuple((0,) if v is None else (1, v) for v in full)


def reference_context(group, hole, sides):
    full = sides[:hole] + (None,) + sides[hole:]
    best = min((apply_perm(s, full) for s in group), key=_hole_key)
    h = best.index(None)
    return h, best[:h] + best[h + 1 :]


def assert_matches_enumeration(sig, op_id, vals):
    """Canonical tuple and every context of ``vals`` equal the group minima."""
    group = sig.group(op_id)
    assert sig.canonical_tuple(op_id, vals).args == reference_tuple(group, vals)
    for hole in range(len(vals)):
        sides = vals[:hole] + vals[hole + 1 :]
        ctx = sig.canonical_context(op_id, hole, sides)
        assert (ctx.hole, ctx.sides) == reference_context(group, hole, sides)


def element_orbits(group):
    """Orbits read off the enumerated elements, sorted by first position."""
    return tuple(sorted({tuple(sorted({s[k] for s in group})) for k in range(group.arity)}))


def test_orbits_and_path_choice_on_known_groups():
    s3s3 = [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)]
    d6 = [(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)]
    assert position_orbits(s3s3, 6) == ((0, 1, 2), (3, 4, 5))
    assert sortable_orbits(s3s3, enumerate_group(s3s3, 6)) == ((0, 1, 2), (3, 4, 5))
    assert position_orbits(d6, 6) == ((0, 1, 2, 3, 4, 5),)
    assert sortable_orbits(d6, enumerate_group(d6, 6)) is None
    assert sortable_orbits([(0, 2, 1)], enumerate_group([(0, 2, 1)], 3)) == ((1, 2),)
    assert sortable_orbits([], enumerate_group([], 3)) == ()
    assert sortable_orbits([], enumerate_group([], 0)) == ()


def test_canonical_forms_match_enumeration_on_random_groups():
    rng = random.Random(6)
    sorted_groups = fallback_groups = 0
    for _ in range(400):
        arity = rng.randrange(7)
        gens = [tuple(rng.sample(range(arity), arity)) for _ in range(rng.randrange(3))]
        if arity >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(arity), 2)
            swap = list(range(arity))
            swap[i], swap[j] = j, i
            gens.append(tuple(swap))
        sig = SignatureSpec([OperationSymbol("o", arity, tuple(gens))])
        group = sig.group("o")
        orbits = element_orbits(group)
        assert position_orbits(gens, arity) == orbits
        symmetric = len(group) == math.prod(math.factorial(len(o)) for o in orbits)
        assert (sortable_orbits(gens, group) is not None) == symmetric
        if symmetric:
            sorted_groups += 1
        else:
            fallback_groups += 1
        for _ in range(5):
            vals = tuple(rng.randrange(3) for _ in range(arity))
            assert_matches_enumeration(sig, "o", vals)
    # both the orbit sort and the enumeration fallback were exercised
    assert sorted_groups > 0 and fallback_groups > 0


def nested_elems(sig, rng, count):
    """``count`` distinct elements over ``sig`` whose arguments are elements."""
    pool = [sig.canonical_tuple(op.id, ()) for op in sig.ops if op.arity == 0]
    while len(pool) < count:
        op = rng.choice(sig.ops)
        e = sig.canonical_tuple(op.id, [rng.choice(pool) for _ in range(op.arity)])
        if e not in pool:
            pool.append(e)
    return pool


@pytest.mark.parametrize("name", ["sig_bag", "sig_server", "sig_mixed", "sig_rotations"])
def test_canonical_forms_of_terms_match_enumeration(name, request):
    # Terms and nested elements as argument values: the hole must sort below
    # both, as the oracle's key puts it.
    sig = request.getfixturevalue(name)
    rng = random.Random(7)
    terms = []
    while len(terms) < 3:
        t = rand_term(sig, rng.randrange(1, 8), rng)
        if t not in terms:
            terms.append(t)
    for pool in (terms, nested_elems(sig, rng, 3)):
        for op in sig.ops:
            for vals in itertools.product(pool, repeat=op.arity):
                assert_matches_enumeration(sig, op.id, vals)


# -- stabilizer chain against enumeration ----------------------------------


def _full(arity):
    """A swap and a cycle: generators of the full symmetric group."""
    return ((1, 0) + tuple(range(2, arity)), tuple(range(1, arity)) + (0,))


# The benchmark's ops whose groups are products of symmetric groups.
SORTABLE_OPS = (
    OperationSymbol("s4", 4, _full(4)),
    OperationSymbol(
        "s3s3", 6,
        ((1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)),
    ),
    OperationSymbol("s5", 5, _full(5)),
    OperationSymbol("s8", 8, _full(8)),
)


def random_generator_sets(seed, count, max_arity):
    """``count`` seeded (arity, generators) pairs, at most two generators."""
    rng = random.Random(seed)
    for _ in range(count):
        arity = rng.randrange(max_arity + 1)
        yield arity, tuple(tuple(rng.sample(range(arity), arity)) for _ in range(rng.randrange(3)))


@pytest.fixture(scope="module")
def oracle_groups(sig_poly, sig_bag, sig_server, sig_mixed, sig_rotations):
    """Random groups up to arity 6, every fixture op and the sortable
    benchmark ops (S_8 among them), as (arity, generators) pairs."""
    out = list(random_generator_sets(12, 300, 6))
    for sig in (sig_poly, sig_bag, sig_server, sig_mixed, sig_rotations):
        out += [(op.arity, op.generators) for op in sig.ops]
    # S_3 x S_3 on interleaved orbits {0, 2, 4} and {1, 3, 5}.
    out.append((6, ((2, 1, 0, 3, 4, 5), (2, 1, 4, 3, 0, 5), (0, 3, 2, 1, 4, 5), (0, 3, 2, 5, 4, 1))))
    return out + [(op.arity, op.generators) for op in SORTABLE_OPS]


def test_chain_orders_and_classifies_like_enumeration(oracle_groups):
    kinds = set()
    for arity, gens in oracle_groups:
        closure = enumerate_group(gens, arity)
        base, transversals, order = stabilizer_chain(gens, arity)
        assert order == len(closure.elements) == len(closure)
        # Each coset representative lies in the group, fixes the earlier
        # base points and maps its base point to its key.
        members = set(closure.elements)
        for i, (point, reps) in enumerate(zip(base, transversals)):
            for image, rep in reps.items():
                assert rep in members and rep[point] == image
                assert all(rep[b] == b for b in base[:i])
        group = SignatureSpec([OperationSymbol("o", arity, gens)]).group("o")
        assert len(group) == order and group.is_trivial == (order == 1)
        orbits = sortable_orbits(gens, group)
        assert orbits == sortable_orbits(gens, closure)
        if orbits is not None:
            # A sortable group lists its elements only when asked.
            assert "elements" not in vars(group)
        assert group.elements == closure.elements
        kinds.add((orbits is None, order == 1))
    assert kinds == {(False, True), (False, False), (True, False)}


def test_signature_equality_is_group_equality():
    c4 = ((1, 2, 3, 0),)
    s2s2 = ((1, 0, 2, 3), (0, 1, 3, 2))
    cases = list(random_generator_sets(13, 120, 5)) + [(4, c4), (4, s2s2)]
    specs = []
    for arity, gens in cases:
        elements = enumerate_group(gens, arity).elements
        # The same group from other generators: every element, reversed.
        for listed in (gens, elements[::-1]):
            specs.append((SignatureSpec([OperationSymbol("o", arity, listed)]), elements))
    pairs = set()
    for a, elements_a in specs:
        for b, elements_b in specs:
            assert (a == b) == (elements_a == elements_b)
            if a == b:
                assert hash(a) == hash(b)
            pairs.add((a == b, len(a.group("o")) == len(b.group("o"))))
    # C_4 and S_2 x S_2: same order and arity, different groups.
    assert len(specs[-1][0].group("o")) == len(specs[-3][0].group("o")) == 4
    assert specs[-1][0] != specs[-3][0]
    assert pairs == {(True, True), (False, True), (False, False)}


def test_sortable_signatures_never_enumerate(monkeypatch):
    plain = SignatureSpec(SORTABLE_OPS)
    rng = random.Random(14)
    cases = []
    for op in SORTABLE_OPS:
        group = plain.group(op.id)
        for _ in range(3):
            vals = tuple(rng.randrange(4) for _ in range(op.arity))
            hole = rng.randrange(op.arity)
            sides = vals[:hole] + vals[hole + 1 :]
            want = (reference_tuple(group, vals), reference_context(group, hole, sides))
            cases.append((op.id, vals, hole, sides, want))
    rows = [
        (op.id, tuple(rng.randrange(8) for _ in range(op.arity)))
        for op in SORTABLE_OPS + SORTABLE_OPS
    ]
    pc = build(plain, rows)
    want_key, want_states = canonical_key(pc), minimize(pc)[0].coalg.n_states

    def refuse(*args):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(signature, "enumerate_group", refuse)
    monkeypatch.setattr(signature, "symmetric_elements", refuse)
    sig = SignatureSpec(SORTABLE_OPS)
    assert len(sig.group("s8")) == 40320 and not sig.is_polynomial
    for op_id, vals, hole, sides, (tup, ctx) in cases:
        assert sig.canonical_tuple(op_id, vals).args == tup
        got = sig.canonical_context(op_id, hole, sides)
        assert (got.hole, got.sides) == ctx
    pc = build(sig, rows)
    assert minimize(pc)[0].coalg.n_states == want_states
    assert canonical_key(pc) == want_key
    with pytest.raises(AssertionError, match="enumerated"):
        sig.group("s8").elements


def test_s8_canonical_forms_match_enumeration():
    sig = SignatureSpec(
        [OperationSymbol("s8", 8, ((1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)))]
    )
    group = sig.group("s8")
    assert len(group) == 40320
    vals = (5, 3, 7, 1, 0, 2, 2, 9)
    assert sig.canonical_tuple("s8", vals).args == reference_tuple(group, vals)
    sides = vals[:3] + vals[4:]
    ctx = sig.canonical_context("s8", 3, sides)
    assert (ctx.hole, ctx.sides) == reference_context(group, 3, sides)


# Sortable groups whose orbits are not contiguous or leave fixed positions:
# S_2 on {0, 2}, S_2 x S_2 on {0, 1} and {3, 4}, and S_3 x S_3 on the
# interleaved orbits {0, 2, 4} and {1, 3, 5}; then S_2 x S_2 on {0, 1} and
# {2, 3}, and S_2 on {1, 2} beside the fixed 0, whose layouts (fixed
# positions first) are already in position order.
PLANNED_GROUPS = (
    (4, ((2, 1, 0, 3),)),
    (5, ((1, 0, 2, 3, 4), (0, 1, 2, 4, 3))),
    (6, ((2, 1, 0, 3, 4, 5), (2, 1, 4, 3, 0, 5), (0, 3, 2, 1, 4, 5), (0, 3, 2, 5, 4, 1))),
    (4, ((1, 0, 2, 3), (0, 1, 3, 2))),
    (3, ((0, 2, 1),)),
)


def test_planned_orbit_min_is_the_least_image():
    rng = random.Random(15)
    cases = PLANNED_GROUPS + tuple((n, _full(n)) for n in range(2, 9))
    shapes = set()
    for arity, gens in cases:
        canon = SignatureSpec([OperationSymbol("o", arity, gens)])._records["o"].canon
        if canon is signature._sorted_tuple:
            shapes.add("sort")
        else:
            assert canon.func is signature._sort_orbits
            fixed, _, scatter = canon.args
            shapes.add((fixed(tuple(range(arity))) == (), scatter is tuple))
        group = enumerate_group(gens, arity)
        samples = [tuple(rng.randrange(3) for _ in range(arity)) for _ in range(4)]
        samples.append(tuple(range(arity, 0, -1)))
        # Contexts: the hole marker at every position.
        samples += [v[:h] + (_HOLE,) + v[h + 1 :] for v in samples[-2:] for h in range(arity)]
        for vals in samples:
            assert canon(vals) == reference_tuple(group, vals)
    # Fixed positions or none; a scatter or the identity layout; a whole sort.
    assert shapes == {(False, False), (True, False), (True, True), (False, True), "sort"}


@pytest.mark.parametrize(
    "name",
    ["sig_poly", "sig_bag", "sig_server", "sig_mixed", "sig_rotations", "sig_c3", "sig_wide"],
)
def test_every_fixture_canonicalizer_is_the_enumeration_minimum(name, request):
    sig = request.getfixturevalue(name)
    back = pickle.loads(pickle.dumps(sig))
    assert back == sig
    rng = random.Random(name)
    for op in sig.ops:
        canon = sig._records[op.id].canon
        elements = enumerate_group(op.generators, op.arity).elements
        samples = [tuple(rng.randrange(3) for _ in range(op.arity)) for _ in range(30)]
        samples += [v[:h] + (_HOLE,) + v[h + 1 :] for v in samples[:10] for h in range(op.arity)]
        for vals in samples:
            got = canon(vals)
            assert got == min(apply_perm(g, vals) for g in elements)
            if len(elements) == 1:
                assert got is vals
            assert back._records[op.id].canon(vals) == got
        for vals in samples[:10]:
            assert back.canonical_tuple(op.id, vals) == sig.canonical_tuple(op.id, vals)
            for h in range(op.arity):
                sides = vals[:h] + vals[h + 1 :]
                want = sig.canonical_context(op.id, h, sides)
                assert back.canonical_context(op.id, h, sides) == want


# -- native value order against the old sort keys ------------------------


def old_sort_key(e):
    """``FElem.sort_key`` and ``ContextElem.sort_key`` as they were before
    elements became tuples: the op, the hole, and the keys of the values."""
    if isinstance(e, FElem):
        return (e.op, tuple(old_value_key(x) for x in e.args))
    return (e.op, e.hole, tuple(old_value_key(x) for x in e.sides))


def old_value_key(x):
    """``value_key`` as it was: nested elements and contexts by their sort
    key; ints, terms and ``_HOLE`` as themselves."""
    return old_sort_key(x) if isinstance(x, (FElem, ContextElem)) else x


def old_tuple_key(vals):
    return tuple(old_value_key(x) for x in vals)


@pytest.fixture(scope="module")
def value_pools(sig_mixed):
    """Pools of mutually comparable argument values, each with ``_HOLE``:
    ints, terms, elements over ints, over terms and over elements, and
    contexts over terms."""
    rng = random.Random(11)
    terms = []
    while len(terms) < 4:
        t = rand_term(sig_mixed, rng.randrange(1, 8), rng)
        if t not in terms:
            terms.append(t)
    ops = [op for op in sig_mixed.ops if op.arity > 0]

    def elems(pool):
        out = [sig_mixed.canonical_tuple("n0", ())]
        for _ in range(6):
            op = rng.choice(ops)
            out.append(sig_mixed.canonical_tuple(op.id, rng.choices(pool, k=op.arity)))
        return out

    contexts = []
    for _ in range(6):
        op = rng.choice(ops)
        sides = rng.choices(terms, k=op.arity - 1)
        contexts.append(sig_mixed.canonical_context(op.id, rng.randrange(op.arity), sides))
    pools = {
        "ints": [0, 1, 2, 3],
        "terms": terms,
        "int elems": elems(range(3)),
        "term elems": elems(terms),
        "nested elems": nested_elems(sig_mixed, rng, 7),
        "contexts": contexts,
    }
    return {name: pool + [_HOLE] for name, pool in pools.items()}


@pytest.mark.parametrize(
    "name", ["ints", "terms", "int elems", "term elems", "nested elems", "contexts"]
)
def test_native_order_is_the_old_key_order(name, value_pools, sig_mixed, sig_rotations):
    pool = value_pools[name]
    rng = random.Random(name)
    for x in pool:
        for y in pool:
            kx, ky = old_value_key(x), old_value_key(y)
            assert (x < y, y < x) == (kx < ky, ky < kx)
    for sig in (sig_mixed, sig_rotations):
        for op in sig.ops:
            group, canon = sig.group(op.id), sig._records[op.id].canon
            orbits = sortable_orbits(group.generators, group)
            for _ in range(20):
                vals = tuple(rng.choices(pool, k=op.arity))
                images = [apply_perm(g, vals) for g in group]
                least = min(images, key=old_tuple_key)
                assert min(images) == least
                assert canon(vals) == least
                if orbits is not None:
                    for orb in orbits:
                        here = [vals[k] for k in orb]
                        assert sorted(here) == sorted(here, key=old_value_key)


@pytest.mark.parametrize("name", ["ints", "terms", "int elems", "term elems", "nested elems"])
def test_decompositions_come_in_the_old_key_order(name, value_pools, sig_mixed, sig_rotations):
    pool = value_pools[name][:-1]
    rng = random.Random(name)
    for sig in (sig_mixed, sig_rotations):
        for op in sig.ops:
            for _ in range(10):
                elem = sig.canonical_tuple(op.id, rng.choices(pool, k=op.arity))
                pairs = {
                    (sig.canonical_context(op.id, u, elem.args[:u] + elem.args[u + 1 :]), x)
                    for u, x in enumerate(elem.args)
                }
                want = sorted(pairs, key=lambda p: (old_sort_key(p[0]), old_value_key(p[1])))
                assert sig.decompositions(elem) == want


@pytest.mark.parametrize("name", ["sig_poly", "sig_bag", "sig_server", "sig_mixed"])
def test_enumerated_contexts_sort_in_the_old_key_order(name, request):
    sig = request.getfixturevalue(name)
    # The contexts of every lasso, and those a branching node decomposes into.
    ctxs = set()
    for t in enumerate_terms(sig, 6):
        if isinstance(t, GNode):
            ctxs.update(t.stream.prefix + t.stream.period)
        else:
            ctxs.update(c for c, _ in sig.decompositions(t.elem))
    assert len(ctxs) >= 20
    assert sorted(ctxs) == sorted(ctxs, key=old_sort_key)


def test_elements_hash_and_pickle_as_their_tuples(value_pools):
    values = [
        v for pool in value_pools.values() for v in pool if isinstance(v, (FElem, ContextElem))
    ]
    assert len(values) > 20
    for v in values:
        if isinstance(v, FElem):
            assert hash(v) == hash((v.op, v.args))
        else:
            assert hash(v) == hash((v.op, v.hole, v.sides))
        back = pickle.loads(pickle.dumps(v))
        assert back == v and type(back) is type(v)


# -- canonical contexts ---------------------------------------------------


def test_canonical_context_moves_hole_forward(sig_bag):
    a = sig_bag.canonical_context("b2", 0, (7,))
    b = sig_bag.canonical_context("b2", 1, (7,))
    assert a == b
    assert a.hole == 0
    assert a.sides == (7,)


def test_canonical_context_rigid_holes_stay(sig_poly):
    a = sig_poly.canonical_context("b", 0, (7,))
    b = sig_poly.canonical_context("b", 1, (7,))
    assert a != b
    assert (a.hole, b.hole) == (0, 1)


def test_canonical_context_server_worker_positions_commute(sig_server):
    a = sig_server.canonical_context("spawn", 1, (4, 9))
    b = sig_server.canonical_context("spawn", 2, (4, 9))
    # hole in either worker slot canonicalizes to the same context
    assert a == b
    # but the served position is rigid
    c = sig_server.canonical_context("spawn", 0, (4, 9))
    assert c.hole == 0


def test_canonical_context_errors(sig_poly):
    with pytest.raises(SignatureError):
        sig_poly.canonical_context("c", 0, ())
    with pytest.raises(SignatureError):
        sig_poly.canonical_context("b", 2, (1,))
    with pytest.raises(SignatureError):
        sig_poly.canonical_context("b", 0, (1, 2))


# -- plug, base, decompositions -------------------------------------------


def elem_strategy(sig):
    ops = [op for op in sig.ops]
    def build(op, vals):
        return sig.canonical_tuple(op.id, tuple(vals[: op.arity]))
    return st.builds(
        build,
        st.sampled_from(ops),
        st.lists(st.integers(0, 9), min_size=8, max_size=8),
    )


def test_base_of_plug_adds_the_value(sig_mixed):
    rng = random.Random(3)
    for _ in range(500):
        op = rng.choice([o for o in sig_mixed.ops if o.arity > 0])
        sides = tuple(rng.randrange(5) for _ in range(op.arity - 1))
        hole = rng.randrange(op.arity)
        ctx = sig_mixed.canonical_context(op.id, hole, sides)
        x = rng.randrange(5)
        elem = sig_mixed.plug(ctx, x)
        assert elem.base() == ctx.base() | {x}


def test_every_base_element_decomposes(sig_mixed):
    rng = random.Random(4)
    for _ in range(500):
        op = rng.choice(sig_mixed.ops)
        elem = sig_mixed.canonical_tuple(
            op.id, tuple(rng.randrange(5) for _ in range(op.arity))
        )
        decs = sig_mixed.decompositions(elem)
        for ctx, x in decs:
            assert sig_mixed.plug(ctx, x) == elem
        assert {x for _, x in decs} == set(elem.base())


def test_plug_injective_in_fresh_values(sig_mixed):
    # distinct values never in the sides plug to distinct elements
    rng = random.Random(5)
    for _ in range(500):
        op = rng.choice([o for o in sig_mixed.ops if o.arity > 0])
        sides = tuple(rng.randrange(5) for _ in range(op.arity - 1))
        ctx = sig_mixed.canonical_context(op.id, rng.randrange(op.arity), sides)
        fresh = [x for x in range(5, 9)]
        elems = [sig_mixed.plug(ctx, x) for x in fresh]
        assert len(set(elems)) == len(fresh)


def test_decompositions_count_one_per_orbit(sig_poly, sig_bag):
    # rigid positions never merge: b(4, 4) keeps one decomposition per hole
    two = sig_poly.canonical_tuple("b", (4, 4))
    assert len(sig_poly.decompositions(two)) == 2
    mixed = sig_poly.canonical_tuple("b", (4, 5))
    assert len(sig_poly.decompositions(mixed)) == 2
    # the unordered pair {4, 5} decomposes once per member, not per position
    bag_pair = sig_bag.canonical_tuple("b2", (4, 5))
    assert len(sig_bag.decompositions(bag_pair)) == 2
    bag_same = sig_bag.canonical_tuple("b2", (4, 4))
    assert len(sig_bag.decompositions(bag_same)) == 1
    assert sig_poly.decompositions(sig_poly.canonical_tuple("c", ())) == []


def test_decomposition_of_bag_pair_is_orbit_stable(sig_bag):
    a = sig_bag.canonical_tuple("b2", (2, 6))
    debs = sig_bag.decompositions(a)
    holes = {(ctx.sides, x) for ctx, x in debs}
    assert holes == {((6,), 2), ((2,), 6)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_plug_base_laws_hypothesis(data):
    gens = data.draw(
        st.lists(
            st.permutations(range(3)).map(tuple), min_size=0, max_size=2
        )
    )
    sig = SignatureSpec(
        [OperationSymbol("z", 0), OperationSymbol("t", 3, tuple(gens))]
    )
    vals = data.draw(st.lists(st.integers(0, 4), min_size=3, max_size=3))
    elem = sig.canonical_tuple("t", tuple(vals))
    decs = sig.decompositions(elem)
    assert decs
    for ctx, x in decs:
        assert sig.plug(ctx, x) == elem
        assert elem.base() == ctx.base() | {x}


# -- nested values and mapping --------------------------------------------


def test_canonicalization_uses_value_sort_keys(sig_poly, sig_bag):
    inner_a = FElem("c", ())
    inner_b = sig_poly.canonical_tuple("u", (inner_a,))
    pair = sig_bag.canonical_tuple("b2", (inner_b, inner_a))
    # "c" sorts before "u", so the nested constant comes first
    assert pair.args == (inner_a, inner_b)


def test_map_elem_recanonicalizes(sig_bag):
    elem = sig_bag.canonical_tuple("b2", (2, 7))
    flipped = sig_bag.map_elem(elem, lambda x: 10 - x)
    assert flipped.args == (3, 8)


def test_arity_and_group_accessors(sig_server):
    assert sig_server.arity("spawn") == 3
    assert len(sig_server.group("spawn")) == 2
    assert sig_server.arity("halt") == 0
