"""The analyses kept on a pointed coalgebra never change an answer.

A ``PointedCoalgebra`` keeps its thinness analysis, minimal quotient,
canonical key and rank lists after their first use (the list is in its
docstring).  On random thin and non-thin systems over a rigid, a bag and a
C_3 signature, every consumer must answer on a warm object exactly as on a
fresh one, whatever ran before it, ``beh_equal`` must answer as the
reference union refinement whatever is kept on either side, and the kept
values must stay invisible to equality, hashing, ``repr``, pickling and
``dataclasses.replace``.
"""

import dataclasses
import itertools
import pickle
import random

import pytest

from conftest import _reference_beh_equal, build
from thincoalg import NonThinError, PointedCoalgebra
from thincoalg.coalgebra import beh_equal, canonical_key, minimize
from thincoalg.normalform import extract_normal, state_ranks
from thincoalg.thinness import count_infinite_paths_class, is_thin
from thincoalg.treeenc import cb_rank

# The consumers of the thinness analysis, then those of the quotient.
THIN = (is_thin, count_infinite_paths_class, state_ranks, cb_rank, extract_normal)
QUOTIENT = (minimize, canonical_key)


def _outcome(fn, pc):
    # Every consumer answers on every signature; non-thin input raises.
    try:
        return fn(pc)
    except NonThinError as exc:
        return ("non-thin", exc.verdict)


def _fresh(pc):
    return PointedCoalgebra(pc.coalg, pc.root)


def _reference(pc):
    # Each consumer on an object of its own, so each one runs first.
    return {fn: _outcome(fn, _fresh(pc)) for fn in THIN + QUOTIENT}


def _systems(sig, seed, count=12):
    """``count`` thin and ``count`` non-thin random systems of 1-6 states."""
    rng = random.Random(seed)
    kept = {True: [], False: []}
    while min(map(len, kept.values())) < count:
        n = rng.randint(1, 6)
        rows = []
        for _ in range(n):
            op = rng.choice(sig.ops)
            rows.append((op.id, tuple(rng.randrange(n) for _ in range(op.arity))))
        pc = build(sig, rows, root=rng.randrange(n))
        thin = is_thin(_fresh(pc)).thin
        if len(kept[thin]) < count:
            kept[thin].append(pc)
    return kept[True] + kept[False]


@pytest.fixture(params=[("sig_poly", 1), ("sig_bag", 2), ("sig_c3", 3)], ids=lambda p: p[0])
def systems(request):
    name, seed = request.param
    return _systems(request.getfixturevalue(name), seed)


def test_warm_answers_match_fresh_ones_in_every_order(systems):
    for pc in systems:
        want = _reference(pc)
        for order in itertools.permutations(THIN):
            warm = _fresh(pc)
            for fn in order + QUOTIENT + order:
                assert _outcome(fn, warm) == want[fn], fn.__name__
        for order in (QUOTIENT, QUOTIENT[::-1]):
            warm = _fresh(pc)
            for fn in order + THIN + order:
                assert _outcome(fn, warm) == want[fn], fn.__name__


def test_census_first_keeps_the_witness(systems):
    nonthin = 0
    for pc in systems:
        want = is_thin(_fresh(pc))
        warm = _fresh(pc)
        census = count_infinite_paths_class(warm)
        assert is_thin(warm) == want
        if not want.thin:
            nonthin += 1
            assert census.kind == "uncountable"
            assert want.witness is not None
            with pytest.raises(NonThinError) as exc:
                state_ranks(warm)
            assert exc.value.verdict == want
    assert nonthin > 0


def test_minimize_hands_out_a_copy_of_its_mapping(systems):
    for pc in systems:
        quotient, mapping = minimize(pc)
        want = dict(mapping)
        mapping[pc.root] = -1
        mapping[-1] = 0
        again, fresh_mapping = minimize(pc)
        assert again == quotient and fresh_mapping == want
        fresh_mapping.clear()
        assert minimize(pc)[1] == want == minimize(_fresh(pc))[1]


def test_state_ranks_hands_out_a_copy_of_its_entries(systems):
    thin = 0
    for pc in systems:
        if not is_thin(pc).thin:
            continue
        thin += 1
        table = state_ranks(pc)
        want = dict(table.entries)
        table.entries[pc.root] = None
        table.entries[-1] = None
        again = state_ranks(pc)
        assert again.root == pc.root and again.entries == want
        again.entries.clear()
        assert state_ranks(pc).entries == want == state_ranks(_fresh(pc)).entries
        assert extract_normal(pc) == extract_normal(_fresh(pc))
    assert thin > 0


# What may be kept on a side before ``beh_equal`` sees it.
WARMUPS = {
    "fresh": (),
    "minimized": (minimize,),
    "keyed": (canonical_key,),
    "analysed": THIN + QUOTIENT,
}


def _warm(pc, fns):
    warm = _fresh(pc)
    for fn in fns:
        _outcome(fn, warm)
    return warm


def _beh_pairs(systems):
    """Each system beside a fresh copy of its minimal quotient (equal), and
    beside the next three systems (mostly unequal)."""
    pairs = []
    for i, pc in enumerate(systems):
        quotient = minimize(_fresh(pc))[0]
        pairs.append((pc, PointedCoalgebra(quotient.coalg, quotient.root)))
        pairs.extend((pc, other) for other in systems[i + 1 : i + 4])
    return pairs


def test_warm_beh_equal_pairs_match_the_reference(systems):
    answers = set()
    for pc1, pc2 in _beh_pairs(systems):
        want = _reference_beh_equal(pc1, pc2)
        answers.add(want)
        keys = (canonical_key(_fresh(pc1)), canonical_key(_fresh(pc2)))
        for fns1, fns2 in itertools.product(WARMUPS.values(), repeat=2):
            for flip in (False, True):
                a, b = _warm(pc1, fns1), _warm(pc2, fns2)
                seen = [(repr(x), hash(x)) for x in (a, b)]
                got = beh_equal(b, a) if flip else beh_equal(a, b)
                assert got == want, (fns1, fns2, flip)
                assert "_key" in vars(a) and "_key" in vars(b)
                assert [(repr(x), hash(x)) for x in (a, b)] == seen
                assert (canonical_key(a), canonical_key(b)) == keys
                assert a == pc1 and b == pc2
                loaded = pickle.loads(pickle.dumps((a, b)))
                assert loaded == (a, b) and beh_equal(*loaded) == want
                assert (canonical_key(loaded[0]), canonical_key(loaded[1])) == keys
                moved = dataclasses.replace(a, root=(pc1.root + 1) % pc1.coalg.n_states)
                assert "_minimal" not in vars(moved)
                assert canonical_key(moved) == canonical_key(_fresh(moved))
    assert answers == {True, False}


def test_kept_analyses_are_invisible(systems):
    for pc in systems:
        warm = _fresh(pc)
        before = (repr(warm), hash(warm))
        for fn in THIN + QUOTIENT:
            _outcome(fn, warm)
        assert (repr(warm), hash(warm)) == before
        assert warm == pc == _fresh(pc) and not warm != pc
        assert hash(warm) == hash(_fresh(pc))
        loaded = pickle.loads(pickle.dumps(warm))
        assert loaded == warm and hash(loaded) == hash(warm) and repr(loaded) == repr(warm)
        want = _reference(pc)
        for fn in THIN + QUOTIENT:
            assert _outcome(fn, loaded) == want[fn], fn.__name__


def test_replace_analyses_the_new_root(systems):
    changed = 0
    for pc in systems:
        warm = _fresh(pc)
        for fn in THIN + QUOTIENT:
            _outcome(fn, warm)
        for root in range(pc.coalg.n_states):
            moved = dataclasses.replace(warm, root=root)
            want = _reference(moved)
            got = {fn: _outcome(fn, moved) for fn in THIN + QUOTIENT}
            assert got == want
            changed += got != _reference(pc)
        assert {fn: _outcome(fn, warm) for fn in THIN + QUOTIENT} == _reference(pc)
    assert changed > 0
