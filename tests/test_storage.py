"""The flat storage of coalgebras.

A ``Coalgebra`` keeps one op index per state, offsets and a flat successor
array, and builds its ``FElem`` tuple only when ``transition`` is read.
These tests hold it to the element tuples it replaced: a coalgebra built
from elements, the same one loaded from its dump and the one
``gen_coalgebra`` draws are equal, hash, pickle, print and dump alike, and
give back the elements the element-storing code kept.  The loader and the
constructor check rows in bulk and scan only to name the first bad one, so
their errors are pinned here too.  The analysis adjacency keeps repeated
successors; it is checked against the deduplicating one it replaced.
"""

import gc
import json
import pickle
import random
from array import array

import pytest

from conftest import all_coalgebras, build
from thincoalg import CoalgebraError, OperationSymbol, PointedCoalgebra, SignatureSpec, is_thin
from thincoalg import thinness
from thincoalg.coalgebra import Coalgebra, _csr, _scc_csr
from thincoalg.files import dump_coalgebra, dump_signature, load_coalgebra
from thincoalg.generate import gen_coalgebra
from thincoalg.signature import FElem, apply_perm


def _rigid_sig():
    # The criterion-10 family: arities 1..5, mean out-degree 3.
    return SignatureSpec([OperationSymbol(f"k{a}", a) for a in range(1, 6)])


def _json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _reference_elements(sig, n, seed):
    # The elements ``gen_coalgebra`` kept when it stored them: drawn in the
    # same order, one canonical tuple per state.
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        op = sig.ops[rng.randrange(len(sig.ops))]
        out.append(sig.canonical_tuple(op.id, tuple(rng.randrange(n) for _ in range(op.arity))))
    return tuple(out)


def _reference_dump(sig, elems, root=None):
    # The document ``dump_coalgebra`` wrote from stored elements.
    doc = {
        "signature": dump_signature(sig),
        "states": len(elems),
        "transitions": [{"op": e.op, "tuple": list(e.args)} for e in elems],
    }
    if root is not None:
        doc["root"] = root
    return doc


# -- storage equivalence --------------------------------------------------


@pytest.mark.parametrize("name", ["rigid", "sig_mixed", "sig_rotations", "sig_wide"])
def test_built_loaded_and_generated_coalgebras_agree(name, request):
    sig = _rigid_sig() if name == "rigid" else request.getfixturevalue(name)
    for seed in range(3):
        elems = _reference_elements(sig, 200, seed)
        built = Coalgebra(sig, elems)
        loaded, root = load_coalgebra(json.loads(_json(dump_coalgebra(built, 3))), sig)
        generated = gen_coalgebra(sig, 200, seed).coalg
        assert root == 3
        assert built == loaded == generated
        assert len({hash(built), hash(loaded), hash(generated)}) == 1
        for c in (built, loaded, generated):
            back = pickle.loads(pickle.dumps(c))
            assert back == c and hash(back) == hash(c)
            assert _json(dump_coalgebra(c, 3)) == _json(_reference_dump(sig, elems, 3))
            text = repr(c)
            assert text == f"Coalgebra(sig={sig!r}, transition={elems!r})"
            assert c.transition == elems
            assert all(type(e) is FElem and type(e.args) is tuple for e in c.transition)
            assert c.transition is c.transition and repr(c) == text


def test_uncanonical_rows_are_stored_and_dumped_as_given(sig_mixed, sig_wide):
    # Tuples permuted by random group elements, as the benchmark writes them
    # for loading to canonicalize.
    rng = random.Random(11)
    for sig in (sig_mixed, sig_wide):
        canonical = _reference_elements(sig, 150, 5)
        raw = []
        for e in canonical:
            perms = sig.group(e.op).elements
            raw.append(FElem(e.op, apply_perm(perms[rng.randrange(len(perms))], e.args)))
        raw = tuple(raw)
        assert raw != canonical
        c = Coalgebra(sig, raw)
        assert c.transition == raw
        assert _json(dump_coalgebra(c)) == _json(_reference_dump(sig, raw))
        assert c != Coalgebra(sig, canonical)
        assert load_coalgebra(dump_coalgebra(c), sig)[0] == Coalgebra(sig, canonical)


def test_the_stored_attributes_are_read_only(u_loop):
    c = u_loop.coalg
    for name in ("sig", "ops", "offs", "flat", "transition"):
        with pytest.raises(AttributeError):
            setattr(c, name, getattr(c, name))
    assert (list(c.ops), list(c.offs), list(c.flat)) == ([1], [0, 1], [0])


def test_a_loaded_coalgebra_adds_a_handful_of_tracked_objects():
    # The arrays are no containers the collector walks; the elements are,
    # once ``transition`` builds them.
    sig = _rigid_sig()
    doc = dump_coalgebra(gen_coalgebra(sig, 10_000, 3).coalg, 0)
    load_coalgebra(doc, sig)
    gc.collect()
    before = len(gc.get_objects())
    c, _ = load_coalgebra(doc, sig)
    gc.collect()
    held = len(gc.get_objects())
    assert held - before <= 5
    assert len(c.transition) == 10_000
    gc.collect()
    assert len(gc.get_objects()) > held + 9_000


# -- row checks -------------------------------------------------------------


def test_bool_successors_are_refused(sig_poly):
    # ``bool`` is a subclass of ``int``; a successor must be an int itself,
    # as the loader requires of every file.
    u = sig_poly.canonical_tuple
    with pytest.raises(CoalgebraError) as info:
        Coalgebra(sig_poly, (u("u", [1]), u("u", [True])))
    assert str(info.value) == "state 1: successor True out of range"
    for bad in (1.0, "0", None):
        with pytest.raises(CoalgebraError, match="state 0: successor"):
            Coalgebra(sig_poly, (u("u", [bad]),))


def test_every_accepted_coalgebra_survives_the_file_round_trip(sig_poly, sig_bag, sig_server):
    for sig in (sig_poly, sig_bag, sig_server):
        for n in range(1, 3):
            for c in all_coalgebras(sig, n):
                for root in range(n):
                    doc = json.loads(_json(dump_coalgebra(c, root)))
                    assert load_coalgebra(doc, sig) == (c, root)


def test_constructor_errors_name_the_first_bad_state(sig_poly):
    u = sig_poly.canonical_tuple
    cases = [
        ((u("u", [0]), FElem("b", (0,)), u("u", [9])),
         "state 1: tuple length 1 does not match arity of 'b'"),
        ((u("u", [7]), FElem("b", (0,)), u("u", [9])), "state 0: successor 7 out of range"),
        ((u("u", [0]), u("b", [0, -1]), FElem("u", (0, 0))), "state 1: successor -1 out of range"),
        ((u("u", [0]), u("b", [1, 0]), u("u", [False])), "state 2: successor False out of range"),
    ]
    for elems, message in cases:
        with pytest.raises(CoalgebraError) as info:
            Coalgebra(sig_poly, elems)
        assert str(info.value) == message


def test_loader_errors_name_the_first_bad_state(sig_bag):
    # Rows are checked in turn and successor ranges once every row passed,
    # so a later malformed row wins over an earlier range error.
    def u(*a):
        return {"op": "b1", "tuple": list(a)}

    def b(*a):
        return {"op": "b2", "tuple": list(a)}

    cases = [
        ([u(9), b(0, 0), u(True), {"op": "nope"}, u("x")],
         "state 2: 'tuple' must be a list of integers"),
        ([u(9), b(0, 0), b(1, -2), u(7), {"op": "b0"}], "state 0: successor 9 out of range"),
        ([u(1), b(4, 0.5), b(1, 3), {"op": 5}, u(0)],
         "state 1: 'tuple' must be a list of integers"),
        ([u(1), b(1, 2), [0], b(9, 9), u(0)], "state 2: transition needs an 'op' string"),
        ([u(1), {"op": "b2", "tuple": (0, 1)}, u(0)],
         "state 1: 'tuple' must be a list of integers"),
        ([u(10**30), b(0, 1), u(2)], f"state 0: successor {10**30} out of range"),
        ([u(1), b(2, 1), b(2, 4), b(3, 0)], "state 2: successor 4 out of range"),
    ]
    for rows, message in cases:
        with pytest.raises(CoalgebraError) as info:
            load_coalgebra({"states": len(rows), "transitions": rows}, sig=sig_bag)
        assert str(info.value) == message


# -- the analysis adjacency against the deduplicating reference -------------


def _reference_csr(c):
    # The adjacency the analysis read before: each row's successors sorted
    # and deduplicated.
    n = c.n_states
    offs = array("l", [0]) * (n + 1)
    flat = []
    for s, elem in enumerate(c.transition):
        flat.extend(sorted(set(elem.args)))
        offs[s + 1] = len(flat)
    return offs, array("l", flat)


def _assert_like_reference(pc, monkeypatch):
    c, n = pc.coalg, pc.coalg.n_states
    got = _scc_csr(*_csr(c), [pc.root], n)
    assert got == _scc_csr(*_reference_csr(c), [pc.root], n)
    _, _, comps, comp, looped, offender = thinness._analyse(PointedCoalgebra(c, pc.root))
    verdict = is_thin(PointedCoalgebra(c, pc.root))
    with monkeypatch.context() as m:
        m.setattr(thinness, "_csr", _reference_csr)
        want = thinness._analyse(PointedCoalgebra(c, pc.root))
        assert (comps, comp, looped, offender) == want[2:]
        assert is_thin(PointedCoalgebra(c, pc.root)) == verdict
    return verdict.thin


def _repeating_pc(rng, sig, n):
    # Successors drawn from a pool of at most three states, so rows repeat
    # states (``b(s, s)``, bags of one state) far more often than uniformly.
    pool = rng.sample(range(n), min(n, rng.randint(1, 3)))
    rows = []
    for _ in range(n):
        op = rng.choice(sig.ops)
        rows.append((op.id, [rng.choice(pool) for _ in range(op.arity)]))
    return build(sig, rows, root=rng.randrange(n))


@pytest.mark.parametrize("name", ["sig_poly", "sig_bag", "sig_server", "sig_mixed"])
def test_repeat_keeping_adjacency_matches_the_reference(name, request, monkeypatch):
    sig = request.getfixturevalue(name)
    rng = random.Random(2027)
    verdicts = [_assert_like_reference(_repeating_pc(rng, sig, rng.randint(1, 8)), monkeypatch)
                for _ in range(750)]
    assert any(verdicts) and not all(verdicts)


def test_repeat_keeping_adjacency_matches_the_reference_at_100k(monkeypatch):
    pc = gen_coalgebra(_rigid_sig(), 100_000, 31)
    assert not _assert_like_reference(pc, monkeypatch)
