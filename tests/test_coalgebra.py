"""Paths, components, and behavioural equivalence on finite coalgebras."""

import random

import pytest

from conftest import (
    _reference_beh_equal,
    all_coalgebras,
    blow_up,
    build,
    disjoint_union,
    path_count,
    relabel,
)
from thincoalg import (
    Coalgebra,
    CoalgebraError,
    FElem,
    OperationSymbol,
    PointedCoalgebra,
    SignatureSpec,
)
from thincoalg import coalgebra
from thincoalg.coalgebra import (
    FinitePath,
    _csr,
    _refine,
    _scc_csr,
    beh_equal,
    canonical_key,
    cycles_through,
    minimize,
    paths_to_depth,
    reachable_condensation,
    reachable_states,
    validate_path,
)
from thincoalg.signature import _orbit_min
from thincoalg.thinness import oracle_is_thin


def _rand_pc(rng, sig, n):
    rows = []
    for _ in range(n):
        op = rng.choice(sig.ops)
        rows.append((op.id, tuple(rng.randrange(n) for _ in range(op.arity))))
    return build(sig, rows, root=rng.randrange(n))


# -- construction and validation ------------------------------------------


def test_rejects_arity_mismatch(sig_poly):
    with pytest.raises(CoalgebraError, match="arity"):
        Coalgebra(sig_poly, (FElem("u", (0, 0)),))


def test_rejects_successor_out_of_range(sig_poly):
    with pytest.raises(CoalgebraError, match="out of range"):
        Coalgebra(sig_poly, (FElem("u", (1,)),))


def test_rejects_root_out_of_range(u_loop):
    with pytest.raises(CoalgebraError, match="root"):
        PointedCoalgebra(u_loop.coalg, 1)


def test_successors_carry_multiplicity(bag_ss, server_pc):
    assert bag_ss.coalg.successors(0) == [(0, 0), (0, 1)]
    assert server_pc.coalg.successors(0) == [(0, 0), (1, 0), (2, 0)]
    assert server_pc.coalg.successors(2) == []


# -- finite paths ---------------------------------------------------------


def test_path_shape_is_checked():
    with pytest.raises(CoalgebraError):
        FinitePath((0, 1), (0, 0))


def test_path_prefix_and_key():
    p = FinitePath((0, 1, 2), (1, 0))
    assert p.length == 2
    assert p.flat_key() == (0, 1, 1, 0, 2)
    assert FinitePath((0,), ()).is_prefix_of(p)
    assert FinitePath((0, 1), (1,)).is_prefix_of(p)
    assert not FinitePath((0, 1), (0,)).is_prefix_of(p)
    assert not p.is_prefix_of(FinitePath((0, 1), (1,)))


def test_validate_path(server_pc, bag_ss):
    c = server_pc.coalg
    validate_path(c, FinitePath((0, 1, 1), (0, 0)))
    with pytest.raises(CoalgebraError, match="not a successor"):
        validate_path(c, FinitePath((0, 2, 2), (0, 0)))
    # a successor of multiplicity two admits indices 0 and 1 only
    validate_path(bag_ss.coalg, FinitePath((0, 0), (1,)))
    with pytest.raises(CoalgebraError, match="not a successor"):
        validate_path(bag_ss.coalg, FinitePath((0, 0), (2,)))
    # every state must exist: no negative indexing, no bare IndexError, and
    # a length-0 path needs its one state too
    with pytest.raises(CoalgebraError, match="out of range"):
        validate_path(bag_ss.coalg, FinitePath((-1, 0), (0,)))
    for states, indices in [((3, 0), (0,)), ((0, 3), (0,)), ((3,), ())]:
        with pytest.raises(CoalgebraError, match="out of range"):
            validate_path(c, FinitePath(states, indices))


def test_reachable_states_in_bfs_order(server_pc, sig_poly):
    assert reachable_states(server_pc.coalg, 0) == [0, 1, 2]
    part = build(sig_poly, [("u", (0,)), ("c", ())])
    assert reachable_states(part.coalg, 0) == [0]


# -- path enumeration -----------------------------------------------------


def test_paths_enumerate_multiplicities(bag_ss):
    got = [(p.states, p.indices) for p in paths_to_depth(bag_ss, 2)]
    assert got == [
        ((0, 0, 0), (0, 0)),
        ((0, 0, 0), (0, 1)),
        ((0, 0, 0), (1, 0)),
        ((0, 0, 0), (1, 1)),
    ]


def test_paths_stop_at_dead_ends(server_pc):
    got = [(p.states, p.indices) for p in paths_to_depth(server_pc, 1)]
    assert got == [((0, 0), (0,)), ((0, 1), (0,)), ((0, 2), (0,))]
    # the halted worker contributes no depth-2 extension
    assert len(paths_to_depth(server_pc, 2)) == 4


def test_paths_come_out_sorted(server_pc, bag_tree):
    for pc in (server_pc, bag_tree):
        for depth in range(4):
            keys = [p.flat_key() for p in paths_to_depth(pc, depth)]
            assert keys == sorted(keys)


def test_paths_have_no_negative_length(u_loop, bag_ss):
    # the walk must not start on a cycle looking for a length it never meets
    assert paths_to_depth(u_loop, -1) == []
    assert paths_to_depth(bag_ss, -3) == []
    assert [p.states for p in paths_to_depth(u_loop, 0)] == [(0,)]


def test_path_count_matches_enumeration(sig_bag, sig_server):
    rng = random.Random(4021)
    for sig in (sig_bag, sig_server):
        for _ in range(25):
            pc = _rand_pc(rng, sig, rng.randrange(1, 5))
            for depth in range(5):
                paths = paths_to_depth(pc, depth)
                assert path_count(pc, depth) == len(paths)
                assert paths == sorted(paths, key=FinitePath.flat_key)


def test_cycle_enumeration(bag_ss, u_loop, server_pc):
    got = [(p.states, p.indices) for p in cycles_through(bag_ss.coalg, 0, 1)]
    assert got == [((0, 0), (0,)), ((0, 0), (1,))]
    # two direct returns plus four of length two
    assert len(list(cycles_through(bag_ss.coalg, 0, 2))) == 6
    assert len(list(cycles_through(u_loop.coalg, 0, 3))) == 3
    assert list(cycles_through(server_pc.coalg, 2, 4)) == []


def _cycles_by_recursion(c, state, maxlen):
    # Reference: the recursive enumeration into one list, without pruning.
    steps = {s: sorted((k, t) for t, k in c.successors(s)) for s in range(c.n_states)}
    out = []

    def walk(cur, states, indices):
        if len(indices) == maxlen:
            return
        for k, t in steps[cur]:
            states.append(t)
            indices.append(k)
            if t == state:
                out.append(FinitePath(tuple(states), tuple(indices)))
            walk(t, states, indices)
            states.pop()
            indices.pop()

    walk(state, [state], [])
    return out


def _comparable(cycles):
    return all(a.is_prefix_of(b) or b.is_prefix_of(a) for a in cycles for b in cycles)


# The reference lists every cycle; on three sig_server states that takes
# about 100 s (2-vCPU VM, CPython 3.11), so that signature stops at two.
@pytest.mark.parametrize("name,nmax", [("sig_poly", 3), ("sig_bag", 3), ("sig_server", 2)])
def test_cycles_and_oracle_match_recursive_enumeration(name, nmax, request):
    sig = request.getfixturevalue(name)
    for n in range(1, nmax + 1):
        for c in all_coalgebras(sig, n):
            for maxlen in (1, 2, 2 * n):
                comparable = []
                for s in range(n):
                    want = _cycles_by_recursion(c, s, maxlen)
                    assert list(cycles_through(c, s, maxlen)) == want
                    comparable.append(_comparable(want))
                for root in range(n):
                    thin = all(comparable[s] for s in reachable_states(c, root))
                    assert oracle_is_thin(PointedCoalgebra(c, root), maxlen) == thin


# -- strongly connected components ----------------------------------------


def _reach_matrix(c):
    n = c.n_states
    reach = [[False] * n for _ in range(n)]
    for s in range(n):
        for t in c.transition[s].args:
            reach[s][t] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return reach


def _components(c, roots):
    # The component search over every state reached from ``roots``.
    return _scc_csr(*_csr(c), roots, c.n_states)


def test_components_match_mutual_reachability(sig_bag, sig_server):
    rng = random.Random(977)
    for sig in (sig_bag, sig_server):
        for _ in range(30):
            c = _rand_pc(rng, sig, rng.randrange(1, 7)).coalg
            n = c.n_states
            comps, comp = _components(c, range(n))
            reach = _reach_matrix(c)
            assert sorted(s for members in comps for s in members) == list(range(n))
            for i in range(n):
                assert i in comps[comp[i]]
                for j in range(n):
                    same = i == j or (reach[i][j] and reach[j][i])
                    assert (comp[i] == comp[j]) == same


def test_component_order_is_reverse_topological(sig_bag, sig_server):
    rng = random.Random(978)
    for sig in (sig_bag, sig_server):
        for _ in range(30):
            pc = _rand_pc(rng, sig, rng.randrange(1, 7))
            c = pc.coalg
            for roots in (range(c.n_states), [pc.root]):
                _, comp = _components(c, roots)
                for s in range(c.n_states):
                    if comp[s] != -1:
                        assert all(comp[t] <= comp[s] for t in c.transition[s].args)


def test_condensation_of_server(server_pc):
    cond = reachable_condensation(server_pc)
    assert cond.components == ((1,), (2,), (0,))
    assert cond.component_of == (2, 0, 1)
    comps, comp = _components(server_pc.coalg, [server_pc.root])
    assert (tuple(comps), tuple(comp)) == (cond.components, cond.component_of)


def test_condensation_skips_unreachable(sig_poly):
    pc = build(sig_poly, [("u", (0,)), ("u", (1,))])
    cond = reachable_condensation(pc)
    assert cond.components == ((0,),)
    assert cond.component_of == (0, -1)
    # an unreachable state pointing into the reachable part stays unvisited
    pc = build(sig_poly, [("u", (0,)), ("b", (1, 0))])
    comps, comp = _components(pc.coalg, [pc.root])
    assert comps == [(0,)]
    assert list(comp) == [0, -1]


def test_single_component_cycle(bag_tree):
    comps, comp = _components(bag_tree.coalg, range(3))
    assert len(comps) == 1
    assert sorted(comps[0]) == [0, 1, 2]
    assert list(comp) == [0, 0, 0]


# -- minimization ---------------------------------------------------------


def test_minimize_fixes_minimal_system(server_pc):
    mpc, mapping = minimize(server_pc)
    assert mpc.coalg == server_pc.coalg
    assert mpc.root == 0
    assert mapping == {0: 0, 1: 1, 2: 2}


def test_minimize_folds_unary_cycle(sig_poly, u_loop):
    pc = build(sig_poly, [("u", (1,)), ("u", (0,))])
    mpc, mapping = minimize(pc)
    assert mpc.coalg == u_loop.coalg
    assert mapping == {0: 0, 1: 0}


def test_minimize_folds_spread_pair(bag_tree, bag_ss):
    mpc, mapping = minimize(bag_tree)
    assert mpc.coalg == bag_ss.coalg
    assert mapping == {0: 0, 1: 0, 2: 0}


def test_minimize_drops_unreachable(sig_poly):
    pc = build(sig_poly, [("b", (0, 0)), ("c", ())])
    mpc, mapping = minimize(pc)
    assert mpc.coalg.n_states == 1
    assert mapping == {0: 0}


def test_minimize_is_idempotent_and_a_morphism(sig_bag, sig_server):
    rng = random.Random(5150)
    for sig in (sig_bag, sig_server):
        for _ in range(25):
            pc = _rand_pc(rng, sig, rng.randrange(1, 6))
            mpc, mapping = minimize(pc)
            again, ident = minimize(mpc)
            assert again.coalg == mpc.coalg and again.root == mpc.root
            assert ident == {s: s for s in range(mpc.coalg.n_states)}
            for s in mapping:
                image = sig.map_elem(pc.coalg.transition[s], mapping.__getitem__)
                assert image == mpc.coalg.transition[mapping[s]]


# -- worklist refinement against the round-based reference ---------------


def _refine_by_rounds(c, states):
    # Reference: re-sign every state every round until the block count holds.
    sig = c.sig
    block = {s: 0 for s in states}
    nblocks = 1
    while True:
        keys = {}
        for s in states:
            elem = sig.map_elem(c.transition[s], lambda t: block[t])
            keys[s] = (block[s], elem.op, elem.args)
        distinct = sorted(set(keys.values()))
        ids = {key: i for i, key in enumerate(distinct)}
        block = {s: ids[keys[s]] for s in states}
        if len(distinct) == nblocks:
            return block
        nblocks = len(distinct)


def _refine_signing_all(c, states, orbit_min=_orbit_min):
    # Reference: the same worklist refinement, except that the first round
    # signs every state, (op, orbit minimum of all-zero ids), where
    # ``_refine`` groups by op.  Block dicts must come out identical.
    records = c.sig._records
    tr = c.transition
    block = [0] * c.n_states
    lookup = block.__getitem__
    preds = {s: [] for s in states}
    for s in states:
        for t in set(tr[s].args):
            preds[t].append(s)
    members = [set(states)]
    mark = bytearray(c.n_states)
    dirty = list(states)
    while dirty:
        touched = {}
        for s in dirty:
            e = tr[s]
            key = (e.op, orbit_min(records[e.op], tuple(map(lookup, e.args))))
            touched.setdefault(block[s], {}).setdefault(key, set()).add(s)
        moved = []
        for b, by_key in sorted(touched.items()):
            parts = [p for _, p in sorted(by_key.items())]
            rest = members[b]
            rest_size = len(rest) - sum(map(len, parts))
            if rest_size == 0 and len(parts) == 1:
                continue
            for p in parts:
                rest.difference_update(p)
            largest = max(parts, key=len)
            if rest_size >= len(largest):
                moving = parts
            else:
                members[b] = largest
                moving = [p for p in parts if p is not largest]
                if rest:
                    moving.append(rest)
            for p in moving:
                nb = len(members)
                members.append(p)
                for s in p:
                    block[s] = nb
                moved.extend(p)
        dirty = []
        for t in moved:
            for s in preds[t]:
                if not mark[s]:
                    mark[s] = 1
                    dirty.append(s)
        for s in dirty:
            mark[s] = 0
    return {s: block[s] for s in states}


def _partition(block):
    # Block ids are arbitrary: name each block by its least member.
    least = {}
    for s in sorted(block):
        least.setdefault(block[s], s)
    return {s: least[b] for s, b in block.items()}


def _state_sets(c):
    n = c.n_states
    yield list(range(n))
    for root in range(n):
        yield reachable_states(c, root)


def _assert_refines_like_reference(c):
    for states in _state_sets(c):
        got = _refine(c, states)
        assert sorted(got) == sorted(states)
        assert _partition(got) == _partition(_refine_by_rounds(c, states))
        assert got == _refine_signing_all(c, states)


def _assert_minimizes_like_reference(c, monkeypatch):
    for root in range(c.n_states):
        got = minimize(PointedCoalgebra(c, root))
        with monkeypatch.context() as m:
            m.setattr(coalgebra, "_refine", _refine_by_rounds)
            # a fresh object: the first one keeps its quotient
            want = minimize(PointedCoalgebra(c, root))
        assert got == want


@pytest.mark.parametrize("name", ["sig_poly", "sig_bag", "sig_server"])
def test_refine_matches_rounds_exhaustively(name, request):
    sig = request.getfixturevalue(name)
    for n in range(1, 4):
        for c in all_coalgebras(sig, n):
            _assert_refines_like_reference(c)


@pytest.fixture(scope="module")
def sig_wide():
    # The benchmark's non-product D_6 next to the product S_3 x S_3.
    return SignatureSpec(
        [
            OperationSymbol("z", 0),
            OperationSymbol("d6", 6, ((1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1))),
            OperationSymbol(
                "s3s3",
                6,
                ((1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)),
            ),
        ]
    )


def _merging_systems(sig):
    rng = random.Random(6143)
    for _ in range(150):
        n = rng.randrange(1, 13)
        # Few values per system make equal successors, hence merges, likely.
        targets = rng.sample(range(n), min(n, rng.randrange(1, 4)))
        rows = []
        for _ in range(n):
            op = rng.choice(sig.ops)
            rows.append((op.id, tuple(rng.choice(targets) for _ in range(op.arity))))
        yield build(sig, rows).coalg


@pytest.mark.parametrize("name", ["sig_mixed", "sig_wide"])
def test_refine_matches_rounds_on_random_systems(name, request, monkeypatch):
    for c in _merging_systems(request.getfixturevalue(name)):
        _assert_refines_like_reference(c)
        _assert_minimizes_like_reference(c, monkeypatch)


def test_minimize_matches_rounds_exhaustively(sig_poly, sig_bag, sig_server, monkeypatch):
    for sig in (sig_poly, sig_bag, sig_server):
        for n in range(1, 4):
            for c in all_coalgebras(sig, n):
                _assert_minimizes_like_reference(c, monkeypatch)


def _three_chains(sig):
    # Two u-chains of 20 steps into c merge state by state; a third chain of
    # 20 steps into a b-loop stays apart from both.
    rows = []
    for end in ("c", "c", "b"):
        base = len(rows)
        rows += [("u", (base + i + 1,)) for i in range(20)]
        rows.append(("c", ()) if end == "c" else ("b", (base + 20, base + 20)))
    return build(sig, rows).coalg


def test_refine_follows_long_chains(sig_poly):
    # Telling the chains apart takes one round per step, well past the
    # exhaustive sizes above.
    c = _three_chains(sig_poly)
    states = list(range(c.n_states))
    assert _refine(c, states) == _refine_signing_all(c, states)
    got = _partition(_refine(c, states))
    assert got == _partition(_refine_by_rounds(c, states))
    assert len(set(got.values())) == 42


def test_refine_starts_from_the_partition_by_op(sig_mixed, sig_wide, monkeypatch):
    # The first round signs no state; every later round signs what the
    # reference signs, so the reference signs exactly len(states) more.
    signed = {"got": 0, "ref": 0}

    def counting(side):
        def count(*args):
            signed[side] += 1
            return _orbit_min(*args)

        return count

    monkeypatch.setattr(coalgebra, "_orbit_min", counting("got"))
    for sig in (sig_mixed, sig_wide):
        for c in _merging_systems(sig):
            states = list(range(c.n_states))
            signed.update(got=0, ref=0)
            got = _refine(c, states)
            assert got == _refine_signing_all(c, states, counting("ref"))
            assert signed["ref"] == signed["got"] + len(states)


# -- the quotient builder against the builders it replaced ---------------


def _reference_minimal_quotient(pc):
    # Reference: the quotient numbered by a BFS over block representatives.
    c = pc.coalg
    order = reachable_states(c, pc.root)
    block = _refine(c, order)
    rep = {}
    for s in order:
        rep.setdefault(block[s], s)
    new_id = {block[pc.root]: 0}
    frontier = [block[pc.root]]
    while frontier:
        nxt = []
        for b in frontier:
            for t in c.transition[rep[b]].args:
                if block[t] not in new_id:
                    new_id[block[t]] = len(new_id)
                    nxt.append(block[t])
        frontier = nxt
    assert len(new_id) == len(rep)
    trans = [None] * len(new_id)
    for b, i in new_id.items():
        trans[i] = c.sig.map_elem(c.transition[rep[b]], lambda t: new_id[block[t]])
    mapping = {s: new_id[block[s]] for s in order}
    return PointedCoalgebra(Coalgebra(c.sig, tuple(trans)), 0), mapping


def _reference_key(pc):
    # Reference: the key's rows as plain (op, args) tuples, each written at
    # its state's block id.
    mpc = _reference_minimal_quotient(pc)[0]
    c = mpc.coalg
    block = _refine(c, range(c.n_states))
    assert len(set(block.values())) == c.n_states
    rows = [None] * c.n_states
    for s, elem in enumerate(c.transition):
        args = tuple(map(block.__getitem__, elem.args))
        rows[block[s]] = (elem.op, _orbit_min(c.sig._records[elem.op], args))
    return (block[mpc.root], tuple(rows))


def _assert_quotients_like_reference(pcs):
    merged = 0
    for pc in pcs:
        fresh = PointedCoalgebra(pc.coalg, pc.root)
        mpc, mapping = minimize(fresh)
        want_mpc, want_mapping = _reference_minimal_quotient(pc)
        assert mpc == want_mpc and list(mapping.items()) == list(want_mapping.items())
        key, want = canonical_key(fresh), _reference_key(pc)
        assert key == want and hash(key) == hash(want)
        merged += mpc.coalg.n_states < len(mapping)
    assert merged > 0


@pytest.mark.parametrize("name", ["sig_poly", "sig_bag", "sig_server"])
def test_quotient_matches_reference_exhaustively(name, request):
    sig = request.getfixturevalue(name)
    _assert_quotients_like_reference(
        PointedCoalgebra(c, root)
        for n in range(1, 4)
        for c in all_coalgebras(sig, n)
        for root in range(n)
    )


@pytest.mark.parametrize("name", ["sig_mixed", "sig_wide"])
def test_quotient_matches_reference_on_blow_ups(name, request):
    rng = random.Random(7919)
    pcs = []
    for c in _merging_systems(request.getfixturevalue(name)):
        big, pi = blow_up(rng, c)
        for root in range(c.n_states):
            pcs += [PointedCoalgebra(c, root), PointedCoalgebra(big, pi[root])]
    _assert_quotients_like_reference(pcs)


def test_quotient_matches_reference_on_long_chains(sig_poly):
    _assert_quotients_like_reference(
        PointedCoalgebra(c, root)
        for c in (_loop_chain(sig_poly, 50), _three_chains(sig_poly))
        for root in range(c.n_states)
    )


# -- behavioural equality and fingerprints --------------------------------


def test_beh_equal_on_fixtures(u_loop, bag_ss, bag_tree, sig_poly):
    assert beh_equal(u_loop, u_loop)
    two_cycle = build(sig_poly, [("u", (1,)), ("u", (0,))])
    assert beh_equal(u_loop, two_cycle)
    assert beh_equal(bag_tree, bag_ss)
    assert beh_equal(PointedCoalgebra(bag_tree.coalg, 1), bag_ss)
    assert not beh_equal(u_loop, build(sig_poly, [("c", ())]))


def test_beh_equal_requires_shared_signature(u_loop, bag_ss):
    # The same error on fresh sides, on minimized sides and on keyed sides.
    a, b = (PointedCoalgebra(pc.coalg, pc.root) for pc in (u_loop, bag_ss))
    for warm in (None, minimize, canonical_key):
        if warm is not None:
            warm(a)
            warm(b)
        for pc1, pc2 in ((a, b), (b, a)):
            with pytest.raises(CoalgebraError, match="signature mismatch"):
                beh_equal(pc1, pc2)
        if warm is None:
            assert "_minimal" not in vars(a) and "_minimal" not in vars(b)


def test_disjoint_union_shifts_second(sig_poly, u_loop):
    c = disjoint_union(u_loop.coalg, u_loop.coalg)
    assert c.transition == (FElem("u", (0,)), FElem("u", (1,)))


def _copy(pc, minimized):
    # An equal object with nothing kept, or with its quotient kept.
    out = PointedCoalgebra(pc.coalg, pc.root)
    if minimized:
        minimize(out)
    return out


def _assert_matches_reference_warm_or_fresh(pairs):
    equal = 0
    for pc1, pc2 in pairs:
        want = _reference_beh_equal(pc1, pc2)
        equal += want
        for warm1 in (False, True):
            for warm2 in (False, True):
                a, b = _copy(pc1, warm1), _copy(pc2, warm2)
                assert beh_equal(a, b) == want
                # Both keys stay kept.
                assert "_key" in vars(a) and "_key" in vars(b)
    assert 0 < equal < len(pairs)


def test_beh_equal_matches_reference_warm_or_fresh_exhaustively(sig_bag):
    pcs = [
        PointedCoalgebra(c, r)
        for n in (1, 2)
        for c in all_coalgebras(sig_bag, n)
        for r in range(n)
    ]
    _assert_matches_reference_warm_or_fresh(
        [(p1, p2) for i, p1 in enumerate(pcs) for p2 in pcs[i:]]
    )


@pytest.mark.parametrize("name", ["sig_mixed", "sig_rotations"])
def test_beh_equal_matches_reference_warm_or_fresh_on_blow_ups(name, request):
    rng = random.Random(4099)
    pairs = []
    for c in _merging_systems(request.getfixturevalue(name)):
        big, pi = blow_up(rng, c)
        root = rng.randrange(c.n_states)
        # The blow-up's copy of the root, then of a state that may differ.
        for other in (root, rng.randrange(c.n_states)):
            pairs.append((PointedCoalgebra(c, root), PointedCoalgebra(big, pi[other])))
    _assert_matches_reference_warm_or_fresh(pairs)


def test_beh_equal_refines_the_kept_quotients(sig_mixed, monkeypatch):
    sizes = []
    refine = coalgebra._refine

    def recording(c, states):
        sizes.append(len(states))
        return refine(c, states)

    monkeypatch.setattr(coalgebra, "_refine", recording)
    rng = random.Random(17)
    merged = 0
    for c in _merging_systems(sig_mixed):
        big, pi = blow_up(rng, c)
        root = rng.randrange(c.n_states)
        pc1, pc2 = PointedCoalgebra(c, root), PointedCoalgebra(big, pi[root])
        reach = [len(reachable_states(pc.coalg, pc.root)) for pc in (pc1, pc2)]
        q1, q2 = (
            minimize(PointedCoalgebra(pc.coalg, pc.root))[0].coalg.n_states for pc in (pc1, pc2)
        )
        # A fresh pair: each side is minimized, then its quotient is refined
        # for its key.
        sizes.clear()
        assert beh_equal(pc1, pc2)
        assert sizes == [reach[0], q1, reach[1], q2]
        # One side minimized: only its key is left to refine.
        warm, fresh = PointedCoalgebra(c, root), PointedCoalgebra(big, pi[root])
        minimize(warm)
        sizes.clear()
        assert beh_equal(warm, fresh)
        assert sizes == [q1, reach[1], q2]
        # The keys are kept, so neither a second call nor canonical_key
        # refines again.
        sizes.clear()
        assert beh_equal(pc2, pc1) and canonical_key(pc1) == canonical_key(pc2)
        assert sizes == []
        merged += q1 + q2 < sum(reach)
    assert merged > 0


def test_canonical_key_fingerprints_behaviour(sig_bag):
    pcs = [
        PointedCoalgebra(c, r)
        for c in all_coalgebras(sig_bag, 2)
        for r in range(2)
    ]
    keys = [canonical_key(pc) for pc in pcs]
    for i, p1 in enumerate(pcs):
        for j in range(i + 1, len(pcs)):
            assert (keys[i] == keys[j]) == _reference_beh_equal(p1, pcs[j])


def test_canonical_key_ignores_state_numbering(sig_bag, sig_server, sig_wide):
    rng = random.Random(31337)
    n = 10
    for sig in (sig_bag, sig_server, sig_wide):
        for _ in range(25):
            pc = _rand_pc(rng, sig, n)
            pi = list(range(n))
            rng.shuffle(pi)
            shuffled = PointedCoalgebra(relabel(pc.coalg, pi), pi[pc.root])
            assert canonical_key(shuffled) == canonical_key(pc)
            # Block ids are fixed by structure, not by state numbers.
            block = _refine(pc.coalg, range(n))
            moved = _refine(shuffled.coalg, range(n))
            assert block == _refine_signing_all(pc.coalg, range(n))
            assert moved == _refine_signing_all(shuffled.coalg, range(n))
            assert all(moved[pi[s]] == block[s] for s in range(n))


# -- the key against the colour loop it replaced --------------------------


def _colour_key(pc):
    # Reference: minimize, then refine the quotient round by round (the
    # colour loop), with rows in colour order.
    mpc, _ = minimize(pc)
    c = mpc.coalg
    colour = _refine_by_rounds(c, range(c.n_states))
    rows = [None] * c.n_states
    for s, col in colour.items():
        elem = c.sig.map_elem(c.transition[s], colour.__getitem__)
        rows[col] = (elem.op, elem.args)
    return (colour[mpc.root], tuple(rows))


def _assert_keys_match_colour_keys(pcs):
    new = [canonical_key(pc) for pc in pcs]
    old = [_colour_key(pc) for pc in pcs]
    # Equal exactly when the old keys are equal: the pairing is a bijection.
    assert len(set(zip(new, old))) == len(set(new)) == len(set(old))


@pytest.mark.parametrize("name", ["sig_poly", "sig_bag", "sig_server"])
def test_key_matches_colour_key_exhaustively(name, request):
    sig = request.getfixturevalue(name)
    _assert_keys_match_colour_keys(
        [
            PointedCoalgebra(c, root)
            for n in range(1, 4)
            for c in all_coalgebras(sig, n)
            for root in range(n)
        ]
    )


@pytest.mark.parametrize("name", ["sig_mixed", "sig_wide"])
def test_key_matches_colour_key_on_random_systems(name, request):
    rng = random.Random(8867)
    pcs = []
    for c in _merging_systems(request.getfixturevalue(name)):
        big, pi = blow_up(rng, c)
        for root in range(c.n_states):
            pcs.append(PointedCoalgebra(c, root))
            pcs.append(PointedCoalgebra(big, pi[root]))
    _assert_keys_match_colour_keys(pcs)
    assert len({canonical_key(pc) for pc in pcs}) <= len(pcs) // 2


def _loop_chain(sig, loops):
    # Loops of 3, 4 and 5 states in turn, each exiting into the next from
    # its last state; the other b sides point at the leaf.  Loops differ
    # only in their distance to the leaf: one refinement round per state.
    sizes = [(3, 4, 5)[j % 3] for j in range(loops)]
    leaf = sum(sizes)
    rows = []
    for j, k in enumerate(sizes):
        first = len(rows)
        for i in range(k - 1):
            rows.append(("b", (first + i + 1, leaf)) if i % 2 else ("u", (first + i + 1,)))
        rows.append(("b", (first, first + k if j + 1 < loops else leaf)))
    rows.append(("c", ()))
    return build(sig, rows).coalg


def test_key_matches_colour_key_on_a_long_chain(sig_poly):
    chain = _loop_chain(sig_poly, 50)
    assert chain.n_states == 200
    big, pi = blow_up(random.Random(5), chain, copies=2)
    pcs = [PointedCoalgebra(chain, r) for r in (0, 1, 12)] + [PointedCoalgebra(big, pi[0])]
    _assert_keys_match_colour_keys(pcs)
    assert canonical_key(pcs[0]) == canonical_key(pcs[3]) != canonical_key(pcs[2])
    assert minimize(pcs[0])[0].coalg.n_states > 190
