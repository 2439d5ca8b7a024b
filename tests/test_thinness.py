"""Thinness verdicts, witnesses, and the infinite-path census."""

import random
from array import array

import pytest

from conftest import (
    _derivative_cb_rank,
    _reference_cb_rank,
    _reference_census,
    _reference_rank_table,
    all_coalgebras,
    build,
    ladder_tree,
)
from thincoalg import (
    NonThinError,
    OperationSymbol,
    PointedCoalgebra,
    SignatureSpec,
    coalgebra,
    thinness,
)
from thincoalg.coalgebra import (
    FinitePath,
    canonical_key,
    minimize,
    reachable_states,
    validate_path,
)
from thincoalg.generate import gen_coalgebra
from thincoalg.normalform import extract_normal, normalize, state_ranks
from thincoalg.terms import GNode, LassoStream
from thincoalg.thinness import (
    PathClassCount,
    ThinWitness,
    count_infinite_paths_class,
    is_thin,
    oracle_is_thin,
)
from thincoalg.treeenc import cb_rank


def _rand_pc(rng, sig, n):
    rows = []
    for _ in range(n):
        op = rng.choice(sig.ops)
        rows.append((op.id, tuple(rng.randrange(n) for _ in range(op.arity))))
    return build(sig, rows, root=rng.randrange(n))


# -- verdicts on the fixtures ---------------------------------------------


def test_fixture_verdicts(server_pc, u_loop, bag_ss, bag_tree, full_binary):
    assert is_thin(server_pc).thin
    assert is_thin(u_loop).thin
    assert not is_thin(bag_ss).thin
    assert not is_thin(bag_tree).thin
    assert not is_thin(full_binary).thin


def test_thin_verdict_has_no_witness(u_loop):
    assert is_thin(u_loop).witness is None


def test_multiplicity_is_counted(sig_bag, bag_ss):
    # collapsing the doubled successor of bag_ss to a single edge flips
    # the verdict, so successor multisets must never be deduplicated
    single = build(sig_bag, [("b1", (0,))])
    assert is_thin(single).thin
    assert not is_thin(bag_ss).thin


def test_witness_of_doubled_self_loop(bag_ss):
    w = is_thin(bag_ss).witness
    assert (w.access.states, w.access.indices) == ((0,), ())
    assert (w.cycle1.states, w.cycle1.indices) == ((0, 0), (0,))
    assert (w.cycle2.states, w.cycle2.indices) == ((0, 0), (1,))


def test_witness_replays_on_random_instances(sig_bag, sig_poly, sig_server):
    rng = random.Random(6006)
    found = 0
    for sig in (sig_bag, sig_poly, sig_server):
        for _ in range(60):
            pc = _rand_pc(rng, sig, rng.randrange(1, 8))
            v = is_thin(pc)
            if v.thin:
                continue
            found += 1
            w = v.witness
            c = pc.coalg
            validate_path(c, w.access)
            validate_path(c, w.cycle1)
            validate_path(c, w.cycle2)
            assert w.access.states[0] == pc.root
            s = w.access.states[-1]
            assert w.cycle1.states[0] == s and w.cycle1.states[-1] == s
            assert w.cycle2.states[0] == s and w.cycle2.states[-1] == s
            # incomparable already at the first step
            first1 = (w.cycle1.indices[0], w.cycle1.states[1])
            first2 = (w.cycle2.indices[0], w.cycle2.states[1])
            assert first1 != first2
            assert not w.cycle1.is_prefix_of(w.cycle2)
            assert not w.cycle2.is_prefix_of(w.cycle1)
    assert found > 50


# -- agreement with the definitional oracle -------------------------------


def test_matches_bounded_cycle_oracle(sig_bag, sig_poly, sig_server):
    rng = random.Random(1221)
    for sig, nmax in ((sig_bag, 6), (sig_poly, 6), (sig_server, 4)):
        for _ in range(40):
            pc = _rand_pc(rng, sig, rng.randrange(1, nmax + 1))
            assert is_thin(pc).thin == oracle_is_thin(pc, 2 * pc.coalg.n_states)


# -- closure properties ---------------------------------------------------


def test_quotient_preserves_thinness(sig_bag, sig_server):
    rng = random.Random(909)
    for sig in (sig_bag, sig_server):
        for _ in range(40):
            pc = _rand_pc(rng, sig, rng.randrange(1, 7))
            mpc, _ = minimize(pc)
            assert is_thin(pc).thin == is_thin(mpc).thin
            assert count_infinite_paths_class(pc) == count_infinite_paths_class(mpc)


def test_rerooting_preserves_thinness(sig_bag, sig_server):
    # every state of a thin system generates a thin subsystem
    rng = random.Random(910)
    hits = 0
    for sig in (sig_bag, sig_server):
        for _ in range(60):
            pc = _rand_pc(rng, sig, rng.randrange(1, 7))
            if not is_thin(pc).thin:
                continue
            hits += 1
            for s in reachable_states(pc.coalg, pc.root):
                assert is_thin(PointedCoalgebra(pc.coalg, s)).thin
    assert hits > 30


# -- counting infinite paths ----------------------------------------------


def test_census_of_fixtures(server_pc, u_loop, bag_ss, sig_poly):
    assert count_infinite_paths_class(server_pc) == PathClassCount("countably-infinite")
    assert count_infinite_paths_class(u_loop) == PathClassCount("finite", 1)
    assert count_infinite_paths_class(bag_ss) == PathClassCount("uncountable")
    halt_chain = build(sig_poly, [("u", (1,)), ("c", ())])
    assert count_infinite_paths_class(halt_chain) == PathClassCount("zero")


def test_census_sums_over_branches(sig_poly):
    two_loops = build(sig_poly, [("b", (1, 2)), ("u", (1,)), ("u", (2,))])
    assert count_infinite_paths_class(two_loops) == PathClassCount("finite", 2)
    # the same loop twice still gives two paths, one per branch index
    doubled = build(sig_poly, [("b", (1, 1)), ("u", (1,))])
    assert count_infinite_paths_class(doubled) == PathClassCount("finite", 2)


def test_census_distinguishes_exit_liveness(sig_poly):
    dead_exit = build(sig_poly, [("b", (0, 1)), ("c", ())])
    assert count_infinite_paths_class(dead_exit) == PathClassCount("finite", 1)
    live_exit = build(sig_poly, [("b", (0, 1)), ("u", (1,))])
    assert count_infinite_paths_class(live_exit) == PathClassCount(
        "countably-infinite"
    )


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


def _alive_path_count(pc, depth, alive):
    counts = {pc.root: 1}
    for _ in range(depth):
        nxt = {}
        for s, m in counts.items():
            for t in pc.coalg.transition[s].args:
                nxt[t] = nxt.get(t, 0) + m
        counts = nxt
    return sum(m for s, m in counts.items() if alive[s])


def _census_oracle(pc):
    """Classify by first principles: a state is alive when it reaches a
    cycle, and alive path prefixes of a thin system stabilize exactly when
    only finitely many infinite paths exist."""
    c = pc.coalg
    n = c.n_states
    if not oracle_is_thin(pc, 2 * n):
        return PathClassCount("uncountable")
    reach = _reach_matrix(c)
    cyc = [reach[t][t] for t in range(n)]
    alive = [cyc[s] or any(reach[s][t] and cyc[t] for t in range(n)) for s in range(n)]
    if not alive[pc.root]:
        return PathClassCount("zero")
    f2 = _alive_path_count(pc, 2 * n, alive)
    f3 = _alive_path_count(pc, 3 * n, alive)
    if f2 == f3:
        return PathClassCount("finite", f2)
    return PathClassCount("countably-infinite")


def test_census_matches_first_principles(sig_bag, sig_poly, sig_server):
    rng = random.Random(2718)
    kinds = set()
    for sig, nmax in ((sig_bag, 6), (sig_poly, 6), (sig_server, 4)):
        for _ in range(120):
            pc = _rand_pc(rng, sig, rng.randrange(1, nmax + 1))
            got = count_infinite_paths_class(pc)
            assert got == _census_oracle(pc)
            _assert_matches_references(pc)
            kinds.add(got.kind)
    assert kinds == {"zero", "finite", "countably-infinite", "uncountable"}


# -- one fold for the census, the ranks and the normal forms --------------


def _answer(fn, pc):
    # The value, or the type and the verdict of the error raised.
    try:
        return fn(pc)
    except NonThinError as exc:
        return NonThinError, exc.verdict


def _entries(table_of):
    # The entries of a rank table in their order.
    return lambda pc: list(table_of(pc).entries.items())


def _assert_matches_references(pc, derivative=False):
    """The census, ``cb_rank`` and ``state_ranks`` against the references:
    ``cb_rank`` against the old fold on rigid signatures and, when
    ``derivative`` is set, against the derivative oracle on thin input."""
    assert count_infinite_paths_class(pc) == _reference_census(pc)
    assert _answer(_entries(state_ranks), pc) == _answer(_entries(_reference_rank_table), pc)
    verdict = is_thin(pc)
    if pc.coalg.sig.is_polynomial:
        assert _answer(cb_rank, pc) == _answer(_reference_cb_rank, pc)
    elif not verdict.thin:
        assert _answer(cb_rank, pc) == (NonThinError, verdict)
    if derivative and verdict.thin:
        assert cb_rank(pc) == _derivative_cb_rank(pc)
    if verdict.thin:
        # Runs are kept only up to rank 1: no count grows where there are
        # countably many.
        major, *_, runs = thinness._ranks(pc)
        assert not any(r for m, r in zip(major, runs) if m > 1)


@pytest.mark.parametrize("name", ["sig_poly", "sig_bag", "sig_server", "sig_c3"])
def test_census_and_rank_match_the_references_exhaustively(name, request):
    sig = request.getfixturevalue(name)
    kinds = set()
    ranks = set()
    for n in range(1, 4):
        for c in all_coalgebras(sig, n):
            for root in range(n):
                pc = PointedCoalgebra(c, root)
                _assert_matches_references(pc, derivative=True)
                kinds.add(count_infinite_paths_class(pc).kind)
                if is_thin(pc).thin:
                    ranks.add(cb_rank(pc))
    assert kinds == {"zero", "finite", "countably-infinite", "uncountable"}
    assert ranks == {0, 1, 2, 3}


def test_census_and_rank_match_the_references_on_random_sets(
    sig_bag, sig_poly, sig_server, sig_c3
):
    # The sets drawn by the quotient and rerooting tests, at every state,
    # and larger rigid and C_3 systems.
    for seed, count in ((909, 40), (910, 60)):
        rng = random.Random(seed)
        for sig in (sig_bag, sig_server):
            for _ in range(count):
                pc = _rand_pc(rng, sig, rng.randrange(1, 7))
                for s in reachable_states(pc.coalg, pc.root):
                    _assert_matches_references(PointedCoalgebra(pc.coalg, s), derivative=True)
    for seed, sig in ((911, sig_poly), (912, sig_c3)):
        rng = random.Random(seed)
        for _ in range(300):
            pc = _rand_pc(rng, sig, rng.randrange(1, 12))
            _assert_matches_references(pc, derivative=True)


def test_census_and_rank_match_the_references_on_ladder_trees(sig_poly):
    for size, seeds in ((40, range(6)), (400, range(3)), (4000, (7,))):
        for seed in seeds:
            raw, loops = ladder_tree(size, random.Random(seed))
            pc = build(sig_poly, raw)
            assert cb_rank(pc) == loops
            _assert_matches_references(pc)
            if size <= 400:
                for s in range(pc.coalg.n_states):
                    _assert_matches_references(PointedCoalgebra(pc.coalg, s))


def _doubling_chain(sig_poly, length, bottom):
    # State s < length branches twice to s + 1; ``bottom`` rows follow.
    rows = [("b", (s + 1, s + 1)) for s in range(length)]
    return build(sig_poly, rows + bottom)


def test_rank_one_doubling_chain_counts_exactly(sig_poly):
    pc = _doubling_chain(sig_poly, 64, [("u", (64,))])
    assert count_infinite_paths_class(pc) == PathClassCount("finite", 2**64)
    assert cb_rank(pc) == 1
    _assert_matches_references(pc)


def test_rank_two_doubling_chain_is_countable(sig_poly):
    # The chain ends in a loop whose exit reaches a second loop.
    pc = _doubling_chain(sig_poly, 64, [("b", (64, 65)), ("u", (65,))])
    assert count_infinite_paths_class(pc) == PathClassCount("countably-infinite")
    assert cb_rank(pc) == 2
    _assert_matches_references(pc)


def _refuse(*args):
    raise AssertionError("not to be called here")


def test_census_of_non_thin_systems_builds_no_witness_and_runs_no_fold(
    monkeypatch, sig_bag, sig_poly
):
    monkeypatch.setattr(thinness, "_witness", _refuse)
    monkeypatch.setattr(thinness, "_rank_fold", _refuse)
    seen = 0
    for sig in (sig_bag, sig_poly):
        for n in range(1, 3):
            for c in all_coalgebras(sig, n):
                for root in range(n):
                    pc = PointedCoalgebra(c, root)
                    if _reference_census(pc).kind == "uncountable":
                        assert count_infinite_paths_class(pc) == PathClassCount("uncountable")
                        seen += 1
    pc = gen_coalgebra(sig_poly, 2000, 5, weights=(0, 1, 3))
    assert _reference_census(pc).kind == "uncountable"
    assert count_infinite_paths_class(pc) == PathClassCount("uncountable")
    assert seen > 0


def test_rank_answers_on_symmetric_signatures(bag_ss, bag_tree, server_pc, sig_c3):
    # The respawn loop exits into the worker's step loop.
    assert cb_rank(server_pc) == 2
    spin = build(sig_c3, [("c3", (0, 1, 2)), ("u", (1,)), ("z", ())])
    assert cb_rank(spin) == 2
    for pc in (bag_ss, bag_tree):
        with pytest.raises(NonThinError) as exc:
            cb_rank(pc)
        assert exc.value.verdict == is_thin(pc)

# -- the shared condensation analysis -------------------------------------


@pytest.mark.parametrize("name", ["sig_poly", "sig_bag", "sig_server"])
def test_consumers_raise_the_verdict_of_is_thin(name, request):
    sig = request.getfixturevalue(name)
    consumers = [state_ranks, cb_rank, extract_normal]
    seen = 0
    for n in range(1, 4):
        for c in all_coalgebras(sig, n):
            for root in range(n):
                pc = PointedCoalgebra(c, root)
                verdict = is_thin(pc)
                if verdict.thin:
                    continue
                seen += 1
                for consumer in consumers:
                    with pytest.raises(NonThinError) as exc:
                        consumer(pc)
                    assert exc.value.verdict == verdict
    assert seen > 0


def test_each_consumer_searches_components_once(monkeypatch, sig_poly):
    calls = []
    folds = []
    refines = []
    search = coalgebra._scc_csr
    fold = thinness._rank_fold
    refine = coalgebra._refine

    def counting(*args):
        calls.append(1)
        return search(*args)

    def counting_fold(pc):
        folds.append(pc)
        return fold(pc)

    def counting_refine(c, states):
        refines.append(c)
        return refine(c, states)

    monkeypatch.setattr(coalgebra, "_scc_csr", counting)
    monkeypatch.setattr(thinness, "_scc_csr", counting)
    monkeypatch.setattr(thinness, "_rank_fold", counting_fold)
    monkeypatch.setattr(coalgebra, "_refine", counting_refine)
    # A branch into a u-loop that exits to a leaf, beside a leaf.
    pc = build(
        sig_poly,
        [("b", (1, 3)), ("u", (2,)), ("b", (1, 3)), ("c", ())],
    )
    consumers = (is_thin, count_infinite_paths_class, state_ranks, cb_rank, extract_normal)
    # The five consumers share one search of an object, and the four past
    # is_thin one rank fold, whichever runs first.
    for first in range(len(consumers)):
        calls.clear()
        folds.clear()
        fresh = PointedCoalgebra(pc.coalg, pc.root)
        for consumer in consumers[first:] + consumers[:first]:
            consumer(fresh)
        assert len(calls) == 1, consumers[first].__name__
        assert len(folds) == 1 and folds[0] is fresh, consumers[first].__name__
    calls.clear()
    folds.clear()
    for _ in range(2):
        for consumer in consumers:
            consumer(pc)
    assert len(calls) == 1 and len(folds) == 1 and folds[0] is pc
    # An equal but distinct object runs its own search and its own fold.
    fresh = PointedCoalgebra(pc.coalg, pc.root)
    for consumer in consumers:
        consumer(fresh)
    assert len(calls) == 2 and len(folds) == 2 and folds[1] is fresh
    # Normal forms come from the input's own table: nothing refines it.
    normalize(sig_poly, GNode(LassoStream((), (sig_poly.canonical_context("u", 0, ()),))))
    assert refines == []
    # The key refines the quotient that minimize kept: the input once, the
    # quotient once.
    mpc, _ = minimize(pc)
    canonical_key(pc)
    minimize(pc)
    assert [c is pc.coalg for c in refines] == [True, False]
    assert refines[1] is mpc.coalg


def _full_bfs_tree(offs, flat, source, n):
    par = array("l", [-1]) * n
    par[source] = source
    frontier = [source]
    while frontier:
        nxt = []
        for s in frontier:
            for i in range(offs[s], offs[s + 1]):
                t = flat[i]
                if par[t] == -1:
                    par[t] = s
                    nxt.append(t)
        frontier = nxt
    return par


def _tree_path(par, source, target):
    states = [target]
    while states[-1] != source:
        states.append(par[states[-1]])
    return tuple(reversed(states))


def _reference_witness(c, offs, flat, root, offender, comp_members):
    """The witness built without early stops: complete BFS trees from the
    root and, over an offset/flat reverse adjacency of the component's
    internal edges filled by counting and scattering, from the offender."""
    n = c.n_states
    mem = bytearray(n)
    for s in comp_members:
        mem[s] = 1
    in_pairs = [p for p in c.successors(offender) if mem[p[0]]]
    (t1, k1), (t2, k2) = in_pairs[0], in_pairs[1]
    access = _tree_path(_full_bfs_tree(offs, flat, root, n), root, offender)

    roffs = array("l", [0]) * (n + 1)
    for s in comp_members:
        for i in range(offs[s], offs[s + 1]):
            if mem[flat[i]]:
                roffs[flat[i] + 1] += 1
    for i in range(n):
        roffs[i + 1] += roffs[i]
    cursor = roffs[:-1]
    rflat = array("l", [0]) * roffs[n]
    for s in comp_members:
        for i in range(offs[s], offs[s + 1]):
            t = flat[i]
            if mem[t]:
                rflat[cursor[t]] = s
                cursor[t] += 1
    back = _full_bfs_tree(roffs, rflat, offender, n)

    def close(t, k):
        states = _tree_path(back, offender, t)[::-1]
        return FinitePath((offender, *states), (k,) + (0,) * (len(states) - 1))

    return ThinWitness(
        FinitePath(access, (0,) * (len(access) - 1)), close(t1, k1), close(t2, k2)
    )


def _assert_reference_witness(pc):
    """Check ``is_thin``'s witness against the reference; True if non-thin."""
    verdict = is_thin(pc)
    offs, flat, comps, _, _, offender = thinness._thin_components(pc)
    if offender is None:
        assert verdict.thin
        return False
    s, ci = offender
    want = _reference_witness(pc.coalg, offs, flat, pc.root, s, comps[ci])
    assert verdict.witness == want
    return True


@pytest.mark.parametrize("name", ["sig_poly", "sig_bag", "sig_server"])
def test_witness_matches_reference_exhaustively(name, request):
    sig = request.getfixturevalue(name)
    seen = 0
    for n in range(1, 4):
        for c in all_coalgebras(sig, n):
            for root in range(n):
                seen += _assert_reference_witness(PointedCoalgebra(c, root))
    assert seen > 0


def _rigid_sig():
    # The criterion-10 family: arities 1..5, mean out-degree 3.
    return SignatureSpec([OperationSymbol(f"k{a}", a) for a in range(1, 6)])


def test_witness_matches_reference_on_random_rigid_systems():
    sig = _rigid_sig()
    rng = random.Random(4242)
    seen = 0
    for _ in range(200):
        n = rng.randrange(50, 5001)
        pc = gen_coalgebra(sig, n, rng.randrange(2**31), root=rng.randrange(n))
        seen += _assert_reference_witness(pc)
    assert seen > 150


@pytest.mark.slow
def test_witness_matches_reference_at_criterion_10_scale():
    pc = gen_coalgebra(_rigid_sig(), 100_000, 1)
    assert _assert_reference_witness(pc)


def test_witness_matches_reference_on_constructed_cases(sig_poly, full_binary, bag_tree):
    chain = 12
    # A chain whose every state also branches to a leaf; its last state
    # steps back to the two before it, so it is the offender and the
    # farthest state from the root.
    far = [("b", (i + 1, chain + 1)) for i in range(chain)]
    far += [("b", (chain - 1, chain - 2)), ("c", ())]
    cases = {
        "root is the offender": (build(sig_poly, [("b", (1, 2)), ("u", (0,)), ("u", (0,))]), 0),
        "doubled self-loop at the root": (full_binary, 0),
        "offender on a self-loop": (
            build(sig_poly, [("b", (0, 1)), ("u", (0,)), ("u", (0,))], root=2), 0
        ),
        "doubled in-component successor": (
            build(sig_poly, [("u", (1,)), ("b", (2, 2)), ("u", (1,))]), 1
        ),
        "offender farthest from the root": (build(sig_poly, far), chain),
        "unordered pairs": (bag_tree, None),
    }
    for label, (pc, offender) in cases.items():
        assert _assert_reference_witness(pc), label
        got = is_thin(pc).witness.access.states[-1]
        assert offender is None or got == offender, label
    # No shortest path from the root is longer than the access path there.
    pc = cases["offender farthest from the root"][0]
    depth, frontier, seen = 0, [pc.root], {pc.root}
    while frontier:
        frontier = [t for s in frontier for t in pc.coalg.transition[s].args if t not in seen]
        seen.update(frontier)
        depth += bool(frontier)
    assert is_thin(pc).witness.access.length == depth == chain
