"""Least-rank state tables, normal extraction, and the brute-force oracle."""

import random
from typing import NamedTuple

import pytest

from conftest import (
    _reference_cb_rank,
    _reference_census,
    all_coalgebras,
    blow_up,
    build,
    ladder_tree,
)
from thincoalg import (
    Coalgebra,
    NonThinError,
    PointedCoalgebra,
    TermError,
    cb_rank,
    count_infinite_paths_class,
    is_thin,
)
from thincoalg.coalgebra import minimize, reachable_condensation
from thincoalg.generate import rand_term
from thincoalg.normalform import (
    brute_force_normal,
    enumerate_terms,
    extract_normal,
    normalize,
    state_ranks,
)
from thincoalg.semantics import beh_equal_terms
from thincoalg.terms import (
    FNode,
    GNode,
    LassoStream,
    Rank,
    random_rewrite,
    rank,
    term_size,
    unfold_step,
)
from thincoalg.thinness import _require_thin


@pytest.fixture(scope="module")
def atoms(sig_poly):
    Fc = FNode(sig_poly.canonical_tuple("c", ()))
    uctx = sig_poly.canonical_context("u", 0, ())
    return {"Fc": Fc, "uctx": uctx, "uomega": GNode(LassoStream((), (uctx,)))}


# -- state rank tables ----------------------------------------------------


def test_ranks_of_pure_loop(u_loop):
    table = state_ranks(u_loop)
    e = table[0]
    assert e.rank == Rank(1, 0)
    assert e.kind == "g"
    assert e.g_value == 0
    assert e.spine == 0
    assert table.root_rank == Rank(1, 0)


def test_ranks_of_server(server_pc):
    table = state_ranks(server_pc)
    assert table[0].rank == Rank(2, 0) and table[0].kind == "g"
    assert table[1].rank == Rank(1, 0) and table[1].kind == "g"
    assert table[2].rank == Rank(0, 1) and table[2].kind == "f"
    # the respawn loop, at position 0, is the unique spine through the root
    assert table[0].spine == 0
    assert table[0].g_value == 1
    assert table[1].spine == 0
    assert table[2].spine is None


def test_lone_state_prefers_the_cheaper_kind(sig_poly):
    # b over a halted branch and a loop: a stream node wins at (1, 0)
    mixed = build(sig_poly, [("b", (1, 2)), ("c", ()), ("u", (2,))])
    e = state_ranks(mixed)[0]
    assert (e.rank, e.kind) == (Rank(1, 0), "g")
    assert e.spine == 1
    # b over the loop twice: both stream spines cost more than branching
    both = build(sig_poly, [("b", (1, 1)), ("u", (1,))])
    e2 = state_ranks(both)[0]
    assert (e2.rank, e2.kind) == (Rank(1, 1), "f")
    assert e2.g_value == 1 and e2.spine is None


def test_state_ranks_requires_thin_input(bag_ss):
    with pytest.raises(NonThinError) as exc:
        state_ranks(bag_ss)
    assert exc.value.verdict.witness is not None


class _RefRank(NamedTuple):
    rank: Rank
    kind: str
    g_value: int | None = None
    spine: tuple = ()


def _reference_state_ranks(pc):
    # The fold over decompositions that ranked states before the integer
    # fold: every decomposition of a lone state gets a context over state
    # ids, and ``spine`` keeps each (context, next state) that attains the
    # state's value.  Returns state -> ``_RefRank``.
    comps, comp, looped = _require_thin(pc)
    c = pc.coalg
    sig = c.sig

    entries = {}
    for ci, members in enumerate(comps):
        if looped[ci]:
            outside = 0
            for s in members:
                for t in c.transition[s].args:
                    if comp[t] != ci:
                        outside = max(outside, entries[t].rank.major)
            r = Rank(outside + 1, 0)
            for s in members:
                steps = [
                    (ctx, x)
                    for ctx, x in sig.decompositions(c.transition[s])
                    if comp[x] == ci
                ]
                if len(steps) != 1:
                    raise AssertionError("thin loop state without unique loop step")
                entries[s] = _RefRank(r, "g", outside, tuple(steps))
            continue

        (s,) = members
        succ = sorted(set(c.transition[s].args))
        if succ:
            f_rank = Rank(
                max(entries[t].rank.major for t in succ),
                1 + max(entries[t].rank.minor for t in succ),
            )
        else:
            f_rank = Rank(0, 1)

        through = [
            (ctx, x)
            for ctx, x in sig.decompositions(c.transition[s])
            if entries[x].g_value is not None
        ]
        if not through:
            entries[s] = _RefRank(f_rank, "f")
            continue

        values = [
            max([entries[x].g_value, *(entries[y].rank.major for y in ctx.sides)])
            for ctx, x in through
        ]
        g_val = min(values)
        best = tuple(p for p, v in zip(through, values) if v == g_val)
        g_rank = Rank(g_val + 1, 0)
        if g_rank < f_rank:
            entries[s] = _RefRank(g_rank, "g", g_val, best)
        else:
            entries[s] = _RefRank(f_rank, "f", g_val, best)
    return entries


def _reference_lone_entry(c, entries, s):
    # The lone-state rule with the original ascending threshold search: try
    # k = 0, 1, ... up to the largest spine value or side major and keep
    # every decomposition that fits under the first k with a hit.
    succ = sorted(set(c.transition[s].args))
    if succ:
        f_rank = Rank(
            max(entries[t].rank.major for t in succ),
            1 + max(entries[t].rank.minor for t in succ),
        )
    else:
        f_rank = Rank(0, 1)
    through = [
        (ctx, x)
        for ctx, x in c.sig.decompositions(c.transition[s])
        if entries[x].g_value is not None
    ]
    if not through:
        return (f_rank, "f", None, ())
    ceiling = 0
    for ctx, x in through:
        ceiling = max(ceiling, entries[x].g_value)
        for y in ctx.sides:
            ceiling = max(ceiling, entries[y].rank.major)
    for k in range(ceiling + 1):
        hits = tuple(
            (ctx, x)
            for ctx, x in through
            if entries[x].g_value <= k
            and all(entries[y].rank.major <= k for y in ctx.sides)
        )
        if hits:
            g_rank = Rank(k + 1, 0)
            if g_rank < f_rank:
                return (g_rank, "g", k, hits)
            return (f_rank, "f", k, hits)
    raise AssertionError("threshold search failed below its ceiling")


def _attaining_positions(c, entries, s):
    # Positions whose successor has a value and whose score, the larger of
    # that value and every major at the other positions, is the state's.
    args = c.transition[s].args
    majors = [entries[t].rank.major for t in args]
    return [
        u
        for u, t in enumerate(args)
        if entries[t].g_value is not None
        and max([entries[t].g_value, *majors[:u], *majors[u + 1 :]])
        == entries[s].g_value
    ]


def _assert_table_matches_reference(pc):
    c = pc.coalg
    entries = state_ranks(pc).entries
    ref = _reference_state_ranks(pc)
    assert entries.keys() == ref.keys()
    for s, e in entries.items():
        want = ref[s]
        assert (e.rank, e.kind, e.g_value) == (want.rank, want.kind, want.g_value)
        if e.kind == "f":
            assert e.spine is None
            continue
        # The one-step lemma: a single position attains the value, and the
        # reference's single step is the context there and its successor.
        assert _attaining_positions(c, entries, s) == [e.spine]
        elem = c.transition[s]
        u = e.spine
        ctx = c.sig.canonical_context(elem.op, u, elem.args[:u] + elem.args[u + 1 :])
        assert want.spine == ((ctx, elem.args[u]),)


def _thin_rooted(sig, n_max):
    """Every thin rooted system on at most ``n_max`` states."""
    for n in range(1, n_max + 1):
        for c in all_coalgebras(sig, n):
            for root in range(n):
                pc = PointedCoalgebra(c, root)
                if is_thin(pc).thin:
                    yield pc


# Largest system size per signature in the exhaustive tests.
SMALL_SYSTEMS = {"sig_poly": 3, "sig_bag": 3, "sig_server": 3, "sig_mixed": 2}


@pytest.mark.parametrize("name", SMALL_SYSTEMS)
def test_lone_state_ranks_match_threshold_search(name, request):
    sig = request.getfixturevalue(name)
    spines = 0
    for pc in _thin_rooted(sig, SMALL_SYSTEMS[name]):
        c = pc.coalg
        _assert_table_matches_reference(pc)
        entries = _reference_state_ranks(pc)
        for members in reachable_condensation(pc).components:
            s = members[0]
            if len(members) > 1 or s in c.transition[s].args:
                continue
            e = entries[s]
            want = _reference_lone_entry(c, entries, s)
            assert (e.rank, e.kind, e.g_value, e.spine) == want
            spines += e.g_value is not None
    assert spines > 0


# -- extraction and normalization -----------------------------------------


def _reference_extract_normal(pc):
    # The extraction that breaks ties between spine candidates by comparing
    # their extracted contexts and next terms, walking spines that resume
    # once the compared states are built.  It reads the reference table of
    # the minimal quotient.
    _require_thin(pc)
    mpc, _ = minimize(pc)
    table = _reference_state_ranks(mpc)
    c = mpc.coalg
    sig = c.sig

    memo = {}
    chosen = {}
    # Spine walks in progress: state -> [contexts so far, seen, current, cut].
    walks = {}

    def pending(s):
        if table[s].kind == "f":
            return [x for x in c.transition[s].args if x not in memo]
        walk = walks.get(s)
        if walk is None:
            walk = walks[s] = [[], {s: 0}, s, None]
        steps, seen, cur, cut = walk
        while cut is None:
            step = chosen.get(cur)
            if step is None:
                cands = table[cur].spine
                if len(cands) > 1:
                    need = [
                        x
                        for ctx, nxt in cands
                        for x in (*ctx.sides, nxt)
                        if x not in memo
                    ]
                    if need:
                        walk[2] = cur
                        return need
                    step = min(
                        cands,
                        key=lambda p: (
                            sig.canonical_context(
                                p[0].op, p[0].hole, tuple(map(memo.__getitem__, p[0].sides))
                            ),
                            memo[p[1]],
                        ),
                    )
                else:
                    step = cands[0]
                chosen[cur] = step
            ctx, nxt = step
            steps.append(ctx)
            if nxt in seen:
                cut = walk[3] = seen[nxt]
            else:
                seen[nxt] = len(steps)
                cur = nxt
        return [x for ctx in steps for x in ctx.sides if x not in memo]

    def build_term(s):
        if table[s].kind == "f":
            return FNode(sig.map_elem(c.transition[s], memo.__getitem__))
        steps, _, _, cut = walks.pop(s)
        ctxs = tuple(
            sig.canonical_context(ctx.op, ctx.hole, tuple(map(memo.__getitem__, ctx.sides)))
            for ctx in steps
        )
        return GNode(LassoStream(ctxs[:cut], ctxs[cut:]))

    stack = [mpc.root]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        need = pending(s)
        if need:
            stack.extend(need)
        else:
            memo[s] = build_term(s)
            stack.pop()
    return memo[mpc.root]


def _random_thin_systems(sigs, count, rng):
    # Rooted systems of 4-11 states, all reachable: state s passes to s + 1
    # at a random position, and its other arguments point forward more often
    # than back.  Draws that are not thin are skipped.
    found = 0
    while found < count:
        sig = rng.choice(sigs)
        n = rng.randint(4, 11)
        trans = []
        for s in range(n):
            last = s + 1 == n
            op = rng.choice([o for o in sig.ops if o.arity or last])
            args = [
                rng.randrange(s + 1, n) if not last and rng.random() < 0.6
                else rng.randrange(n)
                for _ in range(op.arity)
            ]
            if not last:
                args[rng.randrange(op.arity)] = s + 1
            trans.append(sig.canonical_tuple(op.id, args))
        pc = PointedCoalgebra(Coalgebra(sig, tuple(trans)), 0)
        if is_thin(pc).thin:
            found += 1
            yield pc


@pytest.mark.parametrize("name", SMALL_SYSTEMS)
def test_extraction_matches_tie_breaking_reference(name, request):
    sig = request.getfixturevalue(name)
    streams = 0
    for pc in _thin_rooted(sig, SMALL_SYSTEMS[name]):
        got = extract_normal(pc)
        assert got is _reference_extract_normal(pc)
        streams += isinstance(got, GNode)
    assert streams > 0


def test_extraction_matches_reference_on_random_systems(
    sig_poly, sig_bag, sig_server, sig_mixed
):
    sigs = (sig_poly, sig_bag, sig_server, sig_mixed)
    rng = random.Random(2718)
    streams = 0
    for pc in _random_thin_systems(sigs, 2000, rng):
        assert len(state_ranks(pc).entries) >= 4
        _assert_table_matches_reference(pc)
        got = extract_normal(pc)
        assert got is _reference_extract_normal(pc)
        streams += isinstance(got, GNode)
    assert streams > 200


# Extraction reads the input's own table, without minimizing first, so the
# inputs below spread one behaviour over several states.


def test_extraction_on_a_loop_twice_its_period(sig_poly):
    # 2k states around a u-loop with a b exit to the leaf every k states:
    # state i behaves as state i + k.
    for k in range(1, 7):
        rows = [
            ("b", ((i + 1) % (2 * k), 2 * k)) if i % k == 0 else ("u", ((i + 1) % (2 * k),))
            for i in range(2 * k)
        ]
        rows.append(("c", ()))
        for root in range(2 * k):
            pc = build(sig_poly, rows, root)
            _assert_table_matches_reference(pc)
            got = extract_normal(pc)
            assert got is _reference_extract_normal(pc)
            assert got is extract_normal(build(sig_poly, rows, (root + k) % (2 * k)))
            assert len(got.stream.period) == k and not got.stream.prefix


def test_extraction_on_a_duplicated_ladder_tree(sig_poly):
    # Copy r of state s is 2s + r.  Arguments stay in their copy, except on
    # the edges that close a loop, which cross to the other copy, so each
    # loop of k states becomes one of 2k.  A new root branches into both
    # copies of the old one.
    raw, loops = ladder_tree(4000, random.Random(7))
    n = len(raw)
    rows = [
        (op, [2 * t + (r ^ (t <= s)) for t in args])
        for s, (op, args) in enumerate(raw)
        for r in (0, 1)
    ]
    rows.append(("b", (0, 1)))
    pc = build(sig_poly, rows, root=2 * n)
    assert len(state_ranks(pc).entries) == 2 * n + 1
    _assert_table_matches_reference(pc)
    got = extract_normal(pc)
    assert got is _reference_extract_normal(pc)
    nf = extract_normal(build(sig_poly, raw))
    assert got is FNode(sig_poly.canonical_tuple("b", (nf, nf)))
    assert rank(nf).major == loops


def test_extraction_on_random_blow_ups(sig_poly, sig_bag, sig_server, sig_mixed):
    sigs = (sig_poly, sig_bag, sig_server, sig_mixed)
    rng = random.Random(1618)
    for pc in _random_thin_systems(sigs, 300, rng):
        big, pi = blow_up(rng, pc.coalg)
        blown = PointedCoalgebra(big, pi[pc.root])
        _assert_table_matches_reference(blown)
        got = extract_normal(blown)
        assert got is _reference_extract_normal(blown)
        assert got is extract_normal(pc)


def test_rank_table_matches_extracted_terms(sig_poly, sig_bag, sig_server, sig_mixed):
    # Every entry of the table, not only the root's, is the rank of the
    # term extracted at that state, and its major is the derivative rank.
    # The census and, on rigid ops, the rank also match their references.
    sigs = (sig_poly, sig_bag, sig_server, sig_mixed)
    rng = random.Random(3141)
    checked = 0
    for pc in _random_thin_systems(sigs, 400, rng):
        for s, e in state_ranks(pc).entries.items():
            at = PointedCoalgebra(pc.coalg, s)
            assert rank(extract_normal(at)) == e.rank
            assert count_infinite_paths_class(at) == _reference_census(at)
            assert cb_rank(at) == e.rank.major
            if pc.coalg.sig is sig_poly:
                assert cb_rank(at) == _reference_cb_rank(at)
                checked += 1
    assert checked > 500


def test_extract_pure_loop(u_loop, atoms):
    assert extract_normal(u_loop) == atoms["uomega"]


def test_extract_server(server_pc, sig_server):
    halt = FNode(sig_server.canonical_tuple("halt", ()))
    stepper = GNode(LassoStream((), (sig_server.canonical_context("step", 0, ()),)))
    want = GNode(
        LassoStream(
            (), (sig_server.canonical_context("spawn", 0, (halt, stepper)),)
        )
    )
    got = extract_normal(server_pc)
    assert got == want
    assert rank(got) == Rank(2, 0)


def test_extract_uses_prefix_for_transients(sig_poly, atoms):
    mixed = build(sig_poly, [("b", (1, 2)), ("c", ()), ("u", (2,))])
    want = GNode(
        LassoStream(
            (sig_poly.canonical_context("b", 1, (atoms["Fc"],)),),
            (atoms["uctx"],),
        )
    )
    assert extract_normal(mixed) == want


def test_extract_rejects_non_thin(bag_ss, full_binary):
    for pc in (bag_ss, full_binary):
        with pytest.raises(NonThinError) as exc:
            extract_normal(pc)
        assert exc.value.verdict.witness is not None


def test_normalize_folds_an_unfolding(sig_poly, atoms):
    uomega = atoms["uomega"]
    assert normalize(sig_poly, unfold_step(sig_poly, uomega)) == uomega
    assert normalize(sig_poly, uomega) == uomega


def test_normalize_is_idempotent(sig_poly, sig_bag, sig_server):
    rng = random.Random(808)
    for sig in (sig_poly, sig_bag, sig_server):
        for _ in range(40):
            t = rand_term(sig, rng.randrange(1, 12), rng)
            n = normalize(sig, t)
            assert normalize(sig, n) == n
            assert beh_equal_terms(sig, t, n)
            assert rank(n) <= rank(t)


def test_rewritten_terms_normalize_identically(sig_server):
    rng = random.Random(515)
    for _ in range(30):
        t = rand_term(sig_server, rng.randrange(2, 10), rng)
        s = t
        for _ in range(rng.randrange(1, 5)):
            s = random_rewrite(sig_server, s, rng)
        assert normalize(sig_server, t) == normalize(sig_server, s)


# -- enumeration and the brute-force oracle -------------------------------


def test_enumerated_pool_of_size_three(sig_poly, atoms):
    Fc, uctx, uomega = atoms["Fc"], atoms["uctx"], atoms["uomega"]
    uFc = FNode(sig_poly.canonical_tuple("u", (Fc,)))
    want = sorted(
        [
            Fc,
            uomega,
            uFc,
            FNode(sig_poly.canonical_tuple("b", (Fc, Fc))),
            FNode(sig_poly.canonical_tuple("u", (uFc,))),
            FNode(sig_poly.canonical_tuple("u", (uomega,))),
            GNode(LassoStream((), (sig_poly.canonical_context("b", 0, (Fc,)),))),
            GNode(LassoStream((), (sig_poly.canonical_context("b", 1, (Fc,)),))),
        ]
    )
    assert enumerate_terms(sig_poly, 3) == want


def test_enumerated_pool_grows_monotonically(sig_poly):
    sizes = {n: enumerate_terms(sig_poly, n) for n in (3, 4, 5, 6)}
    assert [len(sizes[n]) for n in (3, 4, 5, 6)] == [8, 29, 106, 429]
    assert set(sizes[3]) <= set(sizes[4]) <= set(sizes[5])
    for n, pool in sizes.items():
        assert pool == sorted(pool)
        assert all(term_size(t) <= n for t in pool)


def test_enumerated_terms_are_canonical(sig_poly, sig_bag):
    for sig in (sig_poly, sig_bag):
        for t in enumerate_terms(sig, 4):
            if isinstance(t, FNode):
                assert sig.canonical_tuple(t.elem.op, t.elem.args) == t.elem
            else:
                s = t.stream
                assert LassoStream(s.prefix, s.period) == s


def test_oracle_rejects_oversized_input(sig_poly, atoms):
    big = FNode(sig_poly.canonical_tuple("b", (atoms["uomega"], atoms["uomega"])))
    with pytest.raises(TermError, match="bound"):
        brute_force_normal(sig_poly, big, 3)


def test_oracle_agrees_on_the_small_pool(sig_poly):
    for t in enumerate_terms(sig_poly, 3):
        assert normalize(sig_poly, t) == brute_force_normal(sig_poly, t, 4)
