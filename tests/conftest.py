"""Shared fixtures: the three headline systems and the signatures they live in.

``sig_poly`` is the rigid arity-0/1/2 signature used for tree-shaped terms,
``sig_bag`` its unordered-pair variant, ``sig_server`` the mixed signature
with a three-successor operation whose last two positions commute, and
``sig_mixed`` one operation per kind of symmetry up to arity 4,
``sig_rotations`` two groups that are no product of symmetric groups,
``sig_c3`` a rotation of three positions beside a unary op, and ``sig_wide``
the benchmark's D_6 beside S_3 x S_3.  The builders
below the fixtures (``build``, ``relabel``, ``blow_up``, ``ladder_tree``),
the references ``_reference_beh_equal`` (with its ``disjoint_union``),
``_reference_census``, ``_reference_cb_rank`` and ``_reference_rank_table``,
the derivative oracle ``_derivative_cb_rank`` and the path counter
``path_count`` are shared by several test modules.
"""

import itertools

import pytest

from thincoalg import (
    Coalgebra,
    OperationSymbol,
    PointedCoalgebra,
    SignatureSpec,
)
from thincoalg.coalgebra import _refine, reachable_states
from thincoalg.normalform import StateRank, StateRankTable
from thincoalg.terms import Rank
from thincoalg.thinness import PathClassCount, _require_thin, _thin_components
from thincoalg.treeenc import assert_polynomial


@pytest.fixture(scope="session")
def sig_poly():
    return SignatureSpec(
        [OperationSymbol("c", 0), OperationSymbol("u", 1), OperationSymbol("b", 2)]
    )


@pytest.fixture(scope="session")
def sig_bag():
    return SignatureSpec(
        [
            OperationSymbol("b0", 0),
            OperationSymbol("b1", 1),
            OperationSymbol("b2", 2, ((1, 0),)),
        ]
    )


@pytest.fixture(scope="session")
def sig_server():
    return SignatureSpec(
        [
            OperationSymbol("halt", 0),
            OperationSymbol("step", 1),
            OperationSymbol("spawn", 3, ((0, 2, 1),)),
        ]
    )


@pytest.fixture(scope="session")
def sig_mixed():
    # Every kind of group up to arity 4: rigid, a swap, a swap of two of
    # three positions, and a 4-cycle, the one group that is not a product
    # of symmetric groups.
    return SignatureSpec(
        [
            OperationSymbol("n0", 0),
            OperationSymbol("n1", 1),
            OperationSymbol("pair", 2, ((1, 0),)),
            OperationSymbol("tri", 3, ((0, 2, 1),)),
            OperationSymbol("cyc", 4, ((1, 2, 3, 0),)),
        ]
    )


@pytest.fixture(scope="session")
def sig_rotations():
    # Two groups that are no product of symmetric groups: C_3 and D_6.
    return SignatureSpec(
        [
            OperationSymbol("z", 0),
            OperationSymbol("c3", 3, ((1, 2, 0),)),
            OperationSymbol("d6", 6, ((1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0))),
        ]
    )


@pytest.fixture(scope="session")
def sig_c3():
    return SignatureSpec(
        [OperationSymbol("z", 0), OperationSymbol("u", 1), OperationSymbol("c3", 3, ((1, 2, 0),))]
    )


@pytest.fixture(scope="session")
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


def build(sig, rows, root=0):
    """Pointed coalgebra from (op, args) rows, one per state."""
    trans = tuple(sig.canonical_tuple(op, args) for op, args in rows)
    return PointedCoalgebra(Coalgebra(sig, trans), root)


@pytest.fixture(scope="session")
def server_pc(sig_server):
    # State 0 respawns itself (marked position) plus two workers; worker 1
    # steps forever, worker 2 halts.
    return build(
        sig_server,
        [("spawn", (0, 1, 2)), ("step", (1,)), ("halt", ())],
    )


@pytest.fixture(scope="session")
def bag_ss(sig_bag):
    # One state whose transition is the unordered pair {self, self}.
    return build(sig_bag, [("b2", (0, 0))])


@pytest.fixture(scope="session")
def full_binary(sig_poly):
    # One state stepping to the ordered pair (self, self).
    return build(sig_poly, [("b", (0, 0))])


@pytest.fixture(scope="session")
def bag_tree(sig_bag):
    # A finite unravelling of bag_ss with back edges; behaviourally equal
    # to bag_ss but spread over three states.
    return build(sig_bag, [("b2", (1, 2)), ("b2", (2, 0)), ("b2", (0, 0))])


@pytest.fixture(scope="session")
def u_loop(sig_poly):
    return build(sig_poly, [("u", (0,))])


def all_coalgebras(sig, n):
    """Every coalgebra on n states, one representative per canonical tuple."""
    elems = []
    for op in sig.ops:
        seen = set()
        for args in itertools.product(range(n), repeat=op.arity):
            e = sig.canonical_tuple(op.id, args)
            if e not in seen:
                seen.add(e)
                elems.append(e)
    for trans in itertools.product(elems, repeat=n):
        yield Coalgebra(sig, trans)


def relabel(c, pi):
    """The coalgebra ``c`` with state ``s`` renumbered to ``pi[s]``."""
    trans = [None] * c.n_states
    for s, elem in enumerate(c.transition):
        trans[pi[s]] = c.sig.map_elem(elem, pi.__getitem__)
    return Coalgebra(c.sig, tuple(trans))


def blow_up(rng, c, copies=3):
    """``copies`` copies of ``c``, renumbered at random, and the renumbering.

    Copy r of state s is r * n + s; each argument goes to a random copy of
    its target, so every copy behaves as its original.
    """
    n = c.n_states
    trans = tuple(
        c.sig.map_elem(c.transition[s], lambda t: rng.randrange(copies) * n + t)
        for _ in range(copies)
        for s in range(n)
    )
    pi = list(range(copies * n))
    rng.shuffle(pi)
    return relabel(Coalgebra(c.sig, trans), pi), pi


def ladder_tree(n, rng):
    """A thin rooted tree of about ``n`` states over c/u/b with nested loops.

    A spine runs from state 0 in segments.  Four segments in ten are loops
    of one to three states whose exit continues the spine, so the loops nest
    one inside the next (about one loop per fourteen states); the others are
    lone states carrying a random bush of up to twelve states.
    """
    trans = []

    def bush(size):
        # a random c/u/b tree of exactly ``size`` states, parents first
        root = len(trans)
        slots = [None]  # open argument positions; None is the bush's root
        for i in range(size):
            s = len(trans)
            slot = slots.pop(rng.randrange(len(slots)))
            if slot is not None:
                trans[slot[0]][1][slot[1]] = s
            left = size - i - 1  # every open slot needs one of these
            fits = [a for a in (0, 1, 2) if (0 if left == 0 else 1) <= len(slots) + a <= left]
            arity = rng.choice(fits)
            trans.append(["cub"[arity], [None] * arity])
            slots.extend((s, p) for p in range(arity))
        return root

    loops = 0
    pending = None  # (state, position) waiting for the next spine state
    while len(trans) < n:
        start = len(trans)
        if pending is not None:
            trans[pending[0]][1][pending[1]] = start
        if rng.random() < 0.4:
            k = rng.randint(1, 3)
            trans.extend(["u", [start + (i + 1) % k]] for i in range(k))
            exit_at = start + rng.randrange(k)
            trans[exit_at] = ["b", [trans[exit_at][1][0], None]]
            pending = (exit_at, 1)
            loops += 1
        else:
            trans.append(["b", [None, None]])
            pending = (start, 0)
            trans[start][1][1] = bush(rng.randint(1, 12))
    trans[pending[0]][1][pending[1]] = len(trans)
    trans.append(["c", []])
    return trans, loops


def path_count(pc, depth):
    """Number of length-``depth`` paths from the root, by dynamic
    programming: an oracle for path enumeration and for minimization."""
    c = pc.coalg
    counts = {pc.root: 1}
    for _ in range(depth):
        nxt = {}
        for s, m in counts.items():
            for t in c.transition[s].args:
                nxt[t] = nxt.get(t, 0) + m
        counts = nxt
    return sum(counts.values())


def disjoint_union(c1, c2):
    """``c1`` beside ``c2``, whose states are shifted past those of
    ``c1``."""
    n1 = c1.n_states
    shifted = [c1.sig.map_elem(e, lambda t: t + n1) for e in c2.transition]
    return Coalgebra(c1.sig, c1.transition + tuple(shifted))


def _reference_beh_equal(pc1, pc2):
    # Reference: refine the disjoint union of the two inputs themselves,
    # whatever is kept on them.
    union = disjoint_union(pc1.coalg, pc2.coalg)
    r1 = pc1.root
    r2 = pc2.root + pc1.coalg.n_states
    states = reachable_states(union, r1)
    seen = set(states)
    for s in reachable_states(union, r2):
        if s not in seen:
            states.append(s)
            seen.add(s)
    block = _refine(union, states)
    return block[r1] == block[r2]


def _reference_census(pc):
    # Reference: a fold of path counts per state, with a marker for
    # countably many, independent of the rank.
    _, _, comps, comp, looped, offender = _thin_components(pc)
    if offender is not None:
        return PathClassCount("uncountable")
    c = pc.coalg

    INF = -1  # countably infinite marker
    value: dict[int, int] = {}
    for ci, members in enumerate(comps):
        if looped[ci]:
            live_exit = False
            for s in members:
                for t in c.transition[s].args:
                    if comp[t] != ci and value[t] != 0:
                        live_exit = True
            v = INF if live_exit else 1
            for s in members:
                value[s] = v
        else:
            s = members[0]
            total = 0
            for t in c.transition[s].args:
                if value[t] == INF:
                    total = INF
                    break
                total += value[t]
            value[s] = total

    v = value[pc.root]
    if v == 0:
        return PathClassCount("zero")
    if v == INF:
        return PathClassCount("countably-infinite")
    return PathClassCount("finite", v)


def _reference_cb_rank(pc):
    # Reference: a fold of derivative ranks per state, independent of the
    # path counts.
    assert_polynomial(pc.coalg.sig)
    comps, comp, looped = _require_thin(pc)
    c = pc.coalg
    value: dict[int, int] = {}
    for ci, members in enumerate(comps):
        if looped[ci]:
            v = 1
            for s in members:
                for t in c.transition[s].args:
                    if comp[t] != ci:
                        v = max(v, 1 + value[t])
            for s in members:
                value[s] = v
        else:
            (s,) = members
            value[s] = max((value[t] for t in c.transition[s].args), default=0)
    return value[pc.root]


def _reference_rank_table(pc):
    # Reference: the rank table as a dictionary of ``StateRank`` entries,
    # folded on its own over the thinness check's components.
    comps, comp, looped = _require_thin(pc)
    trans = pc.coalg.transition

    entries: dict[int, StateRank] = {}
    for ci, members in enumerate(comps):
        if looped[ci]:
            outside = 0
            for s in members:
                for t in trans[s].args:
                    if comp[t] != ci:
                        outside = max(outside, entries[t].rank.major)
            r = Rank(outside + 1, 0)
            for s in members:
                u = next(u for u, t in enumerate(trans[s].args) if comp[t] == ci)
                entries[s] = StateRank(r, "g", outside, u)
            continue

        (s,) = members
        succ = [entries[t] for t in trans[s].args]
        if not succ:
            entries[s] = StateRank(Rank(0, 1), "f")
            continue
        majors = [e.rank.major for e in succ]
        *_, second, top = [0, *sorted(majors)]
        f_rank = Rank(top, 1 + max(e.rank.minor for e in succ))
        g_val = spine = None
        for u, e in enumerate(succ):
            if e.g_value is not None:
                score = max(e.g_value, second if majors[u] == top else top)
                if g_val is None or score < g_val:
                    g_val, spine = score, u
        if g_val is not None and Rank(g_val + 1, 0) < f_rank:
            entries[s] = StateRank(Rank(g_val + 1, 0), "g", g_val, spine)
        else:
            entries[s] = StateRank(f_rank, "f", g_val)
    return StateRankTable(pc.root, entries)


def _derivative_cb_rank(pc):
    """The Cantor-Bendixson rank of the runs from the root of a thin
    system, by derivatives on the graph itself.

    A state has an infinite run when it reaches a cycle.  Each round deletes
    the edges of every loop (a cycle with its mutually reachable states)
    that has no exit to a state with an infinite run: those runs are the
    isolated points of the run space.  The rank is the number of rounds
    until the root has no infinite run.  Plain reachability sets, recomputed
    every round; no fold and no component search.
    """
    c = pc.coalg
    states = reachable_states(c, pc.root)
    kept = {s: list(c.transition[s].args) for s in states}

    def after(s):
        # States reachable from s by a nonempty path over the kept edges.
        seen, todo = set(), list(kept[s])
        while todo:
            t = todo.pop()
            if t not in seen:
                seen.add(t)
                todo.extend(kept[t])
        return seen

    rounds = 0
    while True:
        reach = {s: after(s) for s in states}
        cyclic = {s for s in states if s in reach[s]}
        live = {s for s in states if reach[s] & cyclic}
        if pc.root not in live:
            return rounds
        rounds += 1
        for s in cyclic:
            loop = {t for t in reach[s] if s in reach[t]}
            exits = {t for x in loop for t in kept[x] if t not in loop}
            if not exits & live:
                for x in loop:
                    kept[x] = [t for t in kept[x] if t not in loop]
