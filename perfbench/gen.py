"""Seeded input generators of the benchmark.

``nonthin-100k`` uses the package's own ``gen_coalgebra``; the thin-ladder
systems and the symmetric blow-ups are built here.  Every generator takes a
``random.Random`` and nothing else random, so one seed fixes the output, and
every generator is iterative, so the benchmark itself never recurses deeply
on the inputs it builds.
"""

from __future__ import annotations

import random

from thincoalg import Coalgebra, FElem, OperationSymbol, PointedCoalgebra, SignatureSpec
from thincoalg.signature import apply_perm

# -- signatures -----------------------------------------------------------


def nonthin_signature() -> SignatureSpec:
    """The criterion-10 family: rigid ops of arity 1..5, mean out-degree 3."""
    return SignatureSpec([OperationSymbol(f"k{a}", a) for a in range(1, 6)])


def ladder_signature() -> SignatureSpec:
    return SignatureSpec([
        OperationSymbol("c", 0),
        OperationSymbol("u", 1),
        OperationSymbol("b", 2),
    ])


def _full(arity: int) -> tuple:
    """Generators of the full symmetric group on ``range(arity)``."""
    swap = (1, 0) + tuple(range(2, arity))
    cycle = tuple(range(1, arity)) + (0,)
    return (swap, cycle)


# Symmetric ops of arity 4..8.  ``s8`` is the expensive one: its group has
# 40320 elements, and every canonicalization enumerates all of them.
SYMMETRIC_OPS = ("s4", "d6", "s3s3", "s5")
S8_OP = "s8"


def symmetric_signature() -> SignatureSpec:
    return SignatureSpec([
        OperationSymbol("s4", 4, _full(4)),
        OperationSymbol("d6", 6, ((1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1))),
        OperationSymbol(
            "s3s3", 6,
            ((1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)),
        ),
        OperationSymbol("s5", 5, _full(5)),
        OperationSymbol(S8_OP, 8, _full(8)),
    ])


# -- thin ladder ------------------------------------------------------------

# One spine state per SPINE_DIV states and one spine loop per LOOP_DIV states.
# The normal form folds lone spine states into stream prefixes and nests one
# level per loop, so term depth grows linearly with size and the ladder
# crosses the depth at which recursive term code fails at the same rung for
# every seed.
SPINE_DIV = 4
LOOP_DIV = 9


def _raw(trans: list) -> list[tuple[str, tuple]]:
    return [(op, tuple(args)) for op, args in trans]


def _random_tree(trans: list, size: int, rng: random.Random) -> int:
    """Append a uniformly random c/u/b tree of exactly ``size`` states.

    The preorder word of node kinds is a shuffled multiset rotated by the
    cycle lemma, so the node counts are exact and the shape is uniform.
    Returns the index of its root.
    """
    n_b = (size - 1) // 3
    kinds = ["b"] * n_b + ["c"] * (n_b + 1) + ["u"] * (size - 2 * n_b - 1)
    rng.shuffle(kinds)
    step = {"b": 1, "u": 0, "c": -1}
    low, low_at, acc = 0, 0, 0
    for i, k in enumerate(kinds):
        acc += step[k]
        if acc < low:
            low, low_at = acc, i + 1
    kinds = kinds[low_at:] + kinds[:low_at]
    base = len(trans)
    open_slots: list[tuple[int, int]] = []
    for i, k in enumerate(kinds):
        s = base + i
        trans.append([k, [None] * (1 + step[k])])
        if open_slots:
            parent, pos = open_slots.pop()
            trans[parent][1][pos] = s
        for pos in reversed(range(1 + step[k])):
            open_slots.append((s, pos))
    return base


def ladder_tree(n: int, rng: random.Random) -> tuple[list, str]:
    """A thin tree-shaped system of ``n`` states over c/0, u/1, b/2.

    A spine of at least ``n // SPINE_DIV`` states runs from the root, and
    exactly ``n // LOOP_DIV`` runs of 1-3 of its states close into loops,
    whose back edge is the only edge that gives a state a second parent.
    Every other b on the spine carries a uniformly random bush, so the
    normal form stays linear in size.  Returns the transitions and the
    census kind of the root.
    """
    spine = max(2, n // SPINE_DIV)
    loops = max(1, n // LOOP_DIV)
    segments = [("loop", rng.randint(1, 3)) for _ in range(loops)]
    lone = max(0, spine - sum(k for _, k in segments))
    segments += [("lone", 1)] * lone
    rng.shuffle(segments)

    trans: list = []
    slots: list[tuple[int, int]] = []  # (state, position) to be given a bush

    def branch(s: int, keep: int | None, fixed_side: int | None, p_b: float):
        # ``keep`` is the spine/loop successor; b states get a second argument.
        if fixed_side is None and rng.random() >= p_b:
            trans[s] = ["u", [keep]]
            return
        args = [keep, fixed_side]
        if rng.random() < 0.5:
            args.reverse()
        trans[s] = ["b", args]
        if fixed_side is None:
            slots.append((s, args.index(None)))

    starts = []
    for kind, k in segments:
        starts.append(len(trans))
        trans.extend([None] * k)
    end = len(trans)
    trans.append(["c", []])

    value = 0  # census value of the spine below the current segment; -1 = infinite
    for i in reversed(range(len(segments))):
        kind, k = segments[i]
        first = starts[i]
        cont = starts[i + 1] if i + 1 < len(segments) else end
        if kind == "lone":
            branch(first, cont, None, 0.8)
            continue
        exit_at = first + rng.randrange(k)
        for s in range(first, first + k):
            nxt = s + 1 if s + 1 < first + k else first
            branch(s, nxt, cont if s == exit_at else None, 0.6)
        value = -1 if value != 0 else 1

    budget = n - len(trans)
    if budget < len(slots):
        raise ValueError(f"size {n} too small for its spine")
    cuts = sorted(rng.sample(range(1, budget), len(slots) - 1)) if slots else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
    for (s, pos), size in zip(slots, sizes):
        trans[s][1][pos] = _random_tree(trans, size, rng)
    kind = "zero" if value == 0 else "countably-infinite" if value == -1 else "finite"
    return _raw(trans), kind


# Loops in a chain repeat a seeded motif, so two loops differ only in their
# distance to the end of the chain.  Telling them apart takes about one
# refinement round per chain state, which is what makes ``minimize``
# quadratic here.  Loop sizes, exit positions and op counts are fixed, so the
# nesting depth (one level per loop) and the round count are the same for
# every seed.
MOTIF_SIZES = (3, 4, 5)


def ladder_chain(n: int, rng: random.Random) -> tuple[list, str]:
    """A chain of nested loops with about ``n`` states over c/0, u/1, b/2.

    Each loop exits into the next one; the other b sides point at one shared
    leaf.  Returns the transitions and the census kind of the root.
    """
    motif = []
    for k in rng.sample(MOTIF_SIZES, len(MOTIF_SIZES)):
        ops = ["b"] * ((k - 1) // 2) + ["u"] * (k - 1 - (k - 1) // 2)
        rng.shuffle(ops)
        ops.append("b")  # the exit, always last
        exit_at = k - 1
        flips = [rng.random() < 0.5 for _ in range(k)]
        motif.append((ops, exit_at, flips))

    loops = []
    total = 1
    while total < n:
        loops.append(motif[len(loops) % len(motif)])
        total += len(loops[-1][0])
    leaf = total - 1
    trans: list = []
    first = 0
    for j, (ops, exit_at, flips) in enumerate(loops):
        k = len(ops)
        nxt_loop = first + k if j + 1 < len(loops) else leaf
        for i, op in enumerate(ops):
            nxt = first + (i + 1) % k
            if op == "u":
                trans.append(["u", [nxt]])
                continue
            side = nxt_loop if i == exit_at else leaf
            args = [side, nxt] if flips[i] else [nxt, side]
            trans.append(["b", args])
        first += k
    trans.append(["c", []])
    kind = "countably-infinite" if len(loops) >= 2 else "finite"
    return _raw(trans), kind


def build(sig: SignatureSpec, raw: list[tuple[str, tuple]], root: int = 0) -> PointedCoalgebra:
    """Canonical pointed coalgebra from raw (op, args) rows."""
    trans = tuple(sig.canonical_tuple(op, args) for op, args in raw)
    return PointedCoalgebra(Coalgebra(sig, trans), root)


# -- symmetric refinement ----------------------------------------------------


def symmetric_base(
    sig: SignatureSpec, n: int, n_s8: int, rng: random.Random
) -> list[tuple[str, tuple]]:
    """A random system of ``n`` states over the symmetric ops, ``n_s8`` of
    them under the full symmetric group on 8 positions; the root never is.

    The first argument of state ``s`` is ``s + 1`` (mod ``n``), so every
    state is reachable and every input costs the same work; the other
    arguments are uniform.
    """
    s8_states = set(rng.sample(range(1, n), n_s8))
    raw = []
    for s in range(n):
        op = S8_OP if s in s8_states else SYMMETRIC_OPS[rng.randrange(len(SYMMETRIC_OPS))]
        rest = tuple(rng.randrange(n) for _ in range(sig.arity(op) - 1))
        raw.append((op, ((s + 1) % n,) + rest))
    return raw


def blow_up(
    sig: SignatureSpec, raw: list[tuple[str, tuple]], copies: int, rng: random.Random
) -> list[tuple[str, tuple]]:
    """``copies`` copies of every state; copy ``r`` of state ``s`` is state
    ``r * n + s``.  Each argument goes to a random copy of its target and the
    tuple is permuted by a random element of the op's group, so every copy is
    behaviourally equal to its original while the stored tuples differ.

    The first argument of ``symmetric_base`` stays in its copy, except that
    the last state steps to the next copy of the root, so every copy is
    reachable from copy 0 of the root.
    """
    n = len(raw)
    out = []
    for r in range(copies):
        for s, (op, args) in enumerate(raw):
            first = ((r + (s == n - 1)) % copies) * n + args[0]
            moved = (first,) + tuple(rng.randrange(copies) * n + t for t in args[1:])
            elems = sig.group(op).elements
            out.append((op, apply_perm(elems[rng.randrange(len(elems))], moved)))
    return out


def uncanonical(sig: SignatureSpec, raw: list[tuple[str, tuple]]) -> Coalgebra:
    """A coalgebra holding the tuples exactly as drawn, for serialization:
    loading the document is what canonicalizes them."""
    return Coalgebra(sig, tuple(FElem(op, args) for op, args in raw))
