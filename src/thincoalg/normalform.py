"""Normal forms: least-rank terms denoting a given thin behaviour.

``state_ranks`` computes, per reachable state of a thin coalgebra, the least
rank of any term unfolding to that state's behaviour, together with which node
kind attains it.  It folds over the components and loop flags of the thinness
check's reachable condensation (``thinness._require_thin``), in reverse
topological order:

* A state inside a loop component always takes a stream node.  Its spine is
  the loop itself, the only spine that avoids mentioning a same-component
  state as a side, so its major is one more than the largest major among
  out-of-component successors of the loop.
* A lone state compares the branching candidate (largest successor major,
  one more than the largest successor minor) with the stream candidate
  ``(1 + g, 0)``, where ``g`` is the least ``k`` such that some
  decomposition keeps every side at major at most ``k`` and continues into a
  spine of value at most ``k``: the least, over the decompositions that
  continue into a spine, of the largest of the spine value and the side
  majors.  The decompositions attaining it form the state's spine entries.

``extract_normal`` checks its input for thinness, minimizes, and reads a term
off the quotient's table; only ``state_ranks`` analyses the quotient.  Every
``"g"`` state has exactly one spine step: a loop member by thinness, and a
lone one of value ``k`` because ``k + 1`` is at most its branching major
(stream minor 0, branching minor at least 1).  Sides of a best decomposition
have major at most ``k``, so its next state ``x`` is the only successor of
major above ``k``, occurs once, and is ``"g"`` of value ``k`` in turn (an
``"f"`` state of value at most ``k`` has major at most ``k``).  A spine walk
meets no choice, and extraction makes none: equal behaviours have
isomorphic minimal quotients, so they extract the same term.
``brute_force_normal`` is the independent oracle: enumerate every candidate
term up to a size bound and replay the inductive definition of normality
over the pool.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .coalgebra import PointedCoalgebra, canonical_key, minimize
from .errors import TermError
from .semantics import unfold
from .signature import ContextElem, SignatureSpec
from .terms import (
    FNode,
    GNode,
    LassoStream,
    Rank,
    Term,
    rank,
    subterms,
    term_size,
)
from .thinness import _require_thin


@dataclass(frozen=True)
class StateRank:
    """Rank data for one state.

    ``kind`` is "f" or "g".  ``g_value`` and ``spine`` are set for every
    state that reaches a cycle: ``spine`` lists the decompositions (context
    over state ids, next state) that attain ``g_value``.  A "g" state has
    exactly one, the step extraction takes; an "f" state may have several.
    """

    rank: Rank
    kind: str
    g_value: int | None = None
    spine: tuple[tuple[ContextElem, int], ...] = ()


@dataclass(frozen=True)
class StateRankTable:
    root: int
    entries: dict[int, StateRank]

    def __getitem__(self, state: int) -> StateRank:
        return self.entries[state]

    @property
    def root_rank(self) -> Rank:
        return self.entries[self.root].rank


def state_ranks(pc: PointedCoalgebra) -> StateRankTable:
    """Least term rank per reachable state of a thin coalgebra.

    Raises ``NonThinError`` on non-thin input.
    """
    comps, comp, looped = _require_thin(pc)
    c = pc.coalg
    sig = c.sig

    entries: dict[int, StateRank] = {}
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
                entries[s] = StateRank(r, "g", outside, tuple(steps))
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
            entries[s] = StateRank(f_rank, "f")
            continue

        # A decomposition fits under k exactly when k is at least its spine
        # value and every side's major, so the least k is the least such max.
        values = [
            max([entries[x].g_value, *(entries[y].rank.major for y in ctx.sides)])
            for ctx, x in through
        ]
        g_val = min(values)
        best = tuple(p for p, v in zip(through, values) if v == g_val)
        g_rank = Rank(g_val + 1, 0)
        if g_rank < f_rank:
            entries[s] = StateRank(g_rank, "g", g_val, best)
        else:
            entries[s] = StateRank(f_rank, "f", g_val, best)
    return StateRankTable(pc.root, entries)


def extract_normal(pc: PointedCoalgebra) -> Term:
    """The normal term of a thin pointed coalgebra.

    Minimizes, ranks, then follows the best kind at every state.  A stream
    state's spine has one step per state, so its walk is forced: collect
    the contexts until a state repeats, which closes the lasso.
    Deterministic and invariant under behavioural equivalence of the input.

    States are extracted from an explicit stack: a state is built once every
    state its term mentions is built.  Sides of a lone state sit strictly
    below it, so these demands never loop back.
    """
    _require_thin(pc)
    mpc, _ = minimize(pc)
    table = state_ranks(mpc)
    c = mpc.coalg
    sig = c.sig

    memo: dict[int, Term] = {}
    # Walked spines of stream states: state -> (contexts, start of period).
    lassos: dict[int, tuple[list[ContextElem], int]] = {}

    def walk(cur: int) -> tuple[list[ContextElem], int]:
        steps: list[ContextElem] = []
        seen = {cur: 0}
        while True:
            ((ctx, cur),) = table[cur].spine
            steps.append(ctx)
            if cur in seen:
                return steps, seen[cur]
            seen[cur] = len(steps)

    stack = [mpc.root]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        if table[s].kind == "f":
            need = [x for x in c.transition[s].args if x not in memo]
        else:
            if s not in lassos:
                lassos[s] = walk(s)
            need = [x for ctx in lassos[s][0] for x in ctx.sides if x not in memo]
        if need:
            stack.extend(need)
            continue
        stack.pop()
        if table[s].kind == "f":
            memo[s] = FNode(sig.map_elem(c.transition[s], memo.__getitem__))
        else:
            steps, cut = lassos.pop(s)
            ctxs = tuple(sig.map_ctx(ctx, memo.__getitem__) for ctx in steps)
            memo[s] = GNode(LassoStream(ctxs[:cut], ctxs[cut:]))
    return memo[mpc.root]


def normalize(sig: SignatureSpec, t: Term) -> Term:
    """The normal form of a finitary term: unfold, minimize, extract."""
    return extract_normal(unfold(sig, t).pc)


# -- brute-force oracle ---------------------------------------------------


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as ``parts`` positive summands."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_terms(sig: SignatureSpec, size_bound: int) -> list[Term]:
    """Every canonical term of size at most ``size_bound``, sorted.

    Size counts branching nodes and contexts (see ``term_size``).  Stream
    canonicalization can shrink a candidate below its nominal size; such
    duplicates collapse into their true bucket.
    """
    terms: dict[int, set[Term]] = {n: set() for n in range(size_bound + 1)}
    ctxs: dict[int, set[ContextElem]] = {n: set() for n in range(size_bound + 1)}

    def term_pool(sizes) -> list[list[Term]]:
        return [sorted(terms[n]) for n in sizes]

    for n in range(1, size_bound + 1):
        for op in sig.ops:
            if op.arity == 0:
                if n == 1:
                    terms[n].add(FNode(sig.canonical_tuple(op.id, ())))
                continue
            for sizes in _compositions(n - 1, op.arity):
                for combo in itertools.product(*term_pool(sizes)):
                    terms[n].add(FNode(sig.canonical_tuple(op.id, combo)))
        for op in sig.ops:
            if op.arity == 0:
                continue
            for sizes in _compositions(n - 1, op.arity - 1):
                for combo in itertools.product(*term_pool(sizes)):
                    for hole in range(op.arity):
                        ctxs[n].add(sig.canonical_context(op.id, hole, combo))
        for total_ctx in range(1, n):
            for count in range(1, total_ctx + 1):
                for sizes in _compositions(total_ctx, count):
                    pools = [sorted(ctxs[m]) for m in sizes]
                    for combo in itertools.product(*pools):
                        for plen in range(count):
                            g = GNode(LassoStream(combo[:plen], combo[plen:]))
                            terms[term_size(g)].add(g)
    out: list[Term] = []
    for n in range(size_bound + 1):
        out.extend(terms[n])
    return sorted(set(out))


@functools.lru_cache(maxsize=8)
def _keyed_pool(
    sig: SignatureSpec, size_bound: int
) -> tuple[tuple[Term, Rank, object], ...]:
    pool = enumerate_terms(sig, size_bound)
    return tuple(
        (cand, rank(cand), canonical_key(unfold(sig, cand).pc))
        for cand in pool
    )


def brute_force_normal(sig: SignatureSpec, t: Term, size_bound: int) -> Term:
    """Inductive normality search over all terms up to ``size_bound``.

    A term is normal when every immediate subterm is normal and no normal
    term of strictly smaller rank denotes the same behaviour.  The pool is
    walked in ascending rank order so both conditions only look at already
    decided terms; equal-rank candidates never block each other.  Returns
    the normal member of the input's behaviour class, raising when the bound
    truncates that class or leaves several representatives standing.
    Intended for tiny instances only.
    """
    if term_size(t) > size_bound:
        raise TermError(
            f"term size {term_size(t)} exceeds oracle bound {size_bound}"
        )
    target = canonical_key(unfold(sig, t).pc)
    decided: dict[Term, bool] = {}
    class_floor: dict[object, Rank] = {}
    found: dict[object, list[Term]] = {}
    ordered = sorted(
        _keyed_pool(sig, size_bound), key=lambda row: (row[1], row[0])
    )
    for cand, r, key in ordered:
        floor = class_floor.get(key)
        # subterms rank strictly below their parent, hence decided already
        ok = (floor is None or floor == r) and all(
            decided[sub] for sub in subterms(cand)
        )
        decided[cand] = ok
        if ok:
            class_floor.setdefault(key, r)
            found.setdefault(key, []).append(cand)
    winners = found.get(target, [])
    if not winners:
        raise AssertionError("no normal representative within the size bound")
    if len(winners) > 1:
        raise AssertionError("behaviour class kept several normal candidates")
    return winners[0]
