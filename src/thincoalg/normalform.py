"""Normal forms: least-rank terms denoting a given thin behaviour.

``state_ranks`` reports, per reachable state of a thin coalgebra, the least
rank of any term unfolding to that state's behaviour, together with which node
kind attains it.  Both come from the rank lists that ``thinness._rank_fold``
keeps on the pointed coalgebra; its docstring states the rules, and why every
stream state has exactly one spine step.

``extract_normal`` reads the term off those kept lists, by induction on
rank: an ``"f"`` state's term is the canonical tuple of its successors'
terms, and a ``"g"`` state's term is its forced spine, walked until a state
repeats, with the sides replaced by their terms.  Each step depends only on
behaviours, terms are hash-consed, and ``LassoStream`` keeps the period
primitive and the prefix shortest, so equal behaviours extract the same term
from any presentation, minimal or not.
``brute_force_normal`` is the independent oracle: enumerate every candidate
term up to a size bound and replay the inductive definition of normality
over the pool.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .coalgebra import PointedCoalgebra, canonical_key
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
from .thinness import _ranks, _thin_components


@dataclass(frozen=True, slots=True)
class StateRank:
    """Rank data for one state: its least term rank, the kind "f" or "g"
    that attains it, and its ``g_value`` and ``spine`` (see
    ``thinness._rank_fold``); extraction takes the spine step."""

    rank: Rank
    kind: str
    g_value: int | None = None
    spine: int | None = None


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

    Built on each call, in component order, from the rank lists kept on
    ``pc`` (see ``thinness._rank_fold``), so the caller may change the
    table freely.  Raises ``NonThinError`` on non-thin input.
    """
    major, minor, g_value, spine, _ = _ranks(pc)
    entries = {}
    for members in _thin_components(pc)[2]:
        for s in members:
            u = spine[s]
            kind = "f" if u is None else "g"
            entries[s] = StateRank(Rank(major[s], minor[s]), kind, g_value[s], u)
    return StateRankTable(pc.root, entries)


def extract_normal(pc: PointedCoalgebra) -> Term:
    """The normal term of a thin pointed coalgebra.

    Reads the spine steps kept on the input (see ``thinness._rank_fold``),
    then follows the best kind at every state.  A stream state's spine has
    one step per state, so its walk is forced: follow the spine positions
    until a state repeats, which closes the lasso, and build each context
    once, over the terms of its sides.  Deterministic, and the same term object for
    behaviourally equivalent inputs.

    States are extracted from an explicit stack: a state is built once every
    state its term mentions is built.  Sides of a lone state sit strictly
    below it, so these demands never loop back.
    """
    spine = _ranks(pc)[3]
    c = pc.coalg
    sig, ops, ids = c.sig, c.ops, [op.id for op in c.sig.ops]
    offs, flat = c.offs.tolist(), c.flat.tolist()

    def row(w: int) -> list[int]:
        return flat[offs[w] : offs[w + 1]]

    def sides(w: int) -> list[int]:
        u = spine[w]
        return flat[offs[w] : offs[w] + u] + flat[offs[w] + u + 1 : offs[w + 1]]

    memo: dict[int, Term] = {}
    # Walked spines of stream states: state -> (states walked, start of period).
    lassos: dict[int, tuple[list[int], int]] = {}
    stack = [pc.root]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        if spine[s] is None:
            need = [x for x in row(s) if x not in memo]
        else:
            if s not in lassos:
                walked, seen, cur = [], {}, s
                while cur not in seen:
                    seen[cur] = len(walked)
                    walked.append(cur)
                    cur = flat[offs[cur] + spine[cur]]
                lassos[s] = walked, seen[cur]
            need = [x for w in lassos[s][0] for x in sides(w) if x not in memo]
        if need:
            stack.extend(need)
            continue
        stack.pop()
        if spine[s] is None:
            memo[s] = FNode(sig.canonical_tuple(ids[ops[s]], map(memo.__getitem__, row(s))))
        else:
            walked, cut = lassos.pop(s)
            ctxs = tuple(
                sig.canonical_context(ids[ops[w]], spine[w], [memo[x] for x in sides(w)])
                for w in walked
            )
            memo[s] = GNode(LassoStream(ctxs[:cut], ctxs[cut:]))
    return memo[pc.root]


def normalize(sig: SignatureSpec, t: Term) -> Term:
    """The normal form of a finitary term: unfold, rank, extract."""
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
