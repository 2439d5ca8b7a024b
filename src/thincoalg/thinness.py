"""Thinness: does a pointed coalgebra carry only countably many infinite paths?

A finite pointed coalgebra is thin exactly when every reachable nontrivial
strongly connected component is a plain loop: each member has exactly one
successor edge (counted with multiplicity) staying inside the component.  Any
state with two in-component edges yields two cycles that differ at their first
step, hence neither is a prefix of the other, and strong connectivity pumps
that divergence into uncountably many infinite paths.

``_thin_components`` is the one analysis of the reachable condensation: it
builds the offset/flat adjacency once, finds the components by one path-based
search (Gabow 2000) in reverse topological order, and flags each component
that is a loop while it counts in-component edges, stopping at the first
offender.  It is computed once per pointed coalgebra and kept on the object
(see ``PointedCoalgebra``).  ``is_thin`` builds the witness from it.  Behind
the ``_require_thin`` guard, one fold, ``_rank_fold`` (whose docstring
states the rules), gives each reachable state its least term rank, spine
step and run count.  Kept on the object too, it answers the census
(``count_infinite_paths_class``), ``treeenc.cb_rank``, ``state_ranks`` and
``extract_normal``.  All of it runs in time linear in states plus edges; the
analysis and witness pause the collector (``coalgebra._collector_paused``).

The witness is a shortest access path from the root to the offender and two
cycles through it, each closed along a shortest in-component route back.  Both
come from BFS trees that stop as soon as the states they need are reached:
the access search at the offender, the reverse search (over per-target source
lists filled in one pass over the component) at the offender's two
in-component successors.  A BFS never reassigns a parent, so the stops change
how much is searched, never which path is returned.

``oracle_is_thin`` is the definitional cross-check: enumerate bounded cycles
through every state and test pairwise prefix-comparability.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

from .coalgebra import (
    Coalgebra,
    FinitePath,
    PointedCoalgebra,
    _collector_paused,
    _csr,
    _memo,
    _scc_csr,
    cycles_through,
    reachable_states,
)
from .errors import NonThinError


@dataclass(frozen=True)
class ThinWitness:
    """Evidence of non-thinness: two incomparable cycles through one state,
    plus an access path from the root to that state."""

    access: FinitePath
    cycle1: FinitePath
    cycle2: FinitePath


@dataclass(frozen=True)
class ThinVerdict:
    thin: bool
    witness: Optional[ThinWitness] = None


def _bfs_until(nbrs, source: int, n: int, targets) -> list[int]:
    """BFS parent list from ``source``, stopped once every target is reached.

    ``nbrs(s)`` lists the neighbours of ``s`` in search order; -1 marks
    states not reached before the stop.  A parent is never reassigned, so
    each path the list holds is the one a complete BFS tree would hold.
    """
    par = [-1] * n
    par[source] = source
    pending = set(targets)
    pending.discard(source)
    if not pending:
        return par
    queue = [source]
    for s in queue:
        for t in nbrs(s):
            if par[t] == -1:
                par[t] = s
                queue.append(t)
                if t in pending:
                    pending.remove(t)
                    if not pending:
                        return par
    return par


def _walk(par, source: int, target: int) -> tuple[int, ...]:
    states = [target]
    while states[-1] != source:
        states.append(par[states[-1]])
    states.reverse()
    return tuple(states)


@_collector_paused()
def _witness(
    c: Coalgebra,
    offs: array,
    flat: array,
    root: int,
    offender: int,
    comp_members: tuple[int, ...],
) -> ThinWitness:
    n = c.n_states
    mem = bytearray(n)
    for s in comp_members:
        mem[s] = 1
    in_pairs = [p for p in c.successors(offender) if mem[p[0]]]
    (t1, k1), (t2, k2) = in_pairs[0], in_pairs[1]

    # A shortest path from the root, by a forward BFS stopped at the offender.
    def forward(s: int):
        return flat[offs[s] : offs[s + 1]]

    access = _walk(_bfs_until(forward, root, n, (offender,)), root, offender)

    # Shortest in-component routes from t1 and t2 back to the offender: a
    # reverse BFS over the component's internal edges, stopped once both are
    # reached.  One pass over the members in order fills a source list per
    # target, so each list holds its sources in member order.  Edges leaving
    # the component land in lists the search never reads: it starts inside
    # the component and every source it meets is a member.
    rev: list[list[int]] = [[] for _ in range(n)]
    for s in comp_members:
        for t in flat[offs[s] : offs[s + 1]]:
            rev[t].append(s)
    back = _bfs_until(rev.__getitem__, offender, n, (t1, t2))

    def close(t: int, k: int) -> FinitePath:
        states = _walk(back, offender, t)[::-1]
        return FinitePath((offender, *states), (k,) + (0,) * (len(states) - 1))

    return ThinWitness(
        access=FinitePath(access, (0,) * (len(access) - 1)),
        cycle1=close(t1, k1),
        cycle2=close(t2, k2),
    )


def _thin_components(pc: PointedCoalgebra):
    """Reachable components, their loop flags, and the first state that
    breaks thinness.

    Returns ``(offs, flat, comps, comp, looped, offender)``: the offset/flat
    adjacency, the components in emission order with the component id per
    state (see ``_scc_csr``), one byte per component that is 1 when some
    member keeps an edge inside it, and ``(state, component index)`` of the
    first state in emission order with two edges inside its component, or
    ``None`` when the coalgebra is thin.  Loop flags are complete only when
    the coalgebra is thin.  Only the witness reads the adjacency, so
    ``offs`` and ``flat`` are ``None`` when there is no offender.

    Kept on ``pc`` (see ``PointedCoalgebra``).
    """
    return _memo(pc, "_thin", _analyse)


@_collector_paused()
def _analyse(pc: PointedCoalgebra):
    c = pc.coalg
    offs, flat = _csr(c)
    comps, comp = _scc_csr(offs, flat, [pc.root], c.n_states)
    looped = bytearray(len(comps))
    for ci, members in enumerate(comps):
        # A component passes when every member keeps at most one edge inside
        # it; strong connectivity then forces a plain loop or a lone state.
        for s in members:
            k = 0
            for t in c.transition[s].args:
                if comp[t] == ci:
                    k += 1
            if k >= 2:
                return offs, flat, comps, comp, looped, (s, ci)
            if k:
                looped[ci] = 1
    return None, None, comps, comp, looped, None


def _require_thin(pc: PointedCoalgebra):
    """``(comps, comp, looped)`` of a thin coalgebra (see ``_thin_components``).

    Raises ``NonThinError`` carrying the verdict ``is_thin`` returns.
    """
    offs, flat, comps, comp, looped, offender = _thin_components(pc)
    if offender is not None:
        s, ci = offender
        witness = _witness(pc.coalg, offs, flat, pc.root, s, comps[ci])
        raise NonThinError(ThinVerdict(False, witness))
    return comps, comp, looped


def is_thin(pc: PointedCoalgebra) -> ThinVerdict:
    """Linear-time thinness check with a witness on failure.

    The witness names the first offending state in component emission order.
    """
    try:
        _require_thin(pc)
    except NonThinError as exc:
        return exc.verdict
    return ThinVerdict(True, None)


def oracle_is_thin(pc: PointedCoalgebra, maxlen: int) -> bool:
    """Definitional check: are all bounded cycles through each state
    pairwise prefix-comparable?

    Exact when ``maxlen >= 2 * n_states``: an incomparable pair, when one
    exists, exists already among cycles no longer than twice the state count.
    The first incomparable pair answers, so the cycles kept form a prefix
    chain of at most ``maxlen``; as every prefix ``cycles_through`` walks
    extends to a cycle, the work is polynomial in ``maxlen`` and out-degree.
    """
    c = pc.coalg
    for s in reachable_states(c, pc.root):
        kept: list[FinitePath] = []
        for a in cycles_through(c, s, maxlen):
            if not all(a.is_prefix_of(b) or b.is_prefix_of(a) for b in kept):
                return False
            kept.append(a)
    return True


@dataclass(frozen=True)
class PathClassCount:
    """How many infinite paths start at the root.

    ``kind`` is one of "zero", "finite", "countably-infinite", "uncountable";
    ``count`` is set only for "finite".
    """

    kind: str
    count: Optional[int] = None


def _ranks(pc: PointedCoalgebra):
    """The lists of ``_rank_fold``, kept on ``pc`` (see
    ``PointedCoalgebra``)."""
    return _memo(pc, "_ranks", _rank_fold)


def _rank_fold(pc: PointedCoalgebra):
    """Per-state lists ``(major, minor, g_value, spine, runs)`` of a thin
    coalgebra, filled at its reachable states.

    ``(major, minor)`` is the least rank of a term unfolding to the state's
    behaviour.  ``g_value``, set at every state that reaches a cycle, is the
    least value of a stream node there.  ``spine`` is set at the states a
    stream node attains (kind ``"g"``; the rest are ``"f"``): the position
    of its one spine step.  ``runs`` counts the infinite runs from the
    state up to major 1 and is 0 above, where they are countably many.
    One fold over ``_require_thin``'s components, in reverse topological
    order:

    * A loop member takes a stream node along the loop, the only spine that
      names no same-component state as a side: its value is the largest
      major among the loop's exits, its major one more, its spine step the
      one position staying in the component.  It carries one run at major 1.
    * A lone state compares the branching candidate (largest successor
      major, one more than the largest successor minor) with the stream
      candidate ``(1 + g, 0)``.  Each position ``u`` whose successor has a
      value scores the larger of that value and the largest major at the
      other positions (from the top two majors, duplicates counted); ``g``
      is the least score, its first position the spine step.  Its runs are
      its successors' runs summed.

    Every ``"g"`` state has exactly one spine step: a loop member by
    thinness, and a lone one of value ``k`` because ``k + 1`` is at most its
    branching major (stream minor 0, branching minor at least 1).  The other
    positions of a best step have major at most ``k``, so its successor
    ``x`` is the only one of major above ``k``: exactly one position attains
    ``k``, and ``x`` is ``"g"`` of value ``k`` in turn (an ``"f"`` state of
    value at most ``k`` has major at most ``k``).  A spine walk meets no
    choice.  So a lone state of either kind takes the largest major of its
    successors, and ``major`` is also the Cantor-Bendixson rank of the run
    space.
    """
    comps, comp, looped = _require_thin(pc)
    trans = pc.coalg.transition
    n = len(trans)
    major, minor, runs = [0] * n, [0] * n, [0] * n
    g_value, spine = [None] * n, [None] * n
    for ci, members in enumerate(comps):
        if looped[ci]:
            outside = 0
            for s in members:
                for t in trans[s].args:
                    if comp[t] != ci and major[t] > outside:
                        outside = major[t]
            for s in members:
                args = trans[s].args
                u = 0
                while comp[args[u]] != ci:
                    u += 1
                major[s], g_value[s], spine[s] = outside + 1, outside, u
                runs[s] = 0 if outside else 1
            continue

        (s,) = members
        args = trans[s].args
        if not args:
            minor[s] = 1
            continue
        top = second = low = k = 0
        for t in args:
            m = major[t]
            if m > top:
                top, second = m, top
            elif m > second:
                second = m
            if minor[t] > low:
                low = minor[t]
            k += runs[t]
        g = best = None
        for u, t in enumerate(args):
            v = g_value[t]
            if v is not None:
                score = max(v, second if major[t] == top else top)
                if g is None or score < g:
                    g, best = score, u
        g_value[s], runs[s] = g, k if top <= 1 else 0
        if g is not None and g < top:  # (1 + g, 0) is below (top, 1 + low)
            major[s], spine[s] = g + 1, best
        else:
            major[s], minor[s] = top, low + 1
    return major, minor, g_value, spine, runs


def count_infinite_paths_class(pc: PointedCoalgebra) -> PathClassCount:
    """Classify the number of infinite paths from the root.

    A non-thin coalgebra has uncountably many, read off the kept analysis
    without a witness.  Otherwise the rank of the run space, the root's
    major (see ``_rank_fold``), settles the class: none at rank 0, finitely
    many at rank 1, countably many above.
    """
    if _thin_components(pc)[5] is not None:
        return PathClassCount("uncountable")
    major, _, _, _, runs = _ranks(pc)
    r = major[pc.root]
    if r == 0:
        return PathClassCount("zero")
    if r == 1:
        return PathClassCount("finite", runs[pc.root])
    return PathClassCount("countably-infinite")
