"""Operational reading of terms: unfold into a finite pointed coalgebra.

States are the closure of the start terms under branching-node arguments,
stream tails and context sides.  A branching node steps to its own value over
state ids; a stream node steps to its head context plugged with the state of
its tail, canonicalized once as a whole tuple (the head's sides get their
states first, then the tail).  Lassos have finitely many tails, so the
closure is finite and the unfolding of a finitary term is always a finite
coalgebra.  Two terms are compared by refining one table of both
unfoldings, in which the subterms they share are one state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalgebra import Coalgebra, PointedCoalgebra, _refine
from .signature import SignatureSpec
from .terms import FNode, GNode, Term


@dataclass
class UnfoldResult:
    pc: PointedCoalgebra
    node_index: dict[Term, int]


def unfold(sig: SignatureSpec, t: Term) -> UnfoldResult:
    """Build the coalgebra of term positions reachable from ``t``.

    State ids follow discovery order, so the result is deterministic in the
    structure of ``t``.
    """
    coalg, index = _unfold(sig, (t,))
    return UnfoldResult(PointedCoalgebra(coalg, 0), index)


def _unfold(sig: SignatureSpec, roots: tuple[Term, ...]) -> tuple[Coalgebra, dict[Term, int]]:
    # One table of the positions reachable from any root, numbered in
    # discovery order from the roots in turn, and the state of each term.
    index: dict[Term, int] = {}
    queue: list[Term] = []

    def state_of(u: Term) -> int:
        i = index.get(u)
        if i is None:
            i = len(index)
            index[u] = i
            queue.append(u)
        return i

    for t in roots:
        state_of(t)
    transitions = []
    pos = 0
    while pos < len(queue):
        u = queue[pos]
        pos += 1
        if isinstance(u, FNode):
            transitions.append(sig.map_elem(u.elem, state_of))
        else:
            head = u.stream.head()
            row = list(map(state_of, head.sides))
            row.insert(head.hole, state_of(GNode(u.stream.tail())))
            transitions.append(sig.canonical_tuple(head.op, row))
    return Coalgebra(sig, tuple(transitions)), index


def beh_equal_terms(sig: SignatureSpec, a: Term, b: Term) -> bool:
    """Do the two terms unfold to behaviourally equal states?

    Refines their shared unfolding once, over all its states: each one is
    reachable from ``a`` or ``b``, so none is refined in vain.
    """
    coalg, index = _unfold(sig, (a, b))
    block = _refine(coalg, range(coalg.n_states))
    return block[index[a]] == block[index[b]]
