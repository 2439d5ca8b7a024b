"""Operational reading of terms: unfold into a finite pointed coalgebra.

States are the closure of the start term under branching-node arguments,
stream tails and context sides.  A branching node steps to its own value over
state ids; a stream node steps to its head context plugged with the state of
its tail.  Lassos have finitely many tails, so the closure is finite and the
unfolding of a finitary term is always a finite coalgebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalgebra import Coalgebra, PointedCoalgebra, beh_equal
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
    index: dict[Term, int] = {t: 0}
    queue: list[Term] = [t]

    def state_of(u: Term) -> int:
        i = index.get(u)
        if i is None:
            i = len(index)
            index[u] = i
            queue.append(u)
        return i

    transitions = []
    pos = 0
    while pos < len(queue):
        u = queue[pos]
        pos += 1
        if isinstance(u, FNode):
            transitions.append(sig.map_elem(u.elem, state_of))
        else:
            stream = u.stream
            head = sig.map_ctx(stream.head(), state_of)
            transitions.append(sig.plug(head, state_of(GNode(stream.tail()))))
    coalg = Coalgebra(sig, tuple(transitions))
    return UnfoldResult(PointedCoalgebra(coalg, 0), index)


def beh_equal_terms(sig: SignatureSpec, a: Term, b: Term) -> bool:
    """Do the two terms unfold to behaviourally equal states?"""
    return beh_equal(unfold(sig, a).pc, unfold(sig, b).pc)
