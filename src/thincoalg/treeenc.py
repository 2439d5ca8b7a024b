"""Word-tree encoding for rigid (polynomial) signatures, and derivative rank.

When every group is trivial, argument positions are rigid and a behaviour is
a prefix-closed set of position words.  ``enc`` computes that set directly
from a term: a branching node contributes the empty word plus its children's
trees shifted by one position letter; a stream node lays its contexts along
the spine of hole directions and glues the side trees off it.  ``dom_tree``
reads the same set from the unfolded coalgebra, so the two must agree at
every depth.

``cb_rank`` measures how often isolated runs must be removed before the
run space stops changing, on any signature: the Cantor-Bendixson rank of
the runs from the root, the root's major in the rank lists that
``thinness._rank_fold`` keeps, the same fold that answers the path census.
For thin inputs this is the major rank of the normal term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coalgebra import PointedCoalgebra
from .errors import SignatureError, TermError
from .semantics import unfold
from .signature import SignatureSpec
from .terms import FNode, Term
from .thinness import _ranks

Word = tuple[int, ...]


@dataclass(frozen=True)
class WordTree:
    """A prefix-closed set of position words, truncated at ``depth``."""

    depth: int
    words: frozenset[Word]

    def __post_init__(self):
        if self.depth < 0:
            raise TermError(f"tree depth must be nonnegative, got {self.depth}")
        if () not in self.words:
            raise ValueError("word tree must contain the empty word")
        for w in self.words:
            if len(w) > self.depth:
                raise ValueError(f"word {w} longer than depth {self.depth}")
            if w and w[:-1] not in self.words:
                raise ValueError(f"word tree not prefix-closed at {w}")


def assert_polynomial(sig: SignatureSpec) -> None:
    """Raise unless every operation has a trivial group."""
    if not sig.is_polynomial:
        raise SignatureError("operation groups must be trivial for tree encoding")


def _layout(sig: SignatureSpec, u: Term, d: int) -> tuple[set[Word], list]:
    """The words ``u`` contributes itself at depth ``d``, and the (prefix,
    subterm, depth) pieces whose trees hang below them."""
    words: set[Word] = {()}
    glue: list[tuple[Word, Term, int]] = []
    if isinstance(u, FNode):
        if d > 0:
            glue = [((i,), child, d - 1) for i, child in enumerate(u.elem.args)]
        return words, glue
    spine: Word = ()
    for n in range(d + 1):
        ctx = u.stream.context_at(n)
        words.add(spine)
        budget = d - n - 1
        if budget >= 0:
            side_iter = iter(ctx.sides)
            for pos in range(sig.arity(ctx.op)):
                if pos != ctx.hole:
                    glue.append((spine + (pos,), next(side_iter), budget))
        spine = spine + (ctx.hole,)
    return words, glue


def enc(sig: SignatureSpec, t: Term, depth: int) -> WordTree:
    """The position-word tree of ``t``, truncated at ``depth``.

    Trees of (subterm, depth) pairs are memoized and built on an explicit
    stack, each once the trees of its pieces are known.
    """
    assert_polynomial(sig)
    memo: dict[tuple[Term, int], frozenset[Word]] = {}
    layouts: dict[tuple[Term, int], tuple[set[Word], list]] = {}
    stack = [(t, depth)]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = _layout(sig, *key)
        words, glue = layout
        missing = [(v, b) for _, v, b in glue if (v, b) not in memo]
        if missing:
            stack.extend(missing)
            continue
        for w, v, b in glue:
            words.update(w + x for x in memo[v, b])
        memo[key] = frozenset(words)
        del layouts[key]
        stack.pop()
    return WordTree(depth, memo[t, depth])


def dom_tree(sig: SignatureSpec, t: Term, depth: int) -> WordTree:
    """The same tree read from the unfolded coalgebra of ``t``."""
    assert_polynomial(sig)
    pc = unfold(sig, t).pc
    c = pc.coalg
    words: set[Word] = set()
    frontier: list[tuple[int, Word]] = [(pc.root, ())]
    while frontier:
        nxt: list[tuple[int, Word]] = []
        for state, w in frontier:
            words.add(w)
            if len(w) < depth:
                for i, child in enumerate(c._row(state)):
                    nxt.append((child, w + (i,)))
        frontier = nxt
    return WordTree(depth, frozenset(words))


def cb_rank(pc: PointedCoalgebra) -> int:
    """Derivative rank of the run space of a thin coalgebra."""
    return _ranks(pc)[0][pc.root]
