"""Finitary terms: finite branching nodes and ultimately periodic stream nodes.

A term is either an ``FNode``, one branching value whose arguments are terms,
or a ``GNode``, an infinite stream of contexts represented as a lasso (finite
prefix plus repeated period).  Lassos are kept canonical: the period is
primitive (not a power of a shorter word) and the prefix is shortest under the
rotation alignment, so two lassos are structurally equal exactly when they
denote the same stream.

Ranks order terms by how their stream nodes nest.  The major component counts
stream depth (a stream node is one more than the largest major among the side
terms it mentions), the minor counts branching layers above the nearest stream
node, and pairs compare lexicographically.

The two rewrite directions relate a stream node to its one-step unfolding:
``unfold_step`` plugs the tail stream into the head context; a fold candidate
reverses this at any decomposition whose value is a stream node.  Both
preserve the denoted behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import TermError
from .signature import ContextElem, FElem, SignatureSpec


class Term:
    """Base class; concrete terms are FNode or GNode."""

    sort_key: tuple

    def __lt__(self, other: "Term") -> bool:
        return self.sort_key < other.sort_key


def _primitive_root(word: tuple) -> tuple:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[: d] * (n // d):
            return word[:d]
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class LassoStream:
    """An ultimately periodic stream of contexts, canonicalized on build.

    Equal streams have equal fields, so dataclass equality is stream
    equality.
    """

    prefix: tuple[ContextElem, ...]
    period: tuple[ContextElem, ...]

    def __post_init__(self):
        prefix = tuple(self.prefix)
        period = tuple(self.period)
        if not period:
            raise TermError("stream period must be nonempty")
        period = _primitive_root(period)
        # Absorb prefix entries into the rotated period while they match.
        while prefix and prefix[-1] == period[-1]:
            prefix = prefix[:-1]
            period = period[-1:] + period[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    @cached_property
    def sort_key(self):
        return (
            tuple(c.sort_key for c in self.prefix),
            tuple(c.sort_key for c in self.period),
        )

    def head(self) -> ContextElem:
        return self.prefix[0] if self.prefix else self.period[0]

    def tail(self) -> "LassoStream":
        if self.prefix:
            return LassoStream(self.prefix[1:], self.period)
        return LassoStream((), self.period[1:] + self.period[:1])

    def context_at(self, n: int) -> ContextElem:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def expand(self, n: int) -> tuple[ContextElem, ...]:
        """The first ``n`` contexts of the stream."""
        return tuple(self.context_at(i) for i in range(n))


@dataclass(frozen=True)
class FNode(Term):
    elem: FElem

    @cached_property
    def sort_key(self):
        return (0, self.elem.sort_key)


@dataclass(frozen=True)
class GNode(Term):
    stream: LassoStream

    @cached_property
    def sort_key(self):
        return (1, self.stream.sort_key)


def term_compare(a: Term, b: Term) -> int:
    """Total order: FNode before GNode, then op id, then arguments."""
    ka, kb = a.sort_key, b.sort_key
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def subterms(t: Term) -> frozenset[Term]:
    """Immediate subterms: tuple entries of an FNode, side values of every
    context of a GNode's lasso."""
    if isinstance(t, FNode):
        return t.elem.base()
    out: set[Term] = set()
    for ctx in t.stream.prefix + t.stream.period:
        out.update(ctx.base())
    return frozenset(out)


@dataclass(frozen=True, order=True)
class Rank:
    major: int
    minor: int


def rank(t: Term) -> Rank:
    """Lexicographic rank; finite for every finitary term."""
    memo: dict[Term, Rank] = {}

    def go(u: Term) -> Rank:
        r = memo.get(u)
        if r is not None:
            return r
        subs = [go(v) for v in subterms(u)]
        if isinstance(u, FNode):
            major = max((s.major for s in subs), default=0)
            minor = 1 + max((s.minor for s in subs), default=0)
        else:
            major = 1 + max((s.major for s in subs), default=0)
            minor = 0
        r = Rank(major, minor)
        memo[u] = r
        return r

    return go(t)


def term_size(t: Term) -> int:
    """Node count: one per FNode, one per context of a GNode, recursively."""
    if isinstance(t, FNode):
        return 1 + sum(term_size(c) for c in t.elem.args)
    total = 1
    for ctx in t.stream.prefix + t.stream.period:
        total += 1 + sum(term_size(s) for s in ctx.sides)
    return total


# -- coherence rewrites ---------------------------------------------------


def unfold_step(sig: SignatureSpec, g: GNode) -> FNode:
    """Expose the head: plug the tail stream into the head context."""
    s = g.stream
    head = s.head()
    return FNode(sig.plug(head, GNode(s.tail())))


def fold_candidates(sig: SignatureSpec, f: FNode) -> list[GNode]:
    """All stream nodes whose one-step unfolding is ``f``.

    One candidate per decomposition of the branching value whose plugged
    value is itself a stream node; possibly empty.
    """
    out = []
    for ctx, x in sig.decompositions(f.elem):
        if isinstance(x, GNode):
            st = x.stream
            out.append(GNode(LassoStream((ctx,) + st.prefix, st.period)))
    return out


# -- positions and in-place rewriting (test and corpus machinery) ---------

Path = tuple

def positions(t: Term) -> Iterator[tuple[Path, Term]]:
    """Every node of ``t`` with its access path, root first.

    Path steps are ("f", i) into argument i of an FNode and
    ("g", n, j) into side j of context n of a GNode lasso (prefix first,
    then period).
    """
    yield (), t
    if isinstance(t, FNode):
        for i, c in enumerate(t.elem.args):
            for p, u in positions(c):
                yield (("f", i),) + p, u
    else:
        ctxs = t.stream.prefix + t.stream.period
        for n, ctx in enumerate(ctxs):
            for j, s in enumerate(ctx.sides):
                for p, u in positions(s):
                    yield (("g", n, j),) + p, u


def replace_at(sig: SignatureSpec, t: Term, path: Path, new: Term) -> Term:
    """Rebuild ``t`` with the subterm at ``path`` replaced by ``new``.

    Containers re-canonicalize on the way up, so the path must address the
    canonical layout of ``t`` (as produced by ``positions``).
    """
    if not path:
        return new
    step, rest = path[0], path[1:]
    if step[0] == "f":
        if not isinstance(t, FNode):
            raise TermError("path step 'f' into a stream node")
        _, i = step
        args = list(t.elem.args)
        args[i] = replace_at(sig, args[i], rest, new)
        return FNode(sig.canonical_tuple(t.elem.op, args))
    _, n, j = step
    if not isinstance(t, GNode):
        raise TermError("path step 'g' into a branching node")
    ctxs = list(t.stream.prefix + t.stream.period)
    ctx = ctxs[n]
    sides = list(ctx.sides)
    sides[j] = replace_at(sig, sides[j], rest, new)
    ctxs[n] = sig.canonical_context(ctx.op, ctx.hole, sides)
    cut = len(t.stream.prefix)
    return GNode(LassoStream(tuple(ctxs[:cut]), tuple(ctxs[cut:])))


def rewrite_actions(sig: SignatureSpec, t: Term) -> list[tuple[Path, str, int]]:
    """All applicable coherence rewrites as (path, direction, choice).

    Direction "unfold" applies at stream nodes (choice is 0); "fold" applies
    at branching nodes once per fold candidate index.
    """
    out: list[tuple[Path, str, int]] = []
    for path, u in positions(t):
        if isinstance(u, GNode):
            out.append((path, "unfold", 0))
        else:
            for i in range(len(fold_candidates(sig, u))):
                out.append((path, "fold", i))
    return out


def apply_rewrite(sig: SignatureSpec, t: Term, action: tuple[Path, str, int]) -> Term:
    path, direction, choice = action
    sub = t
    for step in path:
        if step[0] == "f":
            sub = sub.elem.args[step[1]]
        else:
            _, n, j = step
            sub = (sub.stream.prefix + sub.stream.period)[n].sides[j]
    if direction == "unfold":
        if not isinstance(sub, GNode):
            raise TermError("unfold applies to stream nodes only")
        new = unfold_step(sig, sub)
    else:
        if not isinstance(sub, FNode):
            raise TermError("fold applies to branching nodes only")
        new = fold_candidates(sig, sub)[choice]
    return replace_at(sig, t, path, new)


def random_rewrite(sig: SignatureSpec, t: Term, rng) -> Term:
    """Apply one uniformly chosen coherence rewrite, or return ``t`` when
    none applies (terms without stream nodes admit no rewrite)."""
    actions = rewrite_actions(sig, t)
    if not actions:
        return t
    return apply_rewrite(sig, t, actions[rng.randrange(len(actions))])
