"""Finitary terms: finite branching nodes and ultimately periodic stream nodes.

A term is either an ``FNode``, one branching value whose arguments are terms,
or a ``GNode``, an infinite stream of contexts represented as a lasso (finite
prefix plus repeated period).  Lassos are kept canonical: the period is
primitive (not a power of a shorter word) and the prefix is shortest under the
rotation alignment, so two lassos are structurally equal exactly when they
denote the same stream.

Terms are hash-consed (Filliâtre & Conchon, "Type-safe modular hash-consing",
ML 2006).  ``FNode``, ``GNode`` and ``LassoStream`` values live in weak unique
tables keyed by their element, stream or contexts, whose terms compare by
identity, looked up after canonicalization.  Two structurally equal terms
are therefore the same object: ``==`` is identity and ``hash`` is read from
the node, both O(1).  The hash keeps the value the structural hash always
had, and size, depth and rank are computed bottom-up when a node is built.
A term nobody holds leaves its table.  Terms are immutable.

Terms are totally ordered: branching nodes before stream nodes, then by op
id and arguments, or by the prefix and period contexts, lexicographically.
``term_compare`` follows the first difference of two terms down one node
pair at a time, without recursion, so any depth compares.

Ranks order terms by how their stream nodes nest.  The major component counts
stream depth (a stream node is one more than the largest major among the side
terms it mentions), the minor counts branching layers above the nearest stream
node, and pairs compare lexicographically.

The two rewrite directions relate a stream node to its one-step unfolding:
``unfold_step`` plugs the tail stream into the head context; a fold candidate
reverses this at any decomposition whose value is a stream node.  Both
preserve the denoted behaviour.

Every walk over a term here and in the modules built on it runs on an
explicit stack, so term depth is limited by memory only.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from threading import RLock
from typing import Iterator
from weakref import ref

from .errors import TermError
from .signature import ContextElem, FElem, SignatureSpec


class Term:
    """Base class; concrete terms are FNode or GNode.

    Each node carries its structural hash, rank, size and depth, filled in
    once when the node is built.
    """

    __slots__ = ("_hash", "_major", "_minor", "_size", "_depth", "__weakref__")

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __lt__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return term_compare(self, other) < 0

    def __le__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return term_compare(self, other) <= 0

    def __gt__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return term_compare(self, other) > 0

    def __ge__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return term_compare(self, other) >= 0


def _primitive_root(word: tuple) -> tuple:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[: d] * (n // d):
            return word[:d]
    raise AssertionError("unreachable")


class _Entry(ref):
    """A unique table's weak reference to its value, carrying its key."""

    __slots__ = ("key",)


class _UniqueTable:
    """The one live value built for each key, held weakly: an entry leaves
    the table when its value dies.

    ``weakref.WeakValueDictionary`` does the same, but builds each entry in
    Python code, which made building a new node about twice as slow.
    """

    __slots__ = ("entries", "_gone")

    def __init__(self) -> None:
        entries: dict = {}

        def gone(entry: _Entry) -> None:
            if entries.get(entry.key) is entry:
                del entries[entry.key]

        self.entries = entries
        self._gone = gone

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key):
        entry = self.entries.get(key)
        return None if entry is None else entry()

    def add(self, key, value) -> None:
        entry = _Entry(value, self._gone)
        entry.key = key
        self.entries[key] = entry


# Unique tables.  Keys hold the children themselves, whose equality is
# identity and whose hash is cached, so a lookup costs the node's own width.
# A lookup and the insert after a miss happen under one lock, so threads
# building equal terms at once still get one object.
_FNODES = _UniqueTable()
_GNODES = _UniqueTable()
_STREAMS = _UniqueTable()
_TABLES_LOCK = RLock()


class LassoStream:
    """An ultimately periodic stream of contexts, canonicalized on build.

    Equal streams have equal fields and are the same object.
    """

    __slots__ = ("prefix", "period", "_hash", "__weakref__")

    def __new__(cls, prefix, period) -> "LassoStream":
        prefix = tuple(prefix)
        period = tuple(period)
        if not period:
            raise TermError("stream period must be nonempty")
        period = _primitive_root(period)
        # Absorb prefix entries into the rotated period while they match.
        while prefix and prefix[-1] == period[-1]:
            prefix = prefix[:-1]
            period = period[-1:] + period[:-1]
        key = (prefix, period)
        with _TABLES_LOCK:
            got = _STREAMS.get(key)
            if got is None:
                got = object.__new__(cls)
                _set_prefix(got, key[0])
                _set_period(got, key[1])
                _set_lasso_hash(got, hash(key))
                _STREAMS.add(key, got)
        return got

    __hash__ = Term.__hash__
    __setattr__ = Term.__setattr__
    __delattr__ = Term.__delattr__

    def __reduce__(self):
        return LassoStream, (self.prefix, self.period)

    def __repr__(self) -> str:
        return f"LassoStream(prefix={self.prefix!r}, period={self.period!r})"

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


class FNode(Term):
    """A branching node: one value whose arguments are terms."""

    __slots__ = ("elem",)

    def __new__(cls, elem: FElem) -> "FNode":
        with _TABLES_LOCK:
            node = _FNODES.get(elem)
            if node is None:
                node = object.__new__(cls)
                major = minor = size = depth = 0
                for a in elem.args:
                    major = max(major, a._major)
                    minor = max(minor, a._minor)
                    size += a._size
                    depth = max(depth, a._depth)
                _set_elem(node, elem)
                # hash((elem,)) is the hash FNode had as a one-field dataclass.
                _fill(node, hash((elem,)), major, minor + 1, size + 1, depth + 1)
                _FNODES.add(elem, node)
        return node

    def __reduce__(self):
        return FNode, (self.elem,)

    def __repr__(self) -> str:
        return f"FNode(elem={self.elem!r})"


class GNode(Term):
    """A stream node: a lasso of contexts."""

    __slots__ = ("stream",)

    def __new__(cls, stream: LassoStream) -> "GNode":
        with _TABLES_LOCK:
            node = _GNODES.get(stream)
            if node is None:
                node = object.__new__(cls)
                major = depth = 0
                size = 1
                for ctx in stream.prefix + stream.period:
                    size += 1
                    for s in ctx.sides:
                        major = max(major, s._major)
                        size += s._size
                        depth = max(depth, s._depth)
                _set_stream(node, stream)
                _fill(node, hash((stream,)), major + 1, 0, size, depth + 1)
                _GNODES.add(stream, node)
        return node

    def __reduce__(self):
        return GNode, (self.stream,)

    def __repr__(self) -> str:
        return f"GNode(stream={self.stream!r})"


# Slot setters: terms and lassos refuse attribute assignment once built.
_set_prefix = LassoStream.prefix.__set__
_set_period = LassoStream.period.__set__
_set_lasso_hash = LassoStream._hash.__set__
_set_elem = FNode.elem.__set__
_set_stream = GNode.stream.__set__
_set_hash = Term._hash.__set__
_set_major = Term._major.__set__
_set_minor = Term._minor.__set__
_set_size = Term._size.__set__
_set_depth = Term._depth.__set__


def _fill(node: Term, h: int, major: int, minor: int, size: int, depth: int) -> None:
    _set_hash(node, h)
    _set_major(node, major)
    _set_minor(node, minor)
    _set_size(node, size)
    _set_depth(node, depth)


def _lasso_divergence(sa: LassoStream, sb: LassoStream) -> tuple[int, tuple, tuple]:
    """Where two lassos first differ, prefix before period.

    Either a verdict (-1 or 1) with empty sides, or 0 with the side tuples of
    the first unequal contexts that share op and hole.  Equal lassos give 0
    with empty sides.
    """
    for xs, ys in ((sa.prefix, sb.prefix), (sa.period, sb.period)):
        for ca, cb in zip(xs, ys):
            if ca is not cb and ca != cb:
                if ca.op != cb.op:
                    return (-1 if ca.op < cb.op else 1), (), ()
                if ca.hole != cb.hole:
                    return (-1 if ca.hole < cb.hole else 1), (), ()
                return 0, ca.sides, cb.sides
        if len(xs) != len(ys):
            return (-1 if len(xs) < len(ys) else 1), (), ()
    return 0, (), ()


def term_compare(a: Term, b: Term) -> int:
    """Total order: FNode before GNode, then op id, then arguments.

    The order compares the nested key ``(0, (op, arg keys))`` of a branching
    node and ``(1, (prefix keys, period keys))`` of a stream node, where a
    context's key is ``(op, hole, side keys)``, as tuples.  Only the first
    differing pair of subterms decides, so the walk descends one pair at a
    time and needs no stack.
    """
    while a is not b:
        if isinstance(a, FNode):
            if not isinstance(b, FNode):
                return -1
            ea, eb = a.elem, b.elem
            if ea.op != eb.op:
                return -1 if ea.op < eb.op else 1
            xs, ys = ea.args, eb.args
        elif isinstance(b, FNode):
            return 1
        else:
            verdict, xs, ys = _lasso_divergence(a.stream, b.stream)
            if verdict:
                return verdict
        for x, y in zip(xs, ys):
            if x is not y and x != y:
                break
        else:
            return (len(xs) > len(ys)) - (len(xs) < len(ys))
        if not (isinstance(x, Term) and isinstance(y, Term)):
            return -1 if x < y else 1
        a, b = x, y
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


@dataclass(frozen=True, order=True, slots=True)
class Rank:
    major: int
    minor: int


def rank(t: Term) -> Rank:
    """Lexicographic rank; finite for every finitary term."""
    return Rank(t._major, t._minor)


def term_size(t: Term) -> int:
    """Node count: one per FNode, one per context of a GNode, recursively."""
    return t._size


def term_depth(t: Term) -> int:
    """Nesting depth: one per term node on the longest root-to-leaf chain."""
    return t._depth


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
    then period).  Depth first, children in order.
    """
    stack: list[tuple[Path, Term]] = [((), t)]
    while stack:
        path, u = stack.pop()
        yield path, u
        if isinstance(u, FNode):
            kids = [(path + (("f", i),), c) for i, c in enumerate(u.elem.args)]
        else:
            ctxs = u.stream.prefix + u.stream.period
            kids = [
                (path + (("g", n, j),), s)
                for n, ctx in enumerate(ctxs)
                for j, s in enumerate(ctx.sides)
            ]
        stack.extend(reversed(kids))


def replace_at(sig: SignatureSpec, t: Term, path: Path, new: Term) -> Term:
    """Rebuild ``t`` with the subterm at ``path`` replaced by ``new``.

    Containers re-canonicalize on the way up, so the path must address the
    canonical layout of ``t`` (as produced by ``positions``).
    """
    spine: list[Term] = []
    for step in path:
        spine.append(t)
        if step[0] == "f":
            if not isinstance(t, FNode):
                raise TermError("path step 'f' into a stream node")
            t = t.elem.args[step[1]]
        else:
            if not isinstance(t, GNode):
                raise TermError("path step 'g' into a branching node")
            _, n, j = step
            t = (t.stream.prefix + t.stream.period)[n].sides[j]
    for step, u in zip(reversed(path), reversed(spine)):
        if step[0] == "f":
            args = list(u.elem.args)
            args[step[1]] = new
            new = FNode(sig.canonical_tuple(u.elem.op, args))
            continue
        _, n, j = step
        ctxs = list(u.stream.prefix + u.stream.period)
        ctx = ctxs[n]
        sides = list(ctx.sides)
        sides[j] = new
        ctxs[n] = sig.canonical_context(ctx.op, ctx.hole, sides)
        cut = len(u.stream.prefix)
        new = GNode(LassoStream(tuple(ctxs[:cut]), tuple(ctxs[cut:])))
    return new


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
