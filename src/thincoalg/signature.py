"""Branching signatures: operation symbols with permutation symmetries.

A signature is a finite list of operation symbols.  Each symbol has an arity
and a permutation group on its argument positions, given by generators.  A
branching value ("element") is an operation symbol applied to a tuple of
arguments, identified up to the group action; a context is such a value with
one argument position replaced by a hole.  Both are stored as canonical orbit
representatives, so structural equality coincides with orbit equality.

The group acts on a tuple by moving the entry at position ``k`` to position
``sigma[k]``.  Contexts carry the restricted action: the hole moves with the
permutation and the remaining entries follow.

Canonical representatives are lexicographic minima over the group, and one
routine, ``_orbit_min``, finds them all: for canonical tuples, for contexts
(with the hole filled by ``_HOLE``, a marker that sorts below every value, so
the hole goes to the first position it can reach) and for refinement keys.
A rigid op's tuple is its own minimum.  When the group is the full symmetric
group on each orbit of positions (bags, and products of those), the values
inside each orbit are sorted; any other group (a rotation of three or more
positions, a dihedral group, ...) takes the least image under its elements.
Groups are still enumerated when the signature is built, which is
exponential in the arity, so arities stay capped (default 8, see
``DEFAULT_ARITY_CAP``).  Argument values must be totally ordered (ints,
strings, terms, nested elements).

Elements and contexts are named tuples ``(op, args)`` and ``(op, hole,
sides)``, so they hash, compare, order and pickle as the tuples they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import SignatureError

DEFAULT_ARITY_CAP = 8

Perm = tuple[int, ...]


def identity_perm(arity: int) -> Perm:
    return tuple(range(arity))


def check_perm(perm: Sequence[int], arity: int) -> Perm:
    """Validate ``perm`` as a bijection on ``range(arity)`` and return it."""
    p = tuple(perm)
    if len(p) != arity or sorted(p) != list(range(arity)):
        raise SignatureError(f"malformed permutation {list(perm)} for arity {arity}")
    return p


def compose_perms(p: Perm, q: Perm) -> Perm:
    """Composition applying ``q`` first: (p . q)[k] = p[q[k]]."""
    return tuple(p[q[k]] for k in range(len(p)))


def invert_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for k, v in enumerate(p):
        inv[v] = k
    return tuple(inv)


def apply_perm(sigma: Perm, values: Sequence) -> tuple:
    """Move the entry at position k to position sigma[k]."""
    out = [None] * len(values)
    for k, v in enumerate(values):
        out[sigma[k]] = v
    return tuple(out)


@dataclass(frozen=True)
class PermGroup:
    """A permutation group on ``range(arity)``, fully enumerated.

    Elements are stored sorted, so iteration order is deterministic.
    """

    arity: int
    elements: tuple[Perm, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1


def enumerate_group(generators: Iterable[Sequence[int]], arity: int) -> PermGroup:
    """Close ``generators`` under composition; worklist closure from identity."""
    gens = [check_perm(g, arity) for g in generators]
    seen = {identity_perm(arity)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose_perms(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return PermGroup(arity, tuple(sorted(seen)))


def position_orbits(generators: Iterable[Perm], arity: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by ``generators`` on ``range(arity)``.

    Union-find over the generator edges ``k -- g[k]``; each orbit is sorted
    and the orbits are ordered by their first position.
    """
    parent = list(range(arity))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for g in generators:
        for k, v in enumerate(g):
            a, b = find(k), find(v)
            if a != b:
                parent[max(a, b)] = min(a, b)
    orbits: dict[int, list[int]] = {}
    for k in range(arity):
        orbits.setdefault(find(k), []).append(k)
    return tuple(tuple(o) for o in orbits.values())


def sortable_orbits(
    generators: Iterable[Perm], group: PermGroup
) -> tuple[tuple[int, ...], ...] | None:
    """The non-singleton orbits when ``group`` is symmetric on each orbit.

    The group lies inside the product of the symmetric groups on its orbits,
    so it is that product exactly when its order is the product of the orbit
    factorials.  Returns ``None`` for any other group.  A trivial group has
    only singleton orbits and gets the empty tuple.
    """
    orbits = position_orbits(generators, group.arity)
    if len(group) != prod(factorial(len(o)) for o in orbits):
        return None
    return tuple(o for o in orbits if len(o) > 1)


@dataclass(frozen=True)
class OperationSymbol:
    """One operation: a name, an arity and the symmetry generators."""

    id: str
    arity: int
    generators: tuple[Perm, ...] = ()


class FElem(NamedTuple):
    """A branching value: op applied to a canonical argument tuple.

    Construct through ``SignatureSpec.canonical_tuple`` so the tuple is the
    orbit minimum; direct construction skips canonicalization.
    """

    op: str
    args: tuple

    def base(self) -> frozenset:
        """The set of argument values."""
        return frozenset(self.args)


class ContextElem(NamedTuple):
    """A branching value with one argument replaced by a hole.

    ``hole`` is the canonical hole position and ``sides`` lists the remaining
    arguments in position order.  Construct through
    ``SignatureSpec.canonical_context``.
    """

    op: str
    hole: int
    sides: tuple

    def base(self) -> frozenset:
        """The set of side values (the hole does not count)."""
        return frozenset(self.sides)


class _Hole:
    """The marker a context's hole holds while it is canonicalized: it sorts
    below every value.  ``__gt__`` answers the reflected comparisons a
    tuple or an element makes against it."""

    def __lt__(self, other) -> bool:
        return other is not self

    def __gt__(self, other) -> bool:
        return False


_HOLE = _Hole()


def _orbit_min(record: tuple, vals: tuple) -> tuple:
    """The least member of the orbit of ``vals`` under the group of the op
    whose ``(arity, orbits, getters)`` record is given: ``vals`` itself for
    a rigid op, else ``vals`` sorted inside each orbit, or its least image."""
    _, orbits, getters = record
    if orbits is not None:
        out = list(vals)
        for orb in orbits:
            for k, v in zip(orb, sorted([vals[k] for k in orb])):
                out[k] = v
        return tuple(out)
    if getters is not None:
        return min([act(vals) for act in getters])
    return vals


class SignatureSpec:
    """A validated signature; each group is enumerated and classified once.

    At build time every operation's group is enumerated and its position
    orbits are taken from the generators.  The op's record holds its arity
    and what ``_orbit_min`` needs: nothing for a trivial group, the orbits to
    sort within for a group symmetric on each orbit, or else one
    precomputed ``itemgetter`` per group element, acting as ``apply_perm``.
    Canonical tuples, canonical contexts (the hole as ``_HOLE``) and
    refinement keys all go through that one routine.

    Raises ``SignatureError`` on duplicate ids, bad permutations, or arities
    above ``arity_cap``.  Two specs are equal when they have the same ops with
    the same arities and the same enumerated groups, regardless of which
    generators were listed.  The equality key and its hash are built once,
    with the signature.
    """

    def __init__(self, ops: Iterable[OperationSymbol], arity_cap: int = DEFAULT_ARITY_CAP):
        self.ops: tuple[OperationSymbol, ...] = tuple(ops)
        self.arity_cap = arity_cap
        self._by_id: dict[str, OperationSymbol] = {}
        self._groups: dict[str, PermGroup] = {}
        # (arity, orbits to sort or None, group getters or None) per op id.
        self._records: dict[str, tuple] = {}
        if not self.ops:
            raise SignatureError("signature needs at least one operation")
        for op in self.ops:
            if op.id in self._by_id:
                raise SignatureError(f"duplicate operation id {op.id!r}")
            if op.arity < 0:
                raise SignatureError(f"negative arity for {op.id!r}")
            if op.arity > arity_cap:
                raise SignatureError(
                    f"arity {op.arity} of {op.id!r} exceeds cap {arity_cap}"
                )
            self._by_id[op.id] = op
            group = enumerate_group(op.generators, op.arity)
            self._groups[op.id] = group
            orbits = sortable_orbits(op.generators, group)
            getters = None
            if orbits is None:
                # Such a group is no product of symmetric groups, so its
                # arity is at least 3 and every getter returns a tuple.
                getters = tuple(itemgetter(*invert_perm(g)) for g in group)
            self._records[op.id] = (op.arity, orbits or None, getters)
        self._eq_key = tuple(
            (o.id, o.arity, self._groups[o.id].elements) for o in self.ops
        )
        # Equal groups have equal orders, so this hash agrees with ==
        # without hashing every element.
        self._hash = hash(tuple((o.id, o.arity, len(self._groups[o.id])) for o in self.ops))

    def __repr__(self) -> str:
        names = ", ".join(f"{o.id}/{o.arity}" for o in self.ops)
        return f"SignatureSpec({names})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SignatureSpec):
            return NotImplemented
        return self._hash == other._hash and self._eq_key == other._eq_key

    def __hash__(self) -> int:
        return self._hash

    def op(self, op_id: str) -> OperationSymbol:
        self._record(op_id)
        return self._by_id[op_id]

    def arity(self, op_id: str) -> int:
        return self.op(op_id).arity

    def group(self, op_id: str) -> PermGroup:
        self.op(op_id)
        return self._groups[op_id]

    @property
    def is_polynomial(self) -> bool:
        """True when every group is trivial, so positions are rigid."""
        return all(g.is_trivial for g in self._groups.values())

    # -- canonical construction ------------------------------------------

    def _record(self, op_id: str) -> tuple:
        # Hot callers try ``self._records.get`` first and come here on a miss.
        try:
            return self._records[op_id]
        except KeyError:
            raise SignatureError(f"unknown operation {op_id!r}") from None

    def canonical_tuple(self, op_id: str, values: Sequence) -> FElem:
        """The orbit-minimal element with the given arguments."""
        record = self._records.get(op_id) or self._record(op_id)
        vals = tuple(values)
        if len(vals) != record[0]:
            raise SignatureError(
                f"{op_id!r} expects {record[0]} arguments, got {len(vals)}"
            )
        if record[1] is None and record[2] is None:
            return FElem(op_id, vals)
        return FElem(op_id, _orbit_min(record, vals))

    def canonical_context(self, op_id: str, hole: int, sides: Sequence) -> ContextElem:
        """The orbit-minimal context with the hole at ``hole``.

        ``sides`` lists the non-hole arguments in position order.  The hole
        sorts below every value, so the canonical hole position is the first
        position it can reach under the group.
        """
        record = self._record(op_id)
        arity = record[0]
        if arity == 0:
            raise SignatureError(f"{op_id!r} has arity 0 and admits no context")
        if not 0 <= hole < arity:
            raise SignatureError(f"hole {hole} out of range for {op_id!r}/{arity}")
        s = tuple(sides)
        if len(s) != arity - 1:
            raise SignatureError(
                f"context over {op_id!r} expects {arity - 1} sides, got {len(s)}"
            )
        full = _orbit_min(record, s[:hole] + (_HOLE,) + s[hole:])
        h = full.index(_HOLE)
        return ContextElem(op_id, h, full[:h] + full[h + 1 :])

    # -- structural operations -------------------------------------------

    def plug(self, ctx: ContextElem, value) -> FElem:
        """Fill the hole of ``ctx`` with ``value``."""
        full = ctx.sides[: ctx.hole] + (value,) + ctx.sides[ctx.hole :]
        return self.canonical_tuple(ctx.op, full)

    def decompositions(self, elem: FElem) -> list[tuple[ContextElem, Any]]:
        """All (context, value) pairs that plug back to ``elem``.

        One pair per orbit, deterministically ordered.
        """
        out = set()
        for u, x in enumerate(elem.args):
            ctx = self.canonical_context(elem.op, u, elem.args[:u] + elem.args[u + 1 :])
            out.add((ctx, x))
        return sorted(out)

    def map_elem(self, elem: FElem, f: Callable) -> FElem:
        """Apply ``f`` to every argument and re-canonicalize."""
        return self.canonical_tuple(elem.op, tuple(f(x) for x in elem.args))

    def map_ctx(self, ctx: ContextElem, f: Callable) -> ContextElem:
        """Apply ``f`` to every side value and re-canonicalize."""
        return self.canonical_context(ctx.op, ctx.hole, tuple(f(x) for x in ctx.sides))
