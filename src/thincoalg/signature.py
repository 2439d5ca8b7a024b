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

Canonical representatives are lexicographic minima over the group.  Each op
has one canonicalizer, chosen when the signature is built and kept in its
``OpRecord``; the ``SignatureSpec`` docstring says how it is chosen.  It
serves canonical tuples, contexts (with the hole filled by ``_HOLE``, a
marker that sorts below every value, so the hole goes to the first position
it can reach) and refinement keys.  Only a group that is no product of
symmetric groups is enumerated, and its order is bounded by 8! (every group
on at most 8 positions passes; see ``_ENUMERATION_BOUND``).  Argument values
must be totally ordered (ints, strings, terms, nested elements).

Elements and contexts are named tuples ``(op, args)`` and ``(op, hole,
sides)``, so they hash, compare, order and pickle as the tuples they are.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, pairwise, permutations
from math import factorial, prod
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import SignatureError

# The largest order of a group that is listed when its signature is built:
# one that is no product of symmetric groups.  8! admits every group on at
# most 8 positions.
_ENUMERATION_BOUND = factorial(8)

Perm = tuple[int, ...]


def identity_perm(arity: int) -> Perm:
    return tuple(range(arity))


def check_perm(perm: Sequence[int], arity: int) -> Perm:
    """Validate ``perm`` as a bijection on ``range(arity)`` and return it.

    Every entry must be an ``int`` itself: a float or a bool that equals a
    position is rejected, since it cannot index the tuples it would act on.
    """
    p = tuple(perm)
    if (
        len(p) != arity
        or not all(type(k) is int for k in p)
        or sorted(p) != list(range(arity))
    ):
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


@dataclass(eq=False)
class PermGroup:
    """A permutation group on ``range(arity)``: its generators and its order.

    ``len`` and ``is_trivial`` read the order, so neither enumerates; ``len``
    raises ``OverflowError`` past ``sys.maxsize`` (21!), so the package reads
    ``order``.
    The elements are listed on first use and kept, sorted so iteration order
    is deterministic: straight from the orbits when the group is the full
    symmetric group on each of them (``symmetric_elements``), else by
    closing the generators (``enumerate_group``).  Groups compare by
    identity; ``SignatureSpec`` equality compares the groups themselves.
    """

    arity: int
    generators: tuple[Perm, ...]
    order: int

    def __len__(self) -> int:
        if self.order > sys.maxsize:
            raise OverflowError(f"group order {self.order} exceeds sys.maxsize; read .order")
        return self.order

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        orbits = sortable_orbits(self.generators, self)
        if orbits is not None:
            return symmetric_elements(self.arity, orbits)
        closure = enumerate_group(self.generators, self.arity).elements
        assert len(closure) == self.order, "stabilizer chain and closure disagree"
        return closure


def enumerate_group(generators: Iterable[Sequence[int]], arity: int) -> PermGroup:
    """Close ``generators`` under composition; worklist closure from identity.

    The returned group's order is the size of the closure and its elements
    are the closure itself, so this is the reference the stabilizer chain
    and ``symmetric_elements`` are tested against.
    """
    gens = tuple(check_perm(g, arity) for g in generators)
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
    group = PermGroup(arity, gens, len(seen))
    # Fills the cached property, so the closure is never built again.
    group.elements = tuple(sorted(seen))
    return group


def stabilizer_chain(
    generators: Sequence[Perm], arity: int
) -> tuple[list[int], list[dict[int, Perm]], int]:
    """A base, one transversal per base point, and the order of the group
    generated by ``generators`` (checked permutations of ``range(arity)``).

    Deterministic Schreier-Sims (Sims 1970; Seress, *Permutation Group
    Algorithms*, 2003, ch. 4) on an explicit worklist.  Level ``i`` holds
    strong generators that fix ``base[:i]`` and a transversal: a dict from
    each point of the orbit of ``base[i]`` under them to a product of them
    that maps ``base[i]`` there.  Every (point, generator) pair of a level
    is visited once; it either reaches a new point or yields a Schreier
    generator, which fixes ``base[:i + 1]``.  Each generator and Schreier
    generator is sifted down the levels below the one it came from; a
    residue other than the identity becomes a strong generator of each of
    those levels it passed and of the one where it stopped (a new base
    point, moved by it, when it passed them all).  When the worklist is
    empty each level's stabilizer is generated by the next level, so the
    order is the product of the transversal sizes.
    """
    if not generators:
        return [], [], 1
    ident = identity_perm(arity)
    base: list[int] = []
    strong: list[list[Perm]] = []
    transversals: list[dict[int, Perm]] = []
    work = [(0, g) for g in reversed(generators)]
    while work:
        level, h = work.pop()
        stop = level
        while stop < len(base):
            rep = transversals[stop].get(h[base[stop]])
            if rep is None:
                break
            h = compose_perms(invert_perm(rep), h)
            stop += 1
        if h == ident:
            continue
        if stop == len(base):
            base.append(next(k for k in range(arity) if h[k] != k))
            strong.append([])
            transversals.append({base[-1]: ident})
        for i in range(level, stop + 1):
            gens, reps = strong[i], transversals[i]
            gens.append(h)
            todo = [(p, h) for p in reps]
            while todo:
                p, s = todo.pop()
                image = compose_perms(s, reps[p])
                q = s[p]
                if q not in reps:
                    reps[q] = image
                    todo.extend((q, g) for g in gens)
                else:
                    schreier = compose_perms(invert_perm(reps[q]), image)
                    if schreier != ident:
                        work.append((i + 1, schreier))
    return base, transversals, prod(map(len, transversals))


def symmetric_elements(arity: int, orbits: Sequence[Sequence[int]]) -> tuple[Perm, ...]:
    """The elements of the full symmetric group on each of the disjoint
    position tuples ``orbits`` (fixing every other position), sorted.

    Each row lists the images of the fixed positions and then those of each
    orbit, which runs through every order ``itertools.permutations`` gives;
    ``layout`` holds the position each entry of a row belongs to.
    """
    fixed = tuple(k for k in range(arity) if all(k not in orb for orb in orbits))
    layout = fixed + tuple(chain.from_iterable(orbits))
    rows = [fixed]
    for orb in orbits:
        images = list(permutations(orb))
        rows = [row + image for row in rows for image in images]
    if layout != identity_perm(arity):
        rows = map(itemgetter(*invert_perm(layout)), rows)
    return tuple(sorted(rows))


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
    only singleton orbits and gets the empty tuple, without listing them.
    """
    if group.order == 1:
        return ()
    orbits = position_orbits(generators, group.arity)
    if group.order != prod(factorial(len(o)) for o in orbits):
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


def _sorted_tuple(vals: tuple) -> tuple:
    return tuple(sorted(vals))


def _sort_orbits(fixed: Callable, gathers: tuple, scatter: Callable, vals: tuple) -> tuple:
    # The fixed positions' values, then each orbit's values sorted: layout
    # order, which the scatter puts back into position order.
    out = list(fixed(vals))
    for gather in gathers:
        out += sorted(gather(vals))
    return scatter(out)


def _least_image(getters: tuple, vals: tuple) -> tuple:
    return min([act(vals) for act in getters])


def _gather(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    # A slice for a run of consecutive positions (none at all included),
    # else one index per position: either way the values come back as a tuple.
    first = positions[0] if positions else 0
    if positions == tuple(range(first, first + len(positions))):
        return itemgetter(slice(first, first + len(positions)))
    return itemgetter(*positions)


def _canonicalizer(arity: int, group: PermGroup, orbits) -> Callable[[tuple], tuple]:
    """The op's ``canon``; ``SignatureSpec`` says which one is chosen."""
    if orbits is None:
        # Such a group is no product of symmetric groups, so its arity is
        # at least 3 and every getter returns a tuple.
        return partial(_least_image, tuple(itemgetter(*invert_perm(g)) for g in group))
    if not orbits:
        return tuple
    fixed = tuple(k for k in range(arity) if all(k not in orb for orb in orbits))
    if not fixed and len(orbits) == 1:
        return _sorted_tuple
    layout = fixed + tuple(chain.from_iterable(orbits))
    scatter = tuple if layout == identity_perm(arity) else itemgetter(*invert_perm(layout))
    return partial(_sort_orbits, _gather(fixed), tuple(map(_gather, orbits)), scatter)


class OpRecord(NamedTuple):
    """What the signature keeps per op: the arity, the symbol, the group and
    the canonicalizer, which maps a tuple of ``arity`` values to the least
    member of its orbit."""

    arity: int
    op: OperationSymbol
    group: PermGroup
    canon: Callable[[tuple], tuple]


class SignatureSpec:
    """A validated signature: one ``OpRecord`` per op, built once.

    At build time every operation's generators are checked, the order of
    its group comes from ``stabilizer_chain`` and its position orbits from
    the generators.  The order then chooses the op's canonicalizer
    ``canon``, once:

    * a trivial group: ``tuple``, which returns its input tuple itself;
    * the full symmetric group on every position: a whole-tuple sort;
    * the full symmetric group on each orbit (bags, and products of those):
      a gather of the fixed positions' values and of each orbit's values,
      each orbit's sorted, then one scatter back into position order;
    * any other group: the least image under one ``itemgetter`` per group
      element, each acting as ``apply_perm``.

    Only that last kind of group is enumerated; the others list their
    elements only if ``PermGroup.elements`` is read.  Canonicalizers are
    built from module-level functions (``functools.partial``, not
    closures), so a signature pickles.  Canonical tuples, canonical
    contexts (the hole as ``_HOLE``), loaded rows and refinement keys all
    call ``canon``.

    Raises ``SignatureError`` on duplicate ids, arities that are not
    nonnegative ints, bad permutations, or a group to be enumerated whose
    order is above ``_ENUMERATION_BOUND``; that order is checked before any
    element is listed.
    Two specs are equal when they have the same ops with the same arities
    and the same groups, regardless of which generators were listed: a
    group symmetric on each orbit is determined by its orbits, any other
    group is compared by its elements.  The equality key and its hash are
    built once, with the signature.
    """

    def __init__(self, ops: Iterable[OperationSymbol]):
        self.ops: tuple[OperationSymbol, ...] = tuple(ops)
        self._records: dict[str, OpRecord] = {}
        if not self.ops:
            raise SignatureError("signature needs at least one operation")
        eq_key = []
        for op in self.ops:
            if op.id in self._records:
                raise SignatureError(f"duplicate operation id {op.id!r}")
            if type(op.arity) is not int:
                raise SignatureError(f"arity of {op.id!r} must be an integer, got {op.arity!r}")
            if op.arity < 0:
                raise SignatureError(f"negative arity for {op.id!r}")
            gens = tuple(check_perm(g, op.arity) for g in op.generators)
            group = PermGroup(op.arity, gens, stabilizer_chain(gens, op.arity)[2])
            orbits = sortable_orbits(gens, group)
            if orbits is None:
                if group.order > _ENUMERATION_BOUND:
                    raise SignatureError(
                        f"group of {op.id!r} would be enumerated, and its order "
                        f"{group.order} is above {_ENUMERATION_BOUND}"
                    )
                eq_key.append((op.id, op.arity, ("enum", group.elements)))
            else:
                eq_key.append((op.id, op.arity, ("sym", orbits)))
            canon = _canonicalizer(op.arity, group, orbits)
            self._records[op.id] = OpRecord(op.arity, op, group, canon)
        self._eq_key = tuple(eq_key)
        # Equal groups have equal orders, so this hash agrees with ==
        # without hashing every element.
        self._hash = hash(tuple((r.op.id, r.arity, r.group.order) for r in self._records.values()))

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
        return self._record(op_id).op

    def arity(self, op_id: str) -> int:
        return self._record(op_id).arity

    def group(self, op_id: str) -> PermGroup:
        return self._record(op_id).group

    @property
    def is_polynomial(self) -> bool:
        """True when every group is trivial, so positions are rigid."""
        return all(r.group.is_trivial for r in self._records.values())

    # -- canonical construction ------------------------------------------

    def _record(self, op_id: str) -> OpRecord:
        # Hot callers try ``self._records.get`` first and come here on a miss.
        try:
            return self._records[op_id]
        except KeyError:
            raise SignatureError(f"unknown operation {op_id!r}") from None

    def canonical_tuple(self, op_id: str, values: Sequence) -> FElem:
        """The orbit-minimal element with the given arguments."""
        record = self._records.get(op_id) or self._record(op_id)
        vals = tuple(values)
        if len(vals) != record.arity:
            raise SignatureError(
                f"{op_id!r} expects {record.arity} arguments, got {len(vals)}"
            )
        return FElem(op_id, record.canon(vals))

    def canonical_context(self, op_id: str, hole: int, sides: Sequence) -> ContextElem:
        """The orbit-minimal context with the hole at ``hole``.

        ``sides`` lists the non-hole arguments in position order.  The hole
        sorts below every value, so the canonical hole position is the first
        position it can reach under the group.
        """
        arity, _, _, canon = self._record(op_id)
        if arity == 0:
            raise SignatureError(f"{op_id!r} has arity 0 and admits no context")
        if not 0 <= hole < arity:
            raise SignatureError(f"hole {hole} out of range for {op_id!r}/{arity}")
        s = tuple(sides)
        if len(s) != arity - 1:
            raise SignatureError(
                f"context over {op_id!r} expects {arity - 1} sides, got {len(s)}"
            )
        full = canon(s[:hole] + (_HOLE,) + s[hole:])
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
        return FElem(elem.op, self._record(elem.op).canon(tuple(map(f, elem.args))))

    def _pack_rows(self, rows: Iterable[tuple[str, Iterable]], n: int, canonical: bool = True):
        """A coalgebra's ``(op id, successors)`` rows, each through its op's
        ``canon`` unless ``canonical`` is false, as ``(ops, offs, flat)``:
        each state's index in ``self.ops``, and row ``s`` at
        ``flat[offs[s]:offs[s + 1]]``.  ``None`` when a row has an unknown
        op or the wrong length, or a successor is no ``int`` (``bool`` is
        none) in ``range(n)``; those are checked once over the flat list, so
        a caller that names the first bad row scans for it."""
        records = self._records.values()
        table = {r.op.id: (i, r.arity, r.canon if canonical else tuple)
                 for i, r in enumerate(records)}
        ops = array("B" if len(table) <= 256 else "l")
        flat: list = []
        push, ext = ops.append, flat.extend
        try:
            for op, args in rows:
                i, arity, canon = table[op]
                vals = tuple(args)
                if len(vals) != arity:
                    return None
                push(i)
                ext(canon(vals))
        except (KeyError, TypeError):  # an unknown or unhashable op, or incomparable values
            return None
        if flat and not (set(map(type, flat)) == {int} and 0 <= min(flat) and max(flat) < n):
            return None
        arity = [r.arity for r in records].__getitem__
        return ops, array("l", accumulate(map(arity, ops), initial=0)), array("l", flat)

    def _unpack_rows(self, ops: array, offs: array, flat: array) -> tuple[FElem, ...]:
        """The elements of rows ``_pack_rows`` stored, as they were stored."""
        ids, args = [op.id for op in self.ops], flat.tolist()
        return tuple(FElem(ids[i], tuple(args[a:b])) for i, (a, b) in zip(ops, pairwise(offs)))
