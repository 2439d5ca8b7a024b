"""Finite coalgebras over a branching signature.

A coalgebra assigns to each state (numbered 0..n-1) one branching value whose
arguments are successor states.  Paths interleave states with multiplicity
indices, so a successor occurring twice in a tuple contributes two edges.

Includes strongly connected components (iterative path-based search, linear
time), behavioural minimization by worklist partition refinement (only the
predecessors of states that changed block are re-signed, O(m log n)
signings), and an isomorphism-invariant canonical key that fingerprints
behaviours; behavioural equality compares keys.  Refinement block ids depend
only on structure, never on state numbering.  The minimal quotient and the
key are built by one quotient step, ``_quotient``, whose docstring states
how quotient states are numbered.  What is kept on a pointed coalgebra is
listed in ``PointedCoalgebra``.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from threading import Lock
from typing import Iterable, Iterator, Sequence

from .errors import CoalgebraError
from .signature import FElem, SignatureSpec, _orbit_min


@dataclass(frozen=True)
class Coalgebra:
    """One element per state, its arguments the successor states.

    Precondition: every tuple is the orbit minimum, as
    ``SignatureSpec.canonical_tuple`` builds it.  The constructor checks
    each element's op, arity and successor range, but not this.  Equality
    and the round trip through ``dump_coalgebra`` and ``load_coalgebra``
    hold for canonical elements only: the loader canonicalizes each row,
    and an uncanonical tuple compares unequal to its orbit minimum.
    """

    sig: SignatureSpec
    transition: tuple[FElem, ...]

    def __post_init__(self):
        n = len(self.transition)
        records = self.sig._records
        for s, elem in enumerate(self.transition):
            record = records.get(elem.op) or self.sig._record(elem.op)
            if len(elem.args) != record[0]:
                raise CoalgebraError(
                    f"state {s}: tuple length {len(elem.args)} does not match "
                    f"arity of {elem.op!r}"
                )
            for t in elem.args:
                if not isinstance(t, int) or not 0 <= t < n:
                    raise CoalgebraError(f"state {s}: successor {t!r} out of range")

    @property
    def n_states(self) -> int:
        return len(self.transition)

    def successors(self, state: int) -> list[tuple[int, int]]:
        """Successor pairs (state, multiplicity index), sorted."""
        counts: dict[int, int] = {}
        for t in self.transition[state].args:
            counts[t] = counts.get(t, 0) + 1
        return [(t, k) for t in sorted(counts) for k in range(counts[t])]


@dataclass(frozen=True)
class PointedCoalgebra:
    """A coalgebra and a root state.

    The value is immutable, so what is derived from it is derived once:
    each kept value is computed on first use and kept on the object by
    ``_memo``, under one name and by one builder:

    * ``_thin``: the thinness analysis (``thinness._thin_components``),
      shared by ``is_thin``, the census, ``state_ranks``, ``cb_rank`` and
      ``extract_normal``;
    * ``_minimal``: the minimal quotient and state mapping (``minimize``);
    * ``_key``: the canonical key (``canonical_key``, ``beh_equal``), read
      off the kept quotient;
    * ``_ranks``: the per-state rank lists (``thinness._rank_fold``), read
      by the census, ``cb_rank``, ``state_ranks`` and ``extract_normal``.

    Kept values are no dataclass fields, so ``==``, ``hash`` and ``repr``
    see only ``coalg`` and ``root``; pickling carries them along, and
    ``dataclasses.replace`` builds a new object, which analyses itself
    afresh.  Only ``_memo`` writes a kept value, and every caller gets the
    same one, so no consumer writes to it: ``minimize`` hands out a fresh
    copy of its mapping and ``state_ranks`` builds a fresh table.
    """

    coalg: Coalgebra
    root: int

    def __post_init__(self):
        if not 0 <= self.root < self.coalg.n_states:
            raise CoalgebraError(f"root {self.root} out of range")


def _memo(pc: PointedCoalgebra, name: str, build):
    """``build(pc)``, computed on the first call and kept on ``pc`` under
    ``name``.

    The only writer of a pointed coalgebra's instance dictionary: the frozen
    dataclass forbids plain assignment, and a value derived from a frozen
    object never goes stale.  The rule is stated in ``PointedCoalgebra``.
    """
    try:
        return pc.__dict__[name]
    except KeyError:
        value = build(pc)
        object.__setattr__(pc, name, value)
        return value


_PAUSE_LOCK = Lock()
_pauses = [0, False]  # open scopes; whether the first one found the collector on


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for one bulk build or analysis.

    A full collection walks every tracked object, and the file loaders,
    ``dump_coalgebra`` and the thinness analysis and witness make hundreds of
    thousands (``FElem`` tuples are never untracked).  Safe: they make only
    acyclic containers, and cyclic garbage is collected after the pause.  The
    first scope to open, in any thread, disables the collector; the last to
    close re-enables it if the first found it enabled.  Caveats: the switch is
    process-wide, so while any scope is open every thread's cyclic garbage
    waits, and the last scope re-enables a collector that another thread
    disabled meanwhile.
    """
    with _PAUSE_LOCK:
        _pauses[1] = _pauses[1] if _pauses[0] else gc.isenabled()
        _pauses[0] += 1
        gc.disable()
    try:
        yield
    finally:
        with _PAUSE_LOCK:
            _pauses[0] -= 1
            if not _pauses[0] and _pauses[1]:
                gc.enable()


@dataclass(frozen=True)
class FinitePath:
    """An alternating path: states[0], indices[0], states[1], ...

    ``indices[j]`` is the multiplicity index of the step from ``states[j]``
    to ``states[j+1]``.
    """

    states: tuple[int, ...]
    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.states) != len(self.indices) + 1:
            raise CoalgebraError("path needs one more state than indices")

    @property
    def length(self) -> int:
        return len(self.indices)

    def is_prefix_of(self, other: "FinitePath") -> bool:
        m = len(self.states)
        return (
            m <= len(other.states)
            and other.states[:m] == self.states
            and other.indices[: m - 1] == self.indices
        )

    def flat_key(self) -> tuple[int, ...]:
        out = [self.states[0]]
        for k, t in zip(self.indices, self.states[1:]):
            out.append(k)
            out.append(t)
        return tuple(out)


def validate_path(c: Coalgebra, path: FinitePath) -> None:
    """Raise unless every state of ``path`` is a state of ``c`` and every
    step is a successor pair of its source."""
    for s in path.states:
        if not 0 <= s < c.n_states:
            raise CoalgebraError(f"path state {s} out of range")
    for j in range(path.length):
        s, t, k = path.states[j], path.states[j + 1], path.indices[j]
        mult = sum(1 for x in c.transition[s].args if x == t)
        if not (0 <= k < mult):
            raise CoalgebraError(f"step {j}: ({t},{k}) is not a successor of {s}")


def reachable_states(c: Coalgebra, root: int) -> list[int]:
    """States reachable from ``root``, in BFS discovery order."""
    seen = {root}
    order = [root]
    i = 0
    while i < len(order):
        for t in c.transition[order[i]].args:
            if t not in seen:
                seen.add(t)
                order.append(t)
        i += 1
    return order


def _step_pairs(c: Coalgebra, state: int) -> list[tuple[int, int]]:
    # Successor pairs ordered as they appear along a path: index, then state.
    return sorted((k, t) for t, k in c.successors(state))


def paths_to_depth(pc: PointedCoalgebra, depth: int) -> list[FinitePath]:
    """All paths of length exactly ``depth`` from the root, lexicographically.

    A path stops early only when a state has no successors, in which case it
    does not reach ``depth`` and is not listed; no path has negative length.
    The walk is depth first on an explicit stack holding one step iterator
    per state of the current prefix, so ``depth`` is not bounded by the
    recursion limit.
    """
    if depth <= 0:
        return [FinitePath((pc.root,), ())] if depth == 0 else []
    c = pc.coalg
    out: list[FinitePath] = []
    steps = [_step_pairs(c, s) for s in range(c.n_states)]
    states, indices = [pc.root], []
    stack = [iter(steps[pc.root])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if indices:
                states.pop()
                indices.pop()
            continue
        k, t = step
        if len(indices) + 1 == depth:
            out.append(FinitePath((*states, t), (*indices, k)))
        else:
            states.append(t)
            indices.append(k)
            stack.append(iter(steps[t]))
    return out


def cycles_through(c: Coalgebra, state: int, maxlen: int) -> Iterator[FinitePath]:
    """All paths from ``state`` back to ``state`` of length 1..maxlen, in
    ``flat_key`` order.  A step is taken only when the distance back (from a
    backward BFS, layer by layer) fits the remaining length, so every prefix
    walked extends to a cycle.  Exponential; meant for the thinness oracle.
    """
    dist = {state: 0}
    for d in range(1, c.n_states):
        for s, elem in enumerate(c.transition):
            if s not in dist and any(dist.get(t) == d - 1 for t in elem.args):
                dist[s] = d
    stack = [((state,), (), iter(_step_pairs(c, state)))]
    while stack:
        states, indices, steps = stack[-1]
        length = len(indices) + 1
        for k, t in steps:
            if length + dist.get(t, maxlen) <= maxlen:
                break
        else:
            stack.pop()
            continue
        path = ((*states, t), (*indices, k))
        if t == state:
            yield FinitePath(*path)
        if length < maxlen:
            stack.append((*path, iter(_step_pairs(c, t))))


@dataclass(frozen=True)
class Condensation:
    """SCCs in emission order: every edge goes from a later component index
    to an earlier one, so the order is reverse topological."""

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]


def _csr(c: Coalgebra) -> tuple[array, array]:
    """Deduplicated sorted successor lists in offset/flat form.

    Flat arrays of machine ints keep the random probes of the component
    search cache-resident on large coalgebras.
    """
    n = c.n_states
    offs = array("l", [0]) * (n + 1)
    flat: list[int] = []
    ext = flat.extend
    tr = c.transition
    for s in range(n):
        ext(sorted(set(tr[s].args)))
        offs[s + 1] = len(flat)
    return offs, array("l", flat)


def _scc_csr(offs: array, flat: array, roots: Iterable[int], n: int):
    """Path-based strong component search over offset/flat adjacency.

    Returns (components in emission order, component id per state, -1 if
    unvisited).  Every edge leaving a component points to an earlier one, so
    emission order is reverse topological.  Within a component, members are
    listed in reverse discovery order, the component's entry state last.
    """
    index = array("l", [-1]) * n
    comp = array("l", [-1]) * n
    open_stack: list[int] = []
    bound_stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    for r in roots:
        if index[r] != -1:
            continue
        work: list[list[int]] = [[r, -1]]
        while work:
            frame = work[-1]
            v, i = frame
            if i == -1:
                i = offs[v]
                index[v] = len(open_stack)
                open_stack.append(v)
                bound_stack.append(index[v])
            end = offs[v + 1]
            descended = False
            while i < end:
                w = flat[i]
                i += 1
                iw = index[w]
                if iw == -1:
                    frame[1] = i
                    work.append([w, -1])
                    descended = True
                    break
                if iw < n:
                    while bound_stack[-1] > iw:
                        bound_stack.pop()
            if descended:
                continue
            work.pop()
            if bound_stack[-1] == index[v]:
                bound_stack.pop()
                cid = len(comps)
                members = open_stack[index[v] :]
                del open_stack[index[v] :]
                members.reverse()
                closed = n + cid
                for u in members:
                    index[u] = closed
                    comp[u] = cid
                comps.append(tuple(members))
    return comps, comp


def reachable_condensation(pc: PointedCoalgebra) -> Condensation:
    """SCCs of the part reachable from the root; unreachable states get -1."""
    comps, comp = _scc_csr(*_csr(pc.coalg), [pc.root], pc.coalg.n_states)
    return Condensation(tuple(comps), tuple(comp))


# -- behavioural equivalence ---------------------------------------------


def _refine(c: Coalgebra, states: Sequence[int]) -> dict[int, int]:
    """Partition ``states`` by behavioural equivalence.

    ``states`` must be closed under successors.  Worklist refinement in the
    manner of Hopcroft and of Valmari & Lehtinen: the first round splits by op,
    every state's key while all ids are 0, and signs none.  Each later round
    re-signs only the dirty states, groups them by (block, key), and splits
    each touched block into one part per key plus the untouched rest, if any.
    The largest part keeps the block id, every other part gets a fresh one,
    and the predecessors of the states that got a fresh id are the next
    round's dirty states.  A key is the op and the orbit minimum of the
    successors' block ids, straight from ``signature._orbit_min``: elements
    were checked at construction, so signing builds and checks none.

    Invariant: the untouched members of a block share one key, since none of
    their successors changed id since they were last signed together.  A
    dirty state has a successor under a fresh id, which no untouched key
    mentions, so the rest never needs re-signing to be told apart.  Every
    round therefore splits exactly as re-signing all states would.  A state
    only moves into a part at most half its block's size, so each state is
    re-signed O(log n) times per successor edge, O(m log n) signings in all.

    Block ids depend only on structure, as ``canonical_key`` needs: touched
    blocks split in id order, parts in key order with the untouched rest
    last, and the largest part keeps the id, ties to the rest, then to the
    least key.
    """
    records = c.sig._records
    tr = c.transition
    block = [0] * c.n_states
    lookup = block.__getitem__
    preds: dict[int, list[int]] = {s: [] for s in states}
    for s in states:
        for t in set(tr[s].args):
            preds[t].append(s)
    members = [set(states)]
    touched: dict[int, dict] = {}
    for s in states:
        touched.setdefault(0, {}).setdefault(tr[s].op, set()).add(s)
    while touched:
        moved: list[int] = []
        for b, by_key in sorted(touched.items()):
            parts = [p for _, p in sorted(by_key.items())]
            rest = members[b]
            rest_size = len(rest) - sum(map(len, parts))
            if rest_size == 0 and len(parts) == 1:
                continue
            for p in parts:
                rest.difference_update(p)
            largest = max(parts, key=len)
            if rest_size >= len(largest):
                moving = parts
            else:
                members[b] = largest
                moving = [p for p in parts if p is not largest]
                if rest:
                    moving.append(rest)
            for p in moving:
                nb = len(members)
                members.append(p)
                for s in p:
                    block[s] = nb
                moved.extend(p)
        touched = {}
        for s in dict.fromkeys(u for t in moved for u in preds[t]):
            e = tr[s]
            key = (e.op, _orbit_min(records[e.op], tuple(map(lookup, e.args))))
            touched.setdefault(block[s], {}).setdefault(key, set()).add(s)
    return {s: block[s] for s in states}


def minimize(pc: PointedCoalgebra) -> tuple[PointedCoalgebra, dict[int, int]]:
    """Reachable behavioural quotient and the state mapping onto it.

    The mapping covers exactly the states reachable from the root.  Quotient
    states are numbered in BFS order from the root's block, by the rule
    stated in ``_quotient``.  The pair is kept on ``pc`` (see
    ``PointedCoalgebra``); every call returns the same quotient with a fresh
    copy of the mapping.
    """
    quotient, mapping = _memo(pc, "_minimal", _minimal_quotient)
    return quotient, dict(mapping)


def _minimal_quotient(pc: PointedCoalgebra) -> tuple[PointedCoalgebra, dict[int, int]]:
    c = pc.coalg
    order = reachable_states(c, pc.root)
    rows, mapping = _quotient(c, order, _refine(c, order))
    return PointedCoalgebra(Coalgebra(c.sig, rows), 0), mapping


def _quotient(c: Coalgebra, order: Sequence[int], block: dict[int, int]):
    """The rows of the quotient of ``c`` by ``block``, and the map from each
    state of ``order``, which must be closed under successors, to its
    quotient state.

    Blocks are numbered by the first appearance of their states in
    ``order``.  Each row is built once, by ``SignatureSpec.map_elem``, from
    the element of its block's first state with every successor mapped to
    its quotient state; the states of a block are equivalent, so each of
    them gives that row.  For ``minimize``, ``order`` is the BFS order of the
    reachable states, so the numbering is the BFS order of the blocks from
    the root's block: a state that is not the first of its block meets no new
    block, since the first one, met earlier, has successors in the same
    blocks.  For ``canonical_key``, ``order`` lists the states by block id.
    """
    first: dict[int, int] = {}
    for s in order:
        first.setdefault(block[s], s)
    new_id = {b: i for i, b in enumerate(first)}
    mapping = {s: new_id[block[s]] for s in order}
    rows = tuple(c.sig.map_elem(c.transition[s], mapping.__getitem__) for s in first.values())
    return rows, mapping


def beh_equal(pc1: PointedCoalgebra, pc2: PointedCoalgebra) -> bool:
    """Behavioural equality of the two roots: whether their canonical keys
    are equal.  Both keys stay kept (see ``PointedCoalgebra``)."""
    if pc1.coalg.sig != pc2.coalg.sig:
        raise CoalgebraError("signature mismatch")
    return canonical_key(pc1) == canonical_key(pc2)


def canonical_key(pc: PointedCoalgebra):
    """A hashable key equal for exactly the behaviourally equal roots.

    Refines the minimal quotient, whose blocks all end singletons with ids
    fixed by structure: the key is the root's id and the rows that
    ``_quotient`` builds over the states in id order.  Minimizing first
    matters, since which part keeps a block id depends on part sizes, which
    differ between equal systems.  The quotient and the key are kept on
    ``pc`` (see ``PointedCoalgebra``).
    """
    return _memo(pc, "_key", _key)


def _key(pc: PointedCoalgebra):
    mpc = _memo(pc, "_minimal", _minimal_quotient)[0]
    c = mpc.coalg
    block = _refine(c, range(c.n_states))
    if len(set(block.values())) != c.n_states:
        raise CoalgebraError("internal: minimal coalgebra with equivalent states")
    rows, mapping = _quotient(c, sorted(block, key=block.__getitem__), block)
    return (mapping[mpc.root], rows)
