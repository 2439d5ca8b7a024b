"""Seeded random generators for coalgebras and finitary terms.

Everything here is driven by ``random.Random(seed)`` only, so a seed fixes
the output exactly; the CLI relies on this for byte-identical files.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .coalgebra import Coalgebra, PointedCoalgebra
from .errors import SignatureError
from .signature import SignatureSpec
from .terms import FNode, GNode, LassoStream, Term


def gen_coalgebra(
    sig: SignatureSpec,
    n_states: int,
    seed: int,
    weights: Sequence[float] | None = None,
    root: int = 0,
) -> PointedCoalgebra:
    """A random pointed coalgebra: per state, draw an op (optionally with
    per-op weights, controlling edge density) and a uniform successor tuple."""
    rng = random.Random(seed)
    ops = sig.ops
    if weights is not None:
        if len(weights) != len(ops):
            raise SignatureError("need one weight per operation")
        total = sum(weights)
        if not (all(w >= 0 for w in weights) and 0 < total < math.inf):
            raise SignatureError("weights must be finite and nonnegative with a positive total")
    transitions = []
    for _ in range(n_states):
        if weights is None:
            op = ops[rng.randrange(len(ops))]
        else:
            op = rng.choices(ops, weights=weights, k=1)[0]
        tup = tuple(rng.randrange(n_states) for _ in range(op.arity))
        transitions.append(sig.canonical_tuple(op.id, tup))
    return PointedCoalgebra(Coalgebra(sig, tuple(transitions)), root)


def _minimal_term(sig: SignatureSpec) -> Term:
    for op in sig.ops:
        if op.arity == 0:
            return FNode(sig.canonical_tuple(op.id, ()))
    for op in sig.ops:
        if op.arity == 1:
            ctx = sig.canonical_context(op.id, 0, ())
            return GNode(LassoStream((), (ctx,)))
    raise SignatureError("need an operation of arity 0 or 1 to build any term")


def rand_term(sig: SignatureSpec, budget: int, rng: random.Random) -> Term:
    """A random finitary term of roughly ``budget`` nodes."""
    if budget <= 1:
        return _minimal_term(sig)
    small = [op for op in sig.ops if op.arity <= budget - 1]
    holed = [op for op in small if 1 <= op.arity <= budget]
    if holed and rng.random() < 0.45:
        n_ctx = rng.randint(1, min(2, budget - 1))
        with_prefix = rng.random() < 0.3 and budget > n_ctx + 1
        total = n_ctx + (1 if with_prefix else 0)
        share = max(1, (budget - 1) // total)
        ctxs = []
        for _ in range(total):
            op = holed[rng.randrange(len(holed))]
            hole = rng.randrange(op.arity)
            sides = tuple(
                rand_term(sig, max(1, (share - 1) // max(1, op.arity - 1)), rng)
                for _ in range(op.arity - 1)
            )
            ctxs.append(sig.canonical_context(op.id, hole, sides))
        cut = 1 if with_prefix else 0
        return GNode(LassoStream(tuple(ctxs[:cut]), tuple(ctxs[cut:])))
    if not small:
        return _minimal_term(sig)
    op = small[rng.randrange(len(small))]
    if op.arity == 0:
        return FNode(sig.canonical_tuple(op.id, ()))
    share = max(1, (budget - 1) // op.arity)
    args = tuple(rand_term(sig, share, rng) for _ in range(op.arity))
    return FNode(sig.canonical_tuple(op.id, args))


def gen_term(sig: SignatureSpec, size: int, seed: int) -> Term:
    return rand_term(sig, size, random.Random(seed))
