"""Shared fixtures: the three headline systems and the signatures they live in.

``sig_poly`` is the rigid arity-0/1/2 signature used for tree-shaped terms,
``sig_bag`` its unordered-pair variant, ``sig_server`` the mixed signature
with a three-successor operation whose last two positions commute, and
``sig_mixed`` one operation per kind of symmetry up to arity 4.
"""

import itertools

import pytest

from thincoalg import (
    Coalgebra,
    OperationSymbol,
    PointedCoalgebra,
    SignatureSpec,
)


@pytest.fixture(scope="session")
def sig_poly():
    return SignatureSpec(
        [OperationSymbol("c", 0), OperationSymbol("u", 1), OperationSymbol("b", 2)]
    )


@pytest.fixture(scope="session")
def sig_bag():
    return SignatureSpec(
        [
            OperationSymbol("b0", 0),
            OperationSymbol("b1", 1),
            OperationSymbol("b2", 2, ((1, 0),)),
        ]
    )


@pytest.fixture(scope="session")
def sig_server():
    return SignatureSpec(
        [
            OperationSymbol("halt", 0),
            OperationSymbol("step", 1),
            OperationSymbol("spawn", 3, ((0, 2, 1),)),
        ]
    )


@pytest.fixture(scope="session")
def sig_mixed():
    # Every kind of group up to arity 4: rigid, a swap, a swap of two of
    # three positions, and a 4-cycle, the one group that is not a product
    # of symmetric groups.
    return SignatureSpec(
        [
            OperationSymbol("n0", 0),
            OperationSymbol("n1", 1),
            OperationSymbol("pair", 2, ((1, 0),)),
            OperationSymbol("tri", 3, ((0, 2, 1),)),
            OperationSymbol("cyc", 4, ((1, 2, 3, 0),)),
        ]
    )


def build(sig, rows, root=0):
    """Pointed coalgebra from (op, args) rows, one per state."""
    trans = tuple(sig.canonical_tuple(op, args) for op, args in rows)
    return PointedCoalgebra(Coalgebra(sig, trans), root)


@pytest.fixture(scope="session")
def server_pc(sig_server):
    # State 0 respawns itself (marked position) plus two workers; worker 1
    # steps forever, worker 2 halts.
    return build(
        sig_server,
        [("spawn", (0, 1, 2)), ("step", (1,)), ("halt", ())],
    )


@pytest.fixture(scope="session")
def bag_ss(sig_bag):
    # One state whose transition is the unordered pair {self, self}.
    return build(sig_bag, [("b2", (0, 0))])


@pytest.fixture(scope="session")
def full_binary(sig_poly):
    # One state stepping to the ordered pair (self, self).
    return build(sig_poly, [("b", (0, 0))])


@pytest.fixture(scope="session")
def bag_tree(sig_bag):
    # A finite unravelling of bag_ss with back edges; behaviourally equal
    # to bag_ss but spread over three states.
    return build(sig_bag, [("b2", (1, 2)), ("b2", (2, 0)), ("b2", (0, 0))])


@pytest.fixture(scope="session")
def u_loop(sig_poly):
    return build(sig_poly, [("u", (0,))])


def all_coalgebras(sig, n):
    """Every coalgebra on n states, one representative per canonical tuple."""
    elems = []
    for op in sig.ops:
        seen = set()
        for args in itertools.product(range(n), repeat=op.arity):
            e = sig.canonical_tuple(op.id, args)
            if e not in seen:
                seen.add(e)
                elems.append(e)
    for trans in itertools.product(elems, repeat=n):
        yield Coalgebra(sig, trans)
