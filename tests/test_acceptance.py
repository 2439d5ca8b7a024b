"""Acceptance gate: one test per release criterion, one verdict line each.

Run ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines as they
happen; every tolerance is also asserted, so a quiet green run means the same
thing.  The slowest entries are the exhaustive oracle sweep and the large
timing benchmark at the end.
"""

import gc
import random
import statistics
import time

import pytest

from conftest import all_coalgebras, path_count

from thincoalg import (
    FNode,
    GNode,
    LassoStream,
    OperationSymbol,
    PointedCoalgebra,
    SignatureSpec,
    beh_equal_terms,
    brute_force_normal,
    cb_rank,
    dom_tree,
    enc,
    enumerate_terms,
    is_thin,
    minimize,
    normalize,
    oracle_is_thin,
    rank,
    unfold,
)
from thincoalg.generate import gen_coalgebra, rand_term
from thincoalg.terms import random_rewrite


def _report(num, name, ok, detail=""):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    if detail:
        print(detail)
    assert ok, detail


def _fresh(pc):
    # An equal object with no analysis kept on it, so a timing covers the
    # whole check even when another test has already analysed ``pc``.
    return PointedCoalgebra(pc.coalg, pc.root)


def test_criterion_1_fixture_verdicts(server_pc, bag_ss, full_binary):
    pc = _fresh(server_pc)
    t0 = time.perf_counter()
    va = is_thin(pc)
    ta = time.perf_counter() - t0
    pc = _fresh(bag_ss)
    t0 = time.perf_counter()
    vb = is_thin(pc)
    tb = time.perf_counter() - t0
    pc = _fresh(full_binary)
    t0 = time.perf_counter()
    vc = is_thin(pc)
    tc = time.perf_counter() - t0
    w = vb.witness
    s = w.access.states[-1] if w else None
    two_self_loops = (
        w is not None
        and w.cycle1.states == (s, s)
        and w.cycle2.states == (s, s)
        and w.cycle1.indices != w.cycle2.indices
        and not w.cycle1.is_prefix_of(w.cycle2)
        and not w.cycle2.is_prefix_of(w.cycle1)
    )
    ok = (
        va.thin
        and not vb.thin
        and two_self_loops
        and not vc.thin
        and max(ta, tb, tc) < 0.1
    )
    _report(1, "fixture verdicts", ok)


def test_criterion_2_thinness_oracle_exhaustive(sig_poly, sig_bag):
    t0 = time.perf_counter()
    checked = 0
    agree = True
    for sig in (sig_poly, sig_bag):
        for n in range(1, 4):
            for coalg in all_coalgebras(sig, n):
                for root in range(n):
                    pc = PointedCoalgebra(coalg, root)
                    if is_thin(pc).thin != oracle_is_thin(pc, 2 * n):
                        agree = False
                    checked += 1
    elapsed = time.perf_counter() - t0
    # 6692 rooted instances for the rigid signature, 3075 for the bag one
    ok = agree and checked == 9767 and elapsed < 60.0
    _report(2, "thinness oracle, exhaustive", ok)


def test_criterion_3_plug_and_base_laws():
    sig = SignatureSpec(
        [
            OperationSymbol("n0", 0),
            OperationSymbol("n1", 1),
            OperationSymbol("pair", 2, ((1, 0),)),
            OperationSymbol("tri", 3, ((0, 2, 1),)),
            OperationSymbol("cyc", 4, ((1, 2, 3, 0),)),
        ]
    )
    wide = [o for o in sig.ops if o.arity > 0]
    rng = random.Random(30)
    ok = True

    # plugging adds exactly the plugged value to the base
    for _ in range(10**4):
        op = rng.choice(wide)
        sides = tuple(rng.randrange(5) for _ in range(op.arity - 1))
        ctx = sig.canonical_context(op.id, rng.randrange(op.arity), sides)
        x = rng.randrange(7)
        if sig.plug(ctx, x).base() != ctx.base() | {x}:
            ok = False

    # every base element is reachable by exactly the listed decompositions
    for _ in range(10**4):
        op = rng.choice(sig.ops)
        elem = sig.canonical_tuple(
            op.id, tuple(rng.randrange(6) for _ in range(op.arity))
        )
        decs = sig.decompositions(elem)
        if any(sig.plug(ctx, x) != elem for ctx, x in decs):
            ok = False
        if {x for _, x in decs} != set(elem.base()):
            ok = False

    # plugging a fresh value is injective in the context
    for _ in range(10**4):
        op = rng.choice(wide)
        cs = []
        for _ in range(2):
            sides = tuple(rng.randrange(5) for _ in range(op.arity - 1))
            cs.append(
                sig.canonical_context(op.id, rng.randrange(op.arity), sides)
            )
        c1, c2 = cs
        x = 7
        if (sig.plug(c1, x) == sig.plug(c2, x)) != (c1 == c2):
            ok = False

    _report(3, "plug and base laws", ok)


def test_criterion_4_minimize_preserves_path_counts(sig_poly, sig_bag, sig_server):
    sigs = (sig_poly, sig_bag, sig_server)
    rng = random.Random(40)
    ok = True
    for _ in range(10**3):
        sig = sigs[rng.randrange(3)]
        n = rng.randrange(1, 7)
        pc = gen_coalgebra(sig, n, rng.randrange(10**9), root=rng.randrange(n))
        mini, _ = minimize(pc)
        if any(path_count(pc, d) != path_count(mini, d) for d in range(7)):
            ok = False
    _report(4, "minimize preserves path counts", ok)


def test_criterion_5_rewrites_preserve_behaviour(sig_poly, sig_bag, sig_server):
    sigs = (sig_poly, sig_bag, sig_server)
    rng = random.Random(50)
    ok = True
    for _ in range(10**4):
        sig = sigs[rng.randrange(3)]
        t = rand_term(sig, rng.randrange(1, 8), rng)
        u = t
        for _ in range(rng.randrange(6)):
            u = random_rewrite(sig, u, rng)
        if not beh_equal_terms(sig, t, u):
            ok = False
    _report(5, "rewrites preserve behaviour", ok)


def test_criterion_6_normal_forms_complete_and_unique(sig_poly, sig_bag, sig_server):
    sigs = (sig_poly, sig_bag, sig_server)
    rng = random.Random(60)
    ok = True
    for _ in range(10**3):
        sig = sigs[rng.randrange(3)]
        seed_term = rand_term(sig, rng.randrange(1, 7), rng)
        a = seed_term
        b = seed_term
        for _ in range(rng.randrange(1, 6)):
            a = random_rewrite(sig, a, rng)
        for _ in range(rng.randrange(1, 6)):
            b = random_rewrite(sig, b, rng)
        na = normalize(sig, a)
        nb = normalize(sig, b)
        if na != nb or normalize(sig, na) != na:
            ok = False
    _report(6, "normal forms complete and unique", ok)


def test_criterion_7_normalize_vs_brute_force(sig_poly, sig_bag):
    def f(sig, op, *args):
        return FNode(sig.canonical_tuple(op, tuple(args)))

    def g(sig, prefix, period):
        return GNode(LassoStream(tuple(prefix), tuple(period)))

    def c(sig, op, hole, *sides):
        return sig.canonical_context(op, hole, tuple(sides))

    fc = f(sig_poly, "c")
    uctx = c(sig_poly, "u", 0)
    uomega = g(sig_poly, (), [uctx])
    g_b_uomega = g(sig_poly, (), [c(sig_poly, "b", 0, uomega)])
    f0 = f(sig_bag, "b0")
    b1ctx = c(sig_bag, "b1", 0)
    b1omega = g(sig_bag, (), [b1ctx])
    corpus = [
        (sig_poly, fc),
        (sig_poly, f(sig_poly, "u", fc)),
        (sig_poly, f(sig_poly, "b", fc, fc)),
        (sig_poly, uomega),
        (sig_poly, f(sig_poly, "u", uomega)),
        (sig_poly, g(sig_poly, (), [c(sig_poly, "b", 0, fc)])),
        (sig_poly, g(sig_poly, (), [c(sig_poly, "b", 1, fc)])),
        (sig_poly, f(sig_poly, "b", uomega, fc)),
        (sig_poly, f(sig_poly, "b", fc, uomega)),
        (sig_poly, f(sig_poly, "u", f(sig_poly, "b", fc, fc))),
        (sig_poly, g(sig_poly, [uctx], [c(sig_poly, "b", 0, fc)])),
        (sig_poly, g_b_uomega),
        (sig_poly, f(sig_poly, "u", g_b_uomega)),
        (sig_bag, f0),
        (sig_bag, f(sig_bag, "b1", f0)),
        (sig_bag, f(sig_bag, "b2", f0, f0)),
        (sig_bag, b1omega),
        (sig_bag, f(sig_bag, "b1", b1omega)),
        (sig_bag, f(sig_bag, "b2", f0, b1omega)),
        (sig_bag, g(sig_bag, [b1ctx], [c(sig_bag, "b2", 0, f0)])),
    ]
    assert len(corpus) == 20
    ok = all(
        normalize(sig, t) == brute_force_normal(sig, t, 6) for sig, t in corpus
    )
    for t in enumerate_terms(sig_poly, 4):
        if normalize(sig_poly, t) != brute_force_normal(sig_poly, t, 6):
            ok = False
    _report(7, "normalize vs brute force", ok)


def test_criterion_8_derivative_rank_vs_major_rank(sig_poly):
    rng = random.Random(80)
    t0 = time.perf_counter()
    ok = True
    for _ in range(500):
        t = rand_term(sig_poly, rng.randrange(1, 9), rng)
        mini, _ = minimize(unfold(sig_poly, t).pc)
        if cb_rank(mini) != rank(normalize(sig_poly, t)).major:
            ok = False
    elapsed = time.perf_counter() - t0
    _report(8, "derivative rank vs major rank", ok and elapsed < 120.0)


def test_criterion_9_encoding_matches_tree_domain(sig_poly):
    rng = random.Random(90)
    ok = True
    for _ in range(500):
        t = rand_term(sig_poly, rng.randrange(1, 9), rng)
        if any(
            enc(sig_poly, t, d) != dom_tree(sig_poly, t, d)
            for d in range(1, 11)
        ):
            ok = False
    _report(9, "encoding matches tree domain", ok)


@pytest.mark.slow
def test_criterion_10_near_linear_thinness_check():
    # mean out-degree 3: arities 1..5 drawn uniformly
    sig = SignatureSpec([OperationSymbol(f"k{a}", a) for a in range(1, 6)])
    sizes = (100_000, 200_000)
    budgets = (2.0, 5.0)
    ratios = []
    lines = []
    ok = True
    for seed in (1, 2, 3, 7, 11):
        best = []
        for n, budget in zip(sizes, budgets):
            generated = gen_coalgebra(sig, n, seed)
            runs = []
            for _ in range(3):
                # each run checks an object nothing has analysed yet
                pc = _fresh(generated)
                # keep collector pauses out of the timed region
                gc.collect()
                gc.disable()
                try:
                    t0 = time.perf_counter()
                    assert is_thin(pc).thin in (True, False)
                    runs.append(time.perf_counter() - t0)
                finally:
                    gc.enable()
            best.append(min(runs))
            if best[-1] >= budget:
                ok = False
        del generated, pc
        ratios.append(best[1] / best[0])
        lines.append(
            f"seed {seed}: best {best[0]:.3f} s at {sizes[0]} (budget {budgets[0]} s), "
            f"{best[1]:.3f} s at {sizes[1]} (budget {budgets[1]} s), ratio {ratios[-1]:.2f}"
        )
    median = statistics.median(ratios)
    if median > 2.5:
        ok = False
    lines.append(f"median {sizes[1]}/{sizes[0]} ratio {median:.2f} (bound 2.5)")
    _report(10, "near-linear thinness check", ok, "\n".join(lines))
