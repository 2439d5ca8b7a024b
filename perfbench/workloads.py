"""The workloads: their inputs, their set-up and the job each input gets.

A workload is a list of input shapes.  Set-up turns each shape into one or
two JSON documents on disk; every round of the timed pass then runs one job
per document set, in order, one at a time.  A job is a fixed sequence of
calls into the package's layers, made through a tracer so a traced pass can
time each call; its answers are checked afterwards, outside the job's time.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from thincoalg import (
    PointedCoalgebra,
    beh_equal,
    canonical_key,
    cb_rank,
    count_infinite_paths_class,
    dom_tree,
    enc,
    extract_normal,
    is_thin,
    minimize,
    rank,
    state_ranks,
    unfold,
    validate_path,
)
from thincoalg.coalgebra import reachable_condensation
from thincoalg.errors import CoalgebraError
from thincoalg.files import (
    dump_coalgebra,
    dump_json,
    dump_term,
    dump_witness,
    load_coalgebra,
    load_term,
)
from thincoalg.generate import gen_coalgebra
from thincoalg.terms import FNode

import gen


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "nonthin", "ladder" or "symmetric"
    shapes: tuple[tuple[str, int], ...]  # (shape, size): one job per round each


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("nonthin-100k", "nonthin", (("random", 100_000),) * 2),
        Workload(
            "thin-ladder", "ladder",
            tuple(("tree", n) for n in (250, 500, 1000, 2000, 4000))
            + tuple(("chain", n) for n in (100, 200, 400) for _ in range(2)),
        ),
        Workload("symmetric-refine", "symmetric", (("blowup", 300),) * 2),
    )
}

SIGNATURES = {
    "nonthin": gen.nonthin_signature,
    "ladder": gen.ladder_signature,
    "symmetric": gen.symmetric_signature,
}

BLOWUP_COPIES = 3
S8_STATES = 1
ENC_DEPTH = 12


# -- set-up ---------------------------------------------------------------


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _describe(sig, coalg, root: int) -> dict:
    """Size and shape of one input document, for the result file."""
    cond = reachable_condensation(PointedCoalgebra(coalg, root))
    ops = sorted({e.op for e in coalg.transition})
    return {
        "states": coalg.n_states,
        "reachable_states": sum(len(m) for m in cond.components),
        "components": len(cond.components),
        "largest_component": max(len(m) for m in cond.components),
        "group_orders": {op: len(sig.group(op)) for op in ops},
    }


def _make(kind: str, sig, shape: str, size: int, seed: int) -> tuple[list, dict, float]:
    """Documents (coalgebra, root) for one job, what the job must answer,
    and the seconds spent in the package's ``generate`` module."""
    if kind == "nonthin":
        t0 = time.perf_counter()
        pc = gen_coalgebra(sig, size, seed)
        return [(pc.coalg, pc.root)], {}, time.perf_counter() - t0
    rng = random.Random(seed)
    if kind == "ladder":
        make = gen.ladder_tree if shape == "tree" else gen.ladder_chain
        raw, census = make(size, rng)
        return [(gen.build(sig, raw).coalg, 0)], {"census": census}, 0.0
    base = gen.symmetric_base(sig, size, S8_STATES, rng)
    blown = gen.blow_up(sig, base, BLOWUP_COPIES, rng)
    return [(gen.uncanonical(sig, base), 0), (gen.uncanonical(sig, blown), 0)], {}, 0.0


def set_up(w: Workload, seed: int, workdir: str, describe: bool) -> dict:
    """One set-up repetition: build the signature, generate every input and
    write its documents into ``workdir``.

    Returns the repetition's times and the documents' digests; with
    ``describe``, also every input's description, outside the timed part.
    """
    out_dir = Path(workdir)
    t0 = time.perf_counter()
    sig = SIGNATURES[w.kind]()
    sig_s = time.perf_counter() - t0
    rng = random.Random(f"{w.name}:{seed}")
    untimed = gen_s = 0.0
    instances: list[dict] = []
    for i, (shape, size) in enumerate(w.shapes):
        sub = rng.randrange(2**31)
        docs, expect, g = _make(w.kind, sig, shape, size, sub)
        gen_s += g
        files = []
        for j, (coalg, root) in enumerate(docs):
            path = out_dir / f"in{i}-{j}.json"
            dump_json(path, dump_coalgebra(coalg, root))
            files.append({"path": str(path), "bytes": path.stat().st_size})
        u0 = time.perf_counter()
        inst = {"id": i, "shape": shape, "size": size, "seed": sub, "files": files}
        if describe:
            inst["expect"] = expect
            inst["inputs"] = [_describe(sig, c, r) for c, r in docs]
        instances.append(inst)
        untimed += time.perf_counter() - u0
        del docs
    total = time.perf_counter() - t0 - untimed
    for f in (f for inst in instances for f in inst["files"]):
        f["sha256"] = _digest(Path(f["path"]))
    return {
        "setup_s": total,
        "signature_s": sig_s,
        "gen_s": gen_s,
        "group_order_max": max(len(sig.group(op.id)) for op in sig.ops),
        "instances": instances,
    }


SETUP_TIMES = ("setup_s", "signature_s", "gen_s")
# Seconds of set-up one batch adds up to: one repetition of nonthin-100k, a
# dozen or more of the others, whose set-up is short enough to jitter.
SETUP_BATCH_S = 1.0


def digests(record: dict) -> list[str]:
    return [f["sha256"] for inst in record["instances"] for f in inst["files"]]


def main(argv: list[str]) -> None:
    """Child-process entry, ``workloads.py SPEC SEED WORKDIR DESCRIBE``: run
    ``set_up`` for the JSON workload SPEC, and again until the repetitions
    add up to ``SETUP_BATCH_S`` seconds of set-up time, and leave the first
    repetition's record, with the times of all of them as lists, in
    WORKDIR/setup.json.  Every repetition must write the same bytes."""
    spec = json.loads(argv[0])
    w = Workload(spec["name"], spec["kind"], tuple(tuple(s) for s in spec["shapes"]))
    seed, workdir = int(argv[1]), argv[2]
    record = set_up(w, seed, workdir, argv[3] == "1")
    times = {k: [record[k]] for k in SETUP_TIMES}
    while sum(times["setup_s"]) < SETUP_BATCH_S:
        again = set_up(w, seed, workdir, False)
        if digests(again) != digests(record):
            raise SystemExit("perfbench: set-up is not deterministic: documents differ")
        for k in SETUP_TIMES:
            times[k].append(again[k])
    record.update(times)
    (Path(workdir) / "setup.json").write_text(json.dumps(record), encoding="utf-8")


# -- jobs -----------------------------------------------------------------


def _load(tr, inst: dict, sig, j: int = 0) -> PointedCoalgebra:
    coalg, root = tr.call("files.load_coalgebra", load_coalgebra, inst["files"][j]["path"], sig)
    return PointedCoalgebra(coalg, root)


def job_nonthin(tr, inst: dict, sig) -> dict:
    pc = _load(tr, inst, sig)
    verdict = tr.call("thinness.is_thin", is_thin, pc)
    census = tr.call("thinness.count_infinite_paths_class", count_infinite_paths_class, pc)
    doc = None
    if not verdict.thin:
        doc = tr.call("files.dump_witness", dump_witness, verdict.witness)
    return {"pc": pc, "verdict": verdict, "census": census, "doc": doc}


def job_ladder(tr, inst: dict, sig) -> dict:
    pc = _load(tr, inst, sig)
    out = {"pc": pc}
    out["verdict"] = tr.call("thinness.is_thin", is_thin, pc)
    out["census"] = tr.call("thinness.count_infinite_paths_class", count_infinite_paths_class, pc)
    out["cb"] = tr.call("treeenc.cb_rank", cb_rank, pc)
    out["quotient"], out["mapping"] = tr.call("coalgebra.minimize", minimize, pc)
    tr.call("normalform.state_ranks", state_ranks, pc)
    nf = out["nf"] = tr.call("normalform.extract_normal", extract_normal, pc)
    out["rank"] = tr.call("terms.rank", rank, nf)
    doc = tr.call("files.dump_term", dump_term, nf)
    back = tr.call("files.load_term", load_term, doc, sig)
    unfolded = tr.call("semantics.unfold", unfold, sig, back)
    out["nf2"] = tr.call("normalform.extract_normal", extract_normal, unfolded.pc)
    out["enc"] = tr.call("treeenc.enc", enc, sig, nf, ENC_DEPTH)
    out["dom"] = tr.call("treeenc.dom_tree", dom_tree, sig, nf, ENC_DEPTH)
    return out


def job_symmetric(tr, inst: dict, sig) -> dict:
    base, blown = _load(tr, inst, sig, 0), _load(tr, inst, sig, 1)
    q1, m1 = tr.call("coalgebra.minimize", minimize, base)
    q2, m2 = tr.call("coalgebra.minimize", minimize, blown)
    equal = tr.call("coalgebra.beh_equal", beh_equal, base, blown)
    k1 = tr.call("coalgebra.canonical_key", canonical_key, base)
    k2 = tr.call("coalgebra.canonical_key", canonical_key, blown)
    return {"quotients": (q1, q2), "mappings": (m1, m2), "equal": equal, "keys": (k1, k2)}


# -- checks ---------------------------------------------------------------


def term_shape(t) -> tuple[int, int]:
    """(nodes, depth) of a term, iteratively.

    Nodes count as ``term_size`` does: one per branching node and one per
    context of a stream node.  Depth counts nested term nodes.  Shared
    subterms are visited once, so the cost is linear in distinct nodes.
    """
    memo: dict[int, tuple[int, int]] = {}
    stack = [(t, False)]
    while stack:
        u, ready = stack.pop()
        if id(u) in memo:
            continue
        if isinstance(u, FNode):
            kids, own = list(u.elem.args), 1
        else:
            ctxs = u.stream.prefix + u.stream.period
            kids, own = [s for c in ctxs for s in c.sides], 1 + len(ctxs)
        if ready:
            nodes = own + sum(memo[id(k)][0] for k in kids)
            depth = 1 + max((memo[id(k)][1] for k in kids), default=0)
            memo[id(u)] = (nodes, depth)
        else:
            stack.append((u, True))
            stack.extend((k, False) for k in kids if id(k) not in memo)
    return memo[id(t)]


def same_term(a, b) -> bool:
    """Structural equality of two terms, iteratively.

    Terms hold canonical tuples and lassos, so structural equality is
    equality of the denoted behaviours' representations.  The checks use
    this instead of ``==`` on terms, which recurses, so a check never fails
    where the job itself succeeded.
    """
    seen = set()
    stack = [(a, b)]
    while stack:
        u, v = stack.pop()
        if u is v or (id(u), id(v)) in seen:
            continue
        seen.add((id(u), id(v)))
        if type(u) is not type(v):
            return False
        if isinstance(u, FNode):
            if u.elem.op != v.elem.op or len(u.elem.args) != len(v.elem.args):
                return False
            stack.extend(zip(u.elem.args, v.elem.args))
            continue
        su, sv = u.stream, v.stream
        if len(su.prefix) != len(sv.prefix) or len(su.period) != len(sv.period):
            return False
        for cu, cv in zip(su.prefix + su.period, sv.prefix + sv.period):
            if (cu.op, cu.hole, len(cu.sides)) != (cv.op, cv.hole, len(cv.sides)):
                return False
            stack.extend(zip(cu.sides, cv.sides))
    return True


def check_nonthin(out: dict, inst: dict) -> tuple[list[str], dict]:
    """The witness must replay: valid paths, both cycles closing at the end
    of the access path, neither a prefix of the other; the census must say
    uncountable and the dumped document must match the witness."""
    verdict, pc = out["verdict"], out["pc"]
    if verdict.thin:
        return ["is_thin says thin on a non-thin input"], {}
    w = verdict.witness
    bad = []
    for name in ("access", "cycle1", "cycle2"):
        path = getattr(w, name)
        try:
            validate_path(pc.coalg, path)
        except CoalgebraError as exc:
            bad.append(f"{name} does not replay: {exc}")
        doc = out["doc"][name]
        if doc != {"states": list(path.states), "indices": list(path.indices)}:
            bad.append(f"dumped {name} differs from the witness")
    if w.access.states[0] != pc.root:
        bad.append("access path does not start at the root")
    at = w.access.states[-1]
    for c in (w.cycle1, w.cycle2):
        if c.length == 0 or c.states[0] != at or c.states[-1] != at:
            bad.append("a cycle does not start and end at the end of the access path")
    if w.cycle1.is_prefix_of(w.cycle2) or w.cycle2.is_prefix_of(w.cycle1):
        bad.append("one cycle is a prefix of the other")
    if out["census"].kind != "uncountable":
        bad.append(f"census says {out['census'].kind}, not uncountable")
    steps = w.access.length + w.cycle1.length + w.cycle2.length
    return bad, {"thinness.witness_steps": steps}


def check_ladder(out: dict, inst: dict) -> tuple[list[str], dict]:
    """rank(nf).major equals cb_rank, the round trip re-extracts nf, the
    encoding equals the tree domain, the census kind is the generator's."""
    bad = []
    if not out["verdict"].thin:
        bad.append("is_thin says non-thin on a thin input")
    want = inst["expect"]["census"]
    if out["census"].kind != want:
        bad.append(f"census says {out['census'].kind}, generator built {want}")
    if out["rank"].major != out["cb"]:
        bad.append(f"rank major {out['rank'].major} != cb_rank {out['cb']}")
    if not same_term(out["nf2"], out["nf"]):
        bad.append("re-extracting the round-tripped normal form changed it")
    if out["enc"] != out["dom"]:
        bad.append(f"enc differs from dom_tree at depth {ENC_DEPTH}")
    nodes, depth = term_shape(out["nf"])
    reach = len(out["mapping"])
    return bad, {
        "coalgebra.reachable_states": reach,
        "coalgebra.quotient_states": out["quotient"].coalg.n_states,
        "terms.nodes": nodes,
        "terms.depth": depth,
    }


def check_symmetric(out: dict, inst: dict) -> tuple[list[str], dict]:
    """The blow-up must be behaviourally equal to its base, with equal
    canonical keys and quotients of equal size."""
    bad = []
    q1, q2 = out["quotients"]
    if not out["equal"]:
        bad.append("beh_equal says the blow-up differs from its base")
    if out["keys"][0] != out["keys"][1]:
        bad.append("canonical keys of base and blow-up differ")
    if q1.coalg.n_states != q2.coalg.n_states:
        bad.append(f"quotient sizes differ: {q1.coalg.n_states} vs {q2.coalg.n_states}")
    return bad, {
        "coalgebra.reachable_states": sum(len(m) for m in out["mappings"]),
        "coalgebra.quotient_states": q1.coalg.n_states + q2.coalg.n_states,
    }


JOBS = {
    "nonthin": (job_nonthin, check_nonthin),
    "ladder": (job_ladder, check_ladder),
    "symmetric": (job_symmetric, check_symmetric),
}


if __name__ == "__main__":
    main(sys.argv[1:])
