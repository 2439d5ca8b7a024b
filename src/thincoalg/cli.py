"""Command-line front end.

Usage:
    thincoalg <command> [options]

Commands:
    validate    parse and validate a signature, coalgebra or term file
    check-thin  decide thinness of a pointed coalgebra
    paths       list bounded paths from the root
    rank        rank of a term
    normalize   normal form of a term
    eq          behavioural equality of two terms
    unfold      unfold a term into a coalgebra
    encode      position-word tree of a term (rigid signatures)
    cb-rank     derivative rank of a thin coalgebra
    gen         write a seeded random coalgebra or term file
    bench       time the thinness check on seeded random instances

Exit codes: 0 success or positive verdict, 1 negative verdict (non-thin,
not equal, expectation missed), 2 malformed input, usage error, or input
too deep or too large to process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .coalgebra import PointedCoalgebra, paths_to_depth
from .errors import CoalgebraError, NonThinError, SignatureError, TermError
from .files import (
    dump_coalgebra,
    dump_json,
    dump_path,
    dump_term,
    dump_witness,
    file_digest,
    load_coalgebra,
    load_signature,
    load_term,
)
from .generate import gen_coalgebra, gen_term
from .normalform import brute_force_normal, normalize
from .semantics import beh_equal_terms, unfold
from .signature import SignatureSpec
from .terms import Term, rank, term_size
from .thinness import is_thin, oracle_is_thin
from .treeenc import cb_rank, enc

ORACLE_STATE_LIMIT = 12
# The largest term size bound ``normalize --oracle`` enumerates: the pool
# grows about 5.5x per size, and bound 8 over c/u/b takes about 1.5 s.
ORACLE_BOUND_LIMIT = 8


def _input_entry(path: str) -> dict:
    return {"path": str(path), "sha256": file_digest(path)}


def _finish(args, inputs: dict, result: dict, human: list[str]) -> None:
    timing = (time.perf_counter() - args.started) * 1000.0
    if args.json:
        report = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "timing_ms": timing,
        }
        print(json.dumps(report, sort_keys=True))
    else:
        for line in human:
            print(line)


def _load_pointed(args) -> tuple[PointedCoalgebra, dict]:
    sig = load_signature(args.signature)
    coalg, file_root = load_coalgebra(args.coalgebra, sig=sig)
    root = args.root if args.root is not None else (file_root if file_root is not None else 0)
    inputs = {
        "signature": _input_entry(args.signature),
        "coalgebra": _input_entry(args.coalgebra),
    }
    return PointedCoalgebra(coalg, root), inputs


def _load_sig_term(args) -> tuple[SignatureSpec, Term, dict]:
    sig = load_signature(args.sig)
    t = load_term(args.term, sig)
    return sig, t, {"signature": _input_entry(args.sig), "term": _input_entry(args.term)}


# -- command handlers -----------------------------------------------------


def cmd_validate(args) -> int:
    inputs = {"file": _input_entry(args.file)}
    if args.kind == "signature":
        load_signature(args.file)
    elif args.kind == "coalgebra":
        sig = load_signature(args.sig) if args.sig else None
        if args.sig:
            inputs["signature"] = _input_entry(args.sig)
        coalg, root = load_coalgebra(args.file, sig=sig)
        if root is not None:
            PointedCoalgebra(coalg, root)
    else:
        if not args.sig:
            raise TermError("term validation needs --sig")
        inputs["signature"] = _input_entry(args.sig)
        load_term(args.file, load_signature(args.sig))
    _finish(args, inputs, {"valid": True, "kind": args.kind},
            [f"{args.file}: valid {args.kind}"])
    return 0


def cmd_check_thin(args) -> int:
    pc, inputs = _load_pointed(args)
    verdict = is_thin(pc)
    result: dict = {"thin": verdict.thin, "root": pc.root}
    human = [f"thin: {'yes' if verdict.thin else 'no'}"]
    if verdict.witness is not None:
        result["witness"] = dump_witness(verdict.witness)
        w = verdict.witness
        human.append(f"witness state: {w.cycle1.states[0]}")
        human.append(f"  access : {' '.join(map(str, w.access.flat_key()))}")
        human.append(f"  cycle 1: {' '.join(map(str, w.cycle1.flat_key()))}")
        human.append(f"  cycle 2: {' '.join(map(str, w.cycle2.flat_key()))}")
    if args.oracle:
        if pc.coalg.n_states > ORACLE_STATE_LIMIT:
            raise CoalgebraError(
                f"--oracle is limited to {ORACLE_STATE_LIMIT} states"
            )
        agrees = oracle_is_thin(pc, 2 * pc.coalg.n_states) == verdict.thin
        result["oracle_agrees"] = agrees
        human.append(f"oracle agrees: {'yes' if agrees else 'NO'}")
        if not agrees:
            _finish(args, inputs, result, human)
            print("error: oracle disagrees with linear check", file=sys.stderr)
            return 2
    _finish(args, inputs, result, human)
    if args.expect is not None:
        return 0 if (args.expect == "thin") == verdict.thin else 1
    return 0 if verdict.thin else 1


def cmd_paths(args) -> int:
    pc, inputs = _load_pointed(args)
    found = paths_to_depth(pc, args.depth)
    result = {"depth": args.depth, "count": len(found),
              "paths": [dump_path(p) for p in found]}
    human = [f"{len(found)} paths at depth {args.depth}"]
    human.extend(" ".join(map(str, p.flat_key())) for p in found)
    _finish(args, inputs, result, human)
    return 0


def cmd_rank(args) -> int:
    _, t, inputs = _load_sig_term(args)
    r = rank(t)
    _finish(args, inputs, {"major": r.major, "minor": r.minor}, [f"({r.major},{r.minor})"])
    return 0


def cmd_normalize(args) -> int:
    sig, t, inputs = _load_sig_term(args)
    nf = normalize(sig, t)
    doc = dump_term(nf)
    r = rank(nf)
    result: dict = {"term": doc, "rank": {"major": r.major, "minor": r.minor}}
    human = [json.dumps(doc, sort_keys=True), f"rank: ({r.major},{r.minor})"]
    if args.oracle:
        bound = args.bound if args.bound is not None else max(term_size(t), term_size(nf)) + 1
        if bound > ORACLE_BOUND_LIMIT:
            raise TermError(f"--oracle is limited to size bound {ORACLE_BOUND_LIMIT}, got {bound}")
        agrees = brute_force_normal(sig, t, bound) == nf
        result["oracle_agrees"] = agrees
        human.append(f"oracle agrees: {'yes' if agrees else 'NO'}")
        if not agrees:
            print("error: oracle disagrees with normalize", file=sys.stderr)
            _finish(args, inputs, result, human)
            return 2
    if args.out:
        dump_json(args.out, doc)
        human.append(f"wrote {args.out}")
    _finish(args, inputs, result, human)
    return 0


def cmd_eq(args) -> int:
    sig = load_signature(args.sig)
    a = load_term(args.term_a, sig)
    b = load_term(args.term_b, sig)
    equal = beh_equal_terms(sig, a, b)
    inputs = {
        "signature": _input_entry(args.sig),
        "term_a": _input_entry(args.term_a),
        "term_b": _input_entry(args.term_b),
    }
    _finish(args, inputs, {"equal": equal}, ["equal" if equal else "not equal"])
    return 0 if equal else 1


def cmd_unfold(args) -> int:
    sig, t, inputs = _load_sig_term(args)
    pc = unfold(sig, t).pc
    doc = dump_coalgebra(pc.coalg, root=pc.root)
    result = {"states": pc.coalg.n_states, "root": pc.root}
    human = [f"{pc.coalg.n_states} states"]
    if args.out:
        dump_json(args.out, doc)
        human.append(f"wrote {args.out}")
    else:
        result["coalgebra"] = doc
        human.insert(0, json.dumps(doc, sort_keys=True))
    _finish(args, inputs, result, human)
    return 0


def cmd_encode(args) -> int:
    sig, t, inputs = _load_sig_term(args)
    tree = enc(sig, t, args.depth)
    words = sorted(tree.words, key=lambda w: (len(w), w))
    result = {"depth": args.depth, "words": [list(w) for w in words]}
    human = ["".join(map(str, w)) if w else "ε" for w in words]
    _finish(args, inputs, result, human)
    return 0


def cmd_cb_rank(args) -> int:
    pc, inputs = _load_pointed(args)
    value = cb_rank(pc)
    _finish(args, inputs, {"cb_rank": value}, [str(value)])
    return 0


def cmd_gen(args) -> int:
    sig = load_signature(args.sig)
    if args.kind == "coalgebra":
        pc = gen_coalgebra(sig, args.size, args.seed, weights=args.weights, root=args.root)
        doc = dump_coalgebra(pc.coalg, root=pc.root)
    else:
        doc = dump_term(gen_term(sig, args.size, args.seed))
    dump_json(args.out, doc)
    result = {"path": str(args.out), "sha256": file_digest(args.out)}
    _finish(args, {"signature": _input_entry(args.sig)}, result,
            [f"wrote {args.out} ({result['sha256'][:12]})"])
    return 0


def cmd_bench(args) -> int:
    sig = load_signature(args.sig)
    runs = []
    human = []
    for i, n in enumerate(args.sizes):
        t0 = time.perf_counter()
        pc = gen_coalgebra(sig, n, args.seed + i)
        t1 = time.perf_counter()
        verdict = is_thin(pc)
        t2 = time.perf_counter()
        runs.append({
            "states": n,
            "gen_ms": (t1 - t0) * 1000.0,
            "check_ms": (t2 - t1) * 1000.0,
            "thin": verdict.thin,
        })
        human.append(
            f"{n} states: gen {runs[-1]['gen_ms']:.1f} ms, "
            f"check {runs[-1]['check_ms']:.1f} ms, "
            f"{'thin' if verdict.thin else 'non-thin'}"
        )
    result: dict = {"runs": runs}
    if len(runs) >= 2 and runs[0]["check_ms"] > 0:
        result["check_ratio"] = runs[-1]["check_ms"] / runs[0]["check_ms"]
        human.append(f"check ratio last/first: {result['check_ratio']:.2f}")
    _finish(args, {"signature": _input_entry(args.sig)}, result, human)
    return 0


# -- parser ---------------------------------------------------------------


def _weight_list(text: str) -> list[float]:
    try:
        return [float(w) for w in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _int_at_least(low: int, name: str):
    """An argument type: an integer of at least ``low``, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a {name} integer, got {text!r}")

    return parse


def _size_list(text: str) -> list[int]:
    try:
        sizes = [int(s) for s in text.split(",")]
        if min(sizes) > 0:
            return sizes
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated positive integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thincoalg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable run report")

    p = sub.add_parser("validate", parents=[common], help="validate an input file")
    p.add_argument("file")
    p.add_argument("--kind", required=True,
                   choices=["signature", "coalgebra", "term"])
    p.add_argument("--sig", help="signature file (for term or coalgebra files)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-thin", parents=[common], help="decide thinness")
    p.add_argument("signature")
    p.add_argument("coalgebra")
    p.add_argument("--root", type=int)
    p.add_argument("--expect", choices=["thin", "nonthin"])
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the bounded-cycle oracle")
    p.set_defaults(func=cmd_check_thin)

    p = sub.add_parser("paths", parents=[common], help="list bounded paths")
    p.add_argument("signature")
    p.add_argument("coalgebra")
    p.add_argument("--depth", type=_int_at_least(0, "nonnegative"), required=True)
    p.add_argument("--root", type=int)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("rank", parents=[common], help="rank of a term")
    p.add_argument("term")
    p.add_argument("--sig", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("normalize", parents=[common], help="normal form of a term")
    p.add_argument("term")
    p.add_argument("--sig", required=True)
    p.add_argument("-o", "--out")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force search")
    p.add_argument("--bound", type=int, help="size bound for --oracle")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("eq", parents=[common], help="behavioural equality of terms")
    p.add_argument("term_a")
    p.add_argument("term_b")
    p.add_argument("--sig", required=True)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("unfold", parents=[common], help="unfold a term")
    p.add_argument("term")
    p.add_argument("--sig", required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("encode", parents=[common], help="position-word tree")
    p.add_argument("term")
    p.add_argument("--sig", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("cb-rank", parents=[common], help="derivative rank of the runs")
    p.add_argument("signature")
    p.add_argument("coalgebra")
    p.add_argument("--root", type=int)
    p.set_defaults(func=cmd_cb_rank)

    p = sub.add_parser("gen", parents=[common], help="write a random input file")
    p.add_argument("kind", choices=["coalgebra", "term"])
    p.add_argument("--sig", required=True)
    p.add_argument("--size", type=_int_at_least(1, "positive"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--weights", type=_weight_list,
                   help="comma-separated per-op weights (coalgebra)")
    p.add_argument("--root", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", parents=[common], help="time the thinness check")
    p.add_argument("--sig", required=True)
    p.add_argument("--sizes", type=_size_list, required=True,
                   help="comma-separated state counts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # Every report's timing_ms counts from here; ``_finish`` reads it.
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except (SignatureError, CoalgebraError, TermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonThinError as exc:
        print("error: input is not thin", file=sys.stderr)
        if exc.verdict.witness is not None:
            print(json.dumps(dump_witness(exc.verdict.witness), sort_keys=True),
                  file=sys.stderr)
        return 1
    except (OSError, RecursionError, MemoryError) as exc:
        # Exit code 1 means a negative verdict, so resource failures are 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
