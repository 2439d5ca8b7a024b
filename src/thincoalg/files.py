"""JSON file formats for signatures, coalgebras, terms, paths and witnesses.

Loaders validate structure and raise the matching ``ValueError`` subclass
with a readable message; dumpers emit canonical layouts, so load(dump(x))
returns x for every signature and term, and for every coalgebra whose
elements are canonical (see ``Coalgebra``): the loader canonicalizes each
row, so an uncanonical one comes back as its orbit minimum.  ``dump_json``
writes deterministic bytes (sorted keys, fixed separators) so generated
files are reproducible byte for byte.  Loading coalgebras and terms, and
dumping coalgebras, pause the collector (``coalgebra._collector_paused``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from .coalgebra import Coalgebra, FinitePath, _collector_paused
from .errors import CoalgebraError, SignatureError, TermError
from .signature import OperationSymbol, SignatureSpec
from .terms import FNode, GNode, LassoStream, Term
from .thinness import ThinWitness


def dump_json(path: str | Path, obj: Any) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load(data: Any) -> Any:
    if isinstance(data, (str, Path)):
        try:
            return json.loads(Path(data).read_text(encoding="utf-8"))
        except OSError as exc:
            raise SignatureError(f"cannot read {data}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SignatureError(f"invalid JSON in {data}: {exc}") from exc
    return data


def _is_int(x: Any) -> bool:
    """A JSON integer.  ``bool`` is a subclass of ``int``, so ``true`` and
    ``false`` pass ``isinstance(x, int)``; here they are no integers."""
    return type(x) is int


def _is_int_list(xs: Any) -> bool:
    # ``_is_int`` inlined: every row of a loaded coalgebra passes here.
    return isinstance(xs, list) and all(type(x) is int for x in xs)


# -- signatures -----------------------------------------------------------


def load_signature(src: Any) -> SignatureSpec:
    data = _load(src)
    if not isinstance(data, dict) or "ops" not in data:
        raise SignatureError("signature document must be an object with 'ops'")
    ops = []
    if not isinstance(data["ops"], list):
        raise SignatureError("'ops' must be a list")
    for entry in data["ops"]:
        if not isinstance(entry, dict):
            raise SignatureError("each op must be an object")
        unknown = set(entry) - {"id", "arity", "generators"}
        if unknown:
            raise SignatureError(f"unknown op fields {sorted(unknown)}")
        if not isinstance(entry.get("id"), str):
            raise SignatureError("op 'id' must be a string")
        if not _is_int(entry.get("arity")):
            raise SignatureError(f"op {entry.get('id')!r}: 'arity' must be an integer")
        gens = entry.get("generators", [])
        if not isinstance(gens, list) or not all(map(_is_int_list, gens)):
            raise SignatureError(
                f"op {entry['id']!r}: 'generators' must be a list of integer lists"
            )
        ops.append(
            OperationSymbol(entry["id"], entry["arity"], tuple(tuple(g) for g in gens))
        )
    return SignatureSpec(ops)


def dump_signature(sig: SignatureSpec) -> dict:
    return {
        "ops": [
            {"id": op.id, "arity": op.arity, "generators": [list(g) for g in op.generators]}
            for op in sig.ops
        ]
    }


# -- coalgebras -----------------------------------------------------------


@_collector_paused()
def load_coalgebra(
    src: Any, sig: SignatureSpec | None = None
) -> tuple[Coalgebra, int | None]:
    """Load a coalgebra and its optional root.

    The document's "signature" may be inline or a path relative to the
    document's own location; an explicit ``sig`` argument wins over both.
    """
    base_dir = Path(src).parent if isinstance(src, (str, Path)) else Path(".")
    data = _load(src)
    if not isinstance(data, dict):
        raise CoalgebraError("coalgebra document must be an object")
    if sig is None:
        ref = data.get("signature")
        if ref is None:
            raise CoalgebraError("no signature: pass one or embed 'signature'")
        sig = load_signature(base_dir / ref if isinstance(ref, str) else ref)
    n = data.get("states")
    if not _is_int(n) or n < 0:
        raise CoalgebraError("'states' must be a nonnegative integer")
    rows = data.get("transitions")
    if not isinstance(rows, list) or len(rows) != n:
        raise CoalgebraError(f"'transitions' must list exactly {n} entries")
    transitions = []
    for s, row in enumerate(rows):
        if not isinstance(row, dict) or not isinstance(row.get("op"), str):
            raise CoalgebraError(f"state {s}: transition needs an 'op' string")
        tup = row.get("tuple", [])
        if not _is_int_list(tup):
            raise CoalgebraError(f"state {s}: 'tuple' must be a list of integers")
        transitions.append(sig.canonical_tuple(row["op"], tup))
    coalg = Coalgebra(sig, tuple(transitions))
    root = data.get("root")
    if root is not None and not _is_int(root):
        raise CoalgebraError("'root' must be an integer")
    if root is not None and not 0 <= root < n:
        raise CoalgebraError(f"root {root} out of range")
    return coalg, root


@_collector_paused()
def dump_coalgebra(c: Coalgebra, root: int | None = None) -> dict:
    doc: dict[str, Any] = {
        "signature": dump_signature(c.sig),
        "states": c.n_states,
        "transitions": [
            {"op": e.op, "tuple": list(e.args)} for e in c.transition
        ],
    }
    if root is not None:
        doc["root"] = root
    return doc


# -- terms ----------------------------------------------------------------


def _open_term(data: Any) -> tuple:
    """Check a term node before its children; returns its build frame."""
    if not isinstance(data, dict) or len(data) != 1:
        raise TermError("term node must be an object with exactly 'f' or 'g'")
    if "f" in data:
        body = data["f"]
        if not isinstance(body, dict) or not isinstance(body.get("op"), str):
            raise TermError("branching node needs an 'op' string")
        children = body.get("children", [])
        if not isinstance(children, list):
            raise TermError("'children' must be a list")
        return ("f", body["op"], None, children, [])
    if "g" in data:
        body = data["g"]
        if not isinstance(body, dict):
            raise TermError("stream node must be an object")
        prefix = body.get("prefix", [])
        period = body.get("period")
        if not isinstance(prefix, list) or not isinstance(period, list):
            raise TermError("stream node needs 'prefix' and 'period' lists")
        if not period:
            raise TermError("stream period must be nonempty")
        return ("g", None, len(prefix), prefix + period, [])
    raise TermError("term node must contain 'f' or 'g'")


def _open_ctx(data: Any) -> tuple:
    """Check a context before its sides; returns its build frame."""
    if not isinstance(data, dict) or not isinstance(data.get("op"), str):
        raise TermError("context needs an 'op' string")
    if not _is_int(data.get("hole")):
        raise TermError(f"context over {data.get('op')!r} needs an integer 'hole'")
    sides = data.get("sides", [])
    if not isinstance(sides, list):
        raise TermError("'sides' must be a list")
    return ("c", data["op"], data["hole"], sides, [])


def _term_from(data: Any, sig: SignatureSpec) -> Term:
    """Build a term from its JSON document on an explicit stack.

    Each node is checked before its children and built after them, left to
    right, so the first error raised is the one a depth-first reading meets.
    A frame is (kind, op, hole or prefix length, child documents, children
    built so far); the children of a stream node are contexts.
    """
    stack = [_open_term(data)]
    while True:
        kind, op, extra, children, built = stack[-1]
        if len(built) < len(children):
            child = children[len(built)]
            stack.append(_open_ctx(child) if kind == "g" else _open_term(child))
            continue
        stack.pop()
        if kind == "f":
            value = FNode(sig.canonical_tuple(op, built))
        elif kind == "g":
            value = GNode(LassoStream(tuple(built[:extra]), tuple(built[extra:])))
        else:
            value = sig.canonical_context(op, extra, built)
        if not stack:
            return value
        stack[-1][4].append(value)


@_collector_paused()
def load_term(src: Any, sig: SignatureSpec) -> Term:
    return _term_from(_load(src), sig)


def dump_term(t: Term) -> dict:
    """The JSON document of ``t``, one nested object per node occurrence."""
    root: dict = {}
    stack = [(t, root)]
    while stack:
        u, out = stack.pop()
        if isinstance(u, FNode):
            children = [{} for _ in u.elem.args]
            out["f"] = {"op": u.elem.op, "children": children}
            stack.extend(zip(u.elem.args, children))
            continue
        lists = []
        for ctxs in (u.stream.prefix, u.stream.period):
            docs = []
            for ctx in ctxs:
                sides = [{} for _ in ctx.sides]
                docs.append({"op": ctx.op, "hole": ctx.hole, "sides": sides})
                stack.extend(zip(ctx.sides, sides))
            lists.append(docs)
        out["g"] = {"prefix": lists[0], "period": lists[1]}
    return root


# -- paths and witnesses --------------------------------------------------


def dump_path(p: FinitePath) -> dict:
    return {"states": list(p.states), "indices": list(p.indices)}


def dump_witness(w: ThinWitness) -> dict:
    return {
        "access": dump_path(w.access),
        "cycle1": dump_path(w.cycle1),
        "cycle2": dump_path(w.cycle2),
    }
