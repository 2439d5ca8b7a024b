"""JSON round-trips, schema conformance, and loader error reporting."""

import hashlib
import json
import random
from importlib import resources

import jsonschema
import pytest
from referencing import Registry, Resource

from thincoalg import (
    CoalgebraError,
    OperationSymbol,
    SignatureError,
    SignatureSpec,
    TermError,
)
from thincoalg.coalgebra import Coalgebra, FinitePath
from thincoalg.files import (
    dump_coalgebra,
    dump_json,
    dump_path,
    dump_signature,
    dump_term,
    dump_witness,
    file_digest,
    load_coalgebra,
    load_signature,
    load_term,
)
from thincoalg.generate import gen_coalgebra, rand_term
from thincoalg.thinness import is_thin


def _schema(name):
    path = resources.files("thincoalg") / "schemas" / name
    return json.loads(path.read_text(encoding="utf-8"))


def _validator(name):
    registry = Registry(retrieve=lambda uri: Resource.from_contents(_schema(uri)))
    return jsonschema.Draft7Validator(_schema(name), registry=registry)


# -- deterministic bytes --------------------------------------------------


def test_dump_json_bytes_are_canonical(tmp_path):
    out = tmp_path / "doc.json"
    dump_json(out, {"b": 2, "a": 1})
    assert out.read_bytes() == b'{"a":1,"b":2}\n'
    assert file_digest(out) == hashlib.sha256(b'{"a":1,"b":2}\n').hexdigest()
    # rewriting the same object reproduces the digest
    again = tmp_path / "doc2.json"
    dump_json(again, {"a": 1, "b": 2})
    assert file_digest(again) == file_digest(out)


# -- round-trips ----------------------------------------------------------


def test_signature_round_trip(sig_poly, sig_bag, sig_server):
    for sig in (sig_poly, sig_bag, sig_server):
        assert load_signature(dump_signature(sig)) == sig


def test_coalgebra_round_trip(server_pc, bag_ss, bag_tree, sig_bag, sig_server):
    # Canonical coalgebras, from the fixtures and from the generator over
    # bags, a server and rotation groups (C_3 and D_6, whose orbit minima
    # are least images, not sorted orbits), come back equal.
    rotations = SignatureSpec(
        [
            OperationSymbol("z", 0),
            OperationSymbol("c3", 3, ((1, 2, 0),)),
            OperationSymbol("d6", 6, ((1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0))),
        ]
    )
    generated = [
        gen_coalgebra(sig, n, seed, root=n - 1)
        for sig in (sig_bag, sig_server, rotations)
        for n, seed in ((1, 1), (7, 2), (60, 3))
    ]
    for pc in (server_pc, bag_ss, bag_tree, *generated):
        doc = dump_coalgebra(pc.coalg, root=pc.root)
        coalg, root = load_coalgebra(json.loads(json.dumps(doc)))
        assert coalg == pc.coalg
        assert root == pc.root


def test_coalgebra_without_root(u_loop):
    coalg, root = load_coalgebra(dump_coalgebra(u_loop.coalg))
    assert coalg == u_loop.coalg
    assert root is None


def test_term_round_trip(sig_poly, sig_bag, sig_server):
    rng = random.Random(2024)
    for sig in (sig_poly, sig_bag, sig_server):
        for _ in range(40):
            t = rand_term(sig, rng.randrange(1, 14), rng)
            assert load_term(dump_term(t), sig) == t


def test_term_files_round_trip_on_disk(tmp_path, sig_server):
    rng = random.Random(7)
    t = rand_term(sig_server, 10, rng)
    path = tmp_path / "t.json"
    dump_json(path, dump_term(t))
    assert load_term(path, sig_server) == t
    assert load_term(str(path), sig_server) == t


# -- signature resolution -------------------------------------------------


def test_signature_path_resolves_relative_to_document(tmp_path, sig_poly, u_loop):
    dump_json(tmp_path / "poly.sig.json", dump_signature(sig_poly))
    doc = dump_coalgebra(u_loop.coalg, root=0)
    doc["signature"] = "poly.sig.json"
    dump_json(tmp_path / "c.json", doc)
    coalg, root = load_coalgebra(tmp_path / "c.json")
    assert coalg == u_loop.coalg and root == 0


def test_explicit_signature_wins(tmp_path, sig_poly, u_loop):
    doc = dump_coalgebra(u_loop.coalg, root=0)
    doc["signature"] = "does-not-exist.json"
    dump_json(tmp_path / "c.json", doc)
    coalg, _ = load_coalgebra(tmp_path / "c.json", sig=sig_poly)
    assert coalg == u_loop.coalg
    with pytest.raises(SignatureError, match="cannot read"):
        load_coalgebra(tmp_path / "c.json")


# -- loader errors --------------------------------------------------------


def test_unreadable_and_invalid_files(tmp_path):
    with pytest.raises(SignatureError, match="cannot read"):
        load_signature(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SignatureError, match="invalid JSON"):
        load_signature(bad)


def test_signature_loader_rejections():
    with pytest.raises(SignatureError, match="'ops'"):
        load_signature({"operations": []})
    with pytest.raises(SignatureError, match="unknown op fields"):
        load_signature({"ops": [{"id": "c", "arity": 0, "extra": 1}]})
    with pytest.raises(SignatureError, match="'id'"):
        load_signature({"ops": [{"id": 3, "arity": 0}]})
    with pytest.raises(SignatureError, match="'arity'"):
        load_signature({"ops": [{"id": "c", "arity": "0"}]})
    with pytest.raises(SignatureError, match="generators"):
        load_signature({"ops": [{"id": "u", "arity": 1, "generators": [0]}]})
    # JSON booleans are no integers, although Python counts bool as int.
    with pytest.raises(SignatureError, match="'arity'"):
        load_signature({"ops": [{"id": "u", "arity": True}]})
    with pytest.raises(SignatureError, match="generators"):
        load_signature({"ops": [{"id": "p", "arity": 2, "generators": [[True, False]]}]})


def test_coalgebra_loader_rejections(sig_poly, sig_bag):
    with pytest.raises(CoalgebraError, match="object"):
        load_coalgebra([], sig=sig_poly)
    with pytest.raises(CoalgebraError, match="no signature"):
        load_coalgebra({"states": 0, "transitions": []})
    with pytest.raises(CoalgebraError, match="'states'"):
        load_coalgebra({"states": -1, "transitions": []}, sig=sig_poly)
    with pytest.raises(CoalgebraError, match="exactly 1"):
        load_coalgebra({"states": 1, "transitions": []}, sig=sig_poly)
    with pytest.raises(CoalgebraError, match="'op'"):
        load_coalgebra({"states": 1, "transitions": [{}]}, sig=sig_poly)
    with pytest.raises(CoalgebraError, match="'tuple'"):
        load_coalgebra(
            {"states": 1, "transitions": [{"op": "u", "tuple": ["0"]}]},
            sig=sig_poly,
        )
    with pytest.raises(CoalgebraError, match="root"):
        load_coalgebra(
            {"states": 1, "transitions": [{"op": "u", "tuple": [0]}], "root": 1},
            sig=sig_poly,
        )
    # JSON booleans are no integers, although Python counts bool as int.
    with pytest.raises(CoalgebraError, match="'states'"):
        load_coalgebra({"states": True, "transitions": [{"op": "c"}]}, sig=sig_poly)
    with pytest.raises(CoalgebraError, match="'tuple'"):
        load_coalgebra(
            {"states": 1, "transitions": [{"op": "u", "tuple": [False]}]},
            sig=sig_poly,
        )
    with pytest.raises(CoalgebraError, match="'root' must be an integer"):
        load_coalgebra(
            {"states": 1, "transitions": [{"op": "u", "tuple": [0]}], "root": False},
            sig=sig_poly,
        )
    # The first error raised and its exact message.  Ops and arities are
    # checked row by row, successor ranges once every row has passed.
    u0, b00 = {"op": "u", "tuple": [0]}, {"op": "b", "tuple": [0, 0]}
    cases = [
        (sig_poly, [u0, {"op": "nope", "tuple": []}], SignatureError,
         "unknown operation 'nope'"),
        (sig_poly, [u0, b00, {"op": "u", "tuple": [0, 1]}], SignatureError,
         "'u' expects 1 arguments, got 2"),
        (sig_poly, [u0, b00, {"op": "b", "tuple": [1, 3]}], CoalgebraError,
         "state 2: successor 3 out of range"),
        (sig_poly, [{"op": "u", "tuple": [5]}, {"op": "nope", "tuple": []}], SignatureError,
         "unknown operation 'nope'"),
        (sig_bag, [{"op": "b2", "tuple": [0, -1]}], CoalgebraError,
         "state 0: successor -1 out of range"),
    ]
    for sig, rows, error, message in cases:
        with pytest.raises(error) as info:
            load_coalgebra({"states": len(rows), "transitions": rows}, sig=sig)
        assert str(info.value) == message


def test_term_loader_rejections(sig_poly):
    with pytest.raises(TermError, match="exactly"):
        load_term({"f": {"op": "c"}, "g": {"period": []}}, sig_poly)
    with pytest.raises(TermError, match="'op'"):
        load_term({"f": {"children": []}}, sig_poly)
    with pytest.raises(TermError, match="period"):
        load_term({"g": {"prefix": []}}, sig_poly)
    with pytest.raises(TermError, match="nonempty"):
        load_term({"g": {"period": []}}, sig_poly)
    with pytest.raises(TermError, match="hole"):
        load_term({"g": {"period": [{"op": "u"}]}}, sig_poly)
    with pytest.raises(TermError, match="integer 'hole'"):
        load_term({"g": {"period": [{"op": "u", "hole": False}]}}, sig_poly)
    with pytest.raises(TermError, match="'f' or 'g'"):
        load_term({"x": {}}, sig_poly)


# -- schema conformance ---------------------------------------------------


def test_dumped_documents_satisfy_the_schemas(
    sig_poly, sig_bag, sig_server, server_pc, bag_ss
):
    sig_v = _validator("signature.schema.json")
    coalg_v = _validator("coalgebra.schema.json")
    term_v = _validator("term.schema.json")
    for sig in (sig_poly, sig_bag, sig_server):
        sig_v.validate(dump_signature(sig))
    for pc in (server_pc, bag_ss):
        coalg_v.validate(dump_coalgebra(pc.coalg, root=pc.root))
    rng = random.Random(11)
    for sig in (sig_poly, sig_server):
        for _ in range(25):
            term_v.validate(dump_term(rand_term(sig, rng.randrange(1, 12), rng)))


def test_schemas_reject_malformed_documents():
    sig_v = _validator("signature.schema.json")
    assert list(sig_v.iter_errors({"ops": [{"id": 1, "arity": 0}]}))
    assert list(sig_v.iter_errors({"ops": [{"id": "c"}]}))
    coalg_v = _validator("coalgebra.schema.json")
    assert list(coalg_v.iter_errors({"states": "1", "transitions": []}))
    term_v = _validator("term.schema.json")
    assert list(term_v.iter_errors({"f": {"op": "c"}, "g": {"period": []}}))
    assert list(term_v.iter_errors({"g": {"prefix": []}}))


# -- paths and witnesses --------------------------------------------------


def test_path_and_witness_dumps(bag_ss):
    assert dump_path(FinitePath((0, 1, 2), (1, 0))) == {
        "states": [0, 1, 2],
        "indices": [1, 0],
    }
    doc = dump_witness(is_thin(bag_ss).witness)
    assert doc == {
        "access": {"states": [0], "indices": []},
        "cycle1": {"states": [0, 0], "indices": [0]},
        "cycle2": {"states": [0, 0], "indices": [1]},
    }
