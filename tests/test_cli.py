"""End-to-end command-line checks: exit codes, reports, and byte determinism."""

import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest
from referencing import Registry, Resource

from conftest import build
from thincoalg import cli
from thincoalg.files import (
    dump_coalgebra,
    dump_json,
    dump_signature,
    dump_term,
    file_digest,
)
from thincoalg.signature import SignatureSpec
from thincoalg.terms import FNode, GNode, LassoStream, unfold_step


def run(*argv, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "thincoalg.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _schema(name):
    path = resources.files("thincoalg") / "schemas" / name
    return json.loads(path.read_text(encoding="utf-8"))


def _report_of(proc):
    report = json.loads(proc.stdout)
    registry = Registry(retrieve=lambda uri: Resource.from_contents(_schema(uri)))
    jsonschema.Draft7Validator(_schema("report.schema.json"), registry=registry).validate(
        report
    )
    for entry in report["inputs"].values():
        assert entry["sha256"] == file_digest(entry["path"])
    return report


@pytest.fixture(scope="module")
def files(tmp_path_factory, sig_poly, sig_bag, sig_server, u_loop, bag_ss, server_pc):
    d = tmp_path_factory.mktemp("clifiles")
    Fc = FNode(sig_poly.canonical_tuple("c", ()))
    uomega = GNode(LassoStream((), (sig_poly.canonical_context("u", 0, ()),)))
    paths = {
        "dir": d,
        "poly_sig": d / "poly.sig.json",
        "bag_sig": d / "bag.sig.json",
        "server_sig": d / "server.sig.json",
        "uloop": d / "uloop.coalg.json",
        "noroot": d / "noroot.coalg.json",
        "bagss": d / "bagss.coalg.json",
        "server": d / "server.coalg.json",
        "fullbin": d / "fullbin.coalg.json",
        "rootdep": d / "rootdep.coalg.json",
        "uomega": d / "uomega.term.json",
        "ustep": d / "ustep.term.json",
        "const": d / "const.term.json",
        "bagz": d / "bagz.term.json",
        "bad": d / "bad.json",
        "uomega_term": uomega,
    }
    dump_json(paths["poly_sig"], dump_signature(sig_poly))
    dump_json(paths["bag_sig"], dump_signature(sig_bag))
    dump_json(paths["server_sig"], dump_signature(sig_server))
    dump_json(paths["uloop"], dump_coalgebra(u_loop.coalg, root=0))
    dump_json(paths["noroot"], dump_coalgebra(u_loop.coalg))
    dump_json(paths["bagss"], dump_coalgebra(bag_ss.coalg, root=0))
    dump_json(paths["server"], dump_coalgebra(server_pc.coalg, root=0))
    fullbin = build(sig_poly, [("b", (0, 0))])
    dump_json(paths["fullbin"], dump_coalgebra(fullbin.coalg, root=0))
    rootdep = build(sig_poly, [("u", (0,)), ("b", (1, 1))])
    dump_json(paths["rootdep"], dump_coalgebra(rootdep.coalg, root=0))
    dump_json(paths["uomega"], dump_term(uomega))
    dump_json(paths["ustep"], dump_term(unfold_step(sig_poly, uomega)))
    dump_json(paths["const"], dump_term(Fc))
    dump_json(paths["bagz"], dump_term(FNode(sig_bag.canonical_tuple("b0", ()))))
    paths["bad"].write_text("{not json", encoding="utf-8")
    return paths


# -- validate -------------------------------------------------------------


def test_validate_accepts_well_formed_inputs(files):
    assert run("validate", str(files["poly_sig"]), "--kind", "signature").returncode == 0
    assert (
        run(
            "validate", str(files["uloop"]), "--kind", "coalgebra",
            "--sig", str(files["poly_sig"]),
        ).returncode
        == 0
    )
    # the embedded signature suffices
    assert run("validate", str(files["uloop"]), "--kind", "coalgebra").returncode == 0
    assert (
        run(
            "validate", str(files["uomega"]), "--kind", "term",
            "--sig", str(files["poly_sig"]),
        ).returncode
        == 0
    )


def test_validate_rejects_malformed_inputs(files):
    proc = run("validate", str(files["bad"]), "--kind", "signature")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert run("validate", str(files["uomega"]), "--kind", "term").returncode == 2
    missing = files["dir"] / "missing.json"
    assert run("validate", str(missing), "--kind", "signature").returncode == 2


def test_validate_report(files):
    proc = run("validate", str(files["poly_sig"]), "--kind", "signature", "--json")
    assert proc.returncode == 0
    report = _report_of(proc)
    assert report["command"] == "validate"
    assert report["result"] == {"valid": True, "kind": "signature"}


# -- check-thin -----------------------------------------------------------


def test_check_thin_verdicts(files):
    proc = run("check-thin", str(files["poly_sig"]), str(files["uloop"]))
    assert proc.returncode == 0
    assert "thin: yes" in proc.stdout
    proc = run("check-thin", str(files["bag_sig"]), str(files["bagss"]))
    assert proc.returncode == 1
    assert "thin: no" in proc.stdout
    assert "witness state: 0" in proc.stdout


def test_check_thin_expectations(files):
    args = ("check-thin", str(files["bag_sig"]), str(files["bagss"]))
    assert run(*args, "--expect", "nonthin").returncode == 0
    assert run(*args, "--expect", "thin").returncode == 1


def test_check_thin_root_selection(files):
    # file root 0 sees only the plain loop; root 1 sits on the doubled pair
    args = ("check-thin", str(files["poly_sig"]), str(files["rootdep"]))
    assert run(*args).returncode == 0
    assert run(*args, "--root", "1").returncode == 1
    # a file without a root defaults to state 0
    assert (
        run("check-thin", str(files["poly_sig"]), str(files["noroot"])).returncode == 0
    )


def test_check_thin_oracle(files, tmp_path):
    proc = run(
        "check-thin", str(files["bag_sig"]), str(files["bagss"]), "--oracle"
    )
    assert proc.returncode == 1
    assert "oracle agrees: yes" in proc.stdout
    big = tmp_path / "big.coalg.json"
    assert (
        run(
            "gen", "coalgebra", "--sig", str(files["bag_sig"]),
            "--size", "13", "--seed", "0", "-o", str(big),
        ).returncode
        == 0
    )
    proc = run("check-thin", str(files["bag_sig"]), str(big), "--oracle")
    assert proc.returncode == 2
    assert "limited" in proc.stderr


def test_check_thin_oracle_on_branchy_input(tmp_path):
    # Eight states over rigid ops of arity 1..5 carry too many cycles of
    # length up to 16 to list; the oracle stops at the first incomparable pair.
    sig = tmp_path / "rigid.sig.json"
    sig.write_text(
        json.dumps({"ops": [{"id": f"a{k}", "arity": k} for k in range(1, 6)]}),
        encoding="utf-8",
    )
    coalg = tmp_path / "branchy.coalg.json"
    args = ("--size", "8", "--seed", "0", "-o", str(coalg))
    assert run("gen", "coalgebra", "--sig", str(sig), *args).returncode == 0
    proc = run("check-thin", str(sig), str(coalg), "--oracle", timeout=20)
    assert proc.returncode == 1
    assert proc.stdout.endswith("oracle agrees: yes\n")


def test_check_thin_report_carries_witness(files):
    proc = run("check-thin", str(files["bag_sig"]), str(files["bagss"]), "--json")
    assert proc.returncode == 1
    report = _report_of(proc)
    assert report["result"]["thin"] is False
    assert report["result"]["witness"]["cycle1"] == {"states": [0, 0], "indices": [0]}


# -- paths, rank, eq ------------------------------------------------------


def test_paths_output(files):
    proc = run(
        "paths", str(files["poly_sig"]), str(files["uloop"]), "--depth", "3"
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1 paths at depth 3", "0 0 0 0 0 0 0"]
    report = _report_of(
        run("paths", str(files["poly_sig"]), str(files["uloop"]), "--depth", "3", "--json")
    )
    assert report["result"]["count"] == 1


def test_paths_depth_must_be_nonnegative(files):
    # Depth 0 lists the root alone; a negative depth is a usage error, as
    # it is for encode, not "0 paths".
    proc = run("paths", str(files["poly_sig"]), str(files["uloop"]), "--depth", "0")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1 paths at depth 0", "0"]
    for depth in ("-1", "x"):
        proc = run("paths", str(files["poly_sig"]), str(files["uloop"]), "--depth", depth)
        assert proc.returncode == 2, depth
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage:") and "nonnegative integer" in proc.stderr


def test_paths_deeper_than_the_recursion_limit(files, capsys):
    # One u-loop has exactly one path at every depth, however deep.
    depth = 2000
    assert sys.getrecursionlimit() < depth
    code = cli.main(
        ["paths", str(files["poly_sig"]), str(files["uloop"]), "--depth", str(depth)]
    )
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"1 paths at depth {depth}", " ".join(["0"] * (2 * depth + 1))]


def test_rank_output(files):
    for term, want in (("uomega", "(1,0)"), ("ustep", "(1,1)"), ("const", "(0,1)")):
        proc = run("rank", str(files[term]), "--sig", str(files["poly_sig"]))
        assert proc.returncode == 0
        assert proc.stdout.strip() == want


def test_rank_on_deeply_nested_term_exits_2(files, tmp_path):
    # u(u(...c)) nested 2000 deep is valid but overflows the JSON reader's
    # recursion; that must not be reported as exit code 1 ("not thin").
    depth = 2000
    deep = tmp_path / "deep.term.json"
    deep.write_text(
        '{"f":{"op":"u","children":[' * depth
        + '{"f":{"op":"c","children":[]}}'
        + "]}}" * depth,
        encoding="utf-8",
    )
    proc = run("rank", str(deep), "--sig", str(files["poly_sig"]))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_eq_exit_codes(files):
    sig = str(files["poly_sig"])
    proc = run("eq", str(files["uomega"]), str(files["ustep"]), "--sig", sig)
    assert proc.returncode == 0 and proc.stdout.strip() == "equal"
    proc = run("eq", str(files["uomega"]), str(files["const"]), "--sig", sig)
    assert proc.returncode == 1 and proc.stdout.strip() == "not equal"


# -- normalize, unfold, encode, cb-rank -----------------------------------


def test_normalize_folds_and_writes(files, tmp_path):
    sig = str(files["poly_sig"])
    out = tmp_path / "nf.json"
    proc = run(
        "normalize", str(files["ustep"]), "--sig", sig, "--oracle", "-o", str(out)
    )
    assert proc.returncode == 0
    assert "rank: (1,0)" in proc.stdout
    assert "oracle agrees: yes" in proc.stdout
    assert json.loads(out.read_text()) == dump_term(files["uomega_term"])


def test_normalize_oracle_is_limited(files, tmp_path, sig_poly):
    sig = str(files["poly_sig"])
    over = str(cli.ORACLE_BOUND_LIMIT + 1)
    proc = run("normalize", str(files["ustep"]), "--sig", sig, "--oracle", "--bound", over)
    assert proc.returncode == 2
    assert "limited" in proc.stderr
    # A bound derived from the term's size is limited as well.
    t = FNode(sig_poly.canonical_tuple("c", ()))
    for _ in range(cli.ORACLE_BOUND_LIMIT):
        t = FNode(sig_poly.canonical_tuple("u", (t,)))
    big = tmp_path / "big.term.json"
    dump_json(big, dump_term(t))
    proc = run("normalize", str(big), "--sig", sig, "--oracle")
    assert proc.returncode == 2
    assert "limited" in proc.stderr
    assert run("normalize", str(big), "--sig", sig).returncode == 0


def test_normalize_report(files):
    proc = run("normalize", str(files["ustep"]), "--sig", str(files["poly_sig"]), "--json")
    report = _report_of(proc)
    assert report["result"]["rank"] == {"major": 1, "minor": 0}
    assert report["result"]["term"] == dump_term(files["uomega_term"])


def test_unfold_writes_a_loadable_coalgebra(files, tmp_path):
    out = tmp_path / "u.coalg.json"
    proc = run(
        "unfold", str(files["uomega"]), "--sig", str(files["poly_sig"]), "-o", str(out)
    )
    assert proc.returncode == 0
    assert "1 states" in proc.stdout
    doc = json.loads(out.read_text())
    assert doc["states"] == 1 and doc["root"] == 0
    assert doc["transitions"] == [{"op": "u", "tuple": [0]}]


def test_encode_lists_words(files):
    proc = run(
        "encode", str(files["uomega"]), "--sig", str(files["poly_sig"]), "--depth", "2"
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["ε", "0", "00"]
    proc = run(
        "encode", str(files["bagz"]), "--sig", str(files["bag_sig"]), "--depth", "2"
    )
    assert proc.returncode == 2
    assert "trivial" in proc.stderr
    # a negative depth is malformed input: one line, exit 2, no traceback
    proc = run(
        "encode", str(files["uomega"]), "--sig", str(files["poly_sig"]), "--depth", "-1"
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: tree depth must be nonnegative, got -1\n"


def test_cb_rank_exit_codes(files):
    proc = run("cb-rank", str(files["poly_sig"]), str(files["uloop"]))
    assert proc.returncode == 0 and proc.stdout.strip() == "1"
    # non-thin rigid input is a negative verdict with the witness on stderr
    proc = run("cb-rank", str(files["poly_sig"]), str(files["fullbin"]))
    assert proc.returncode == 1
    assert "not thin" in proc.stderr
    witness = json.loads(proc.stderr.splitlines()[-1])
    assert witness["cycle1"]["states"] == [0, 0]
    # symmetric signatures get an answer too
    proc = run("cb-rank", str(files["server_sig"]), str(files["server"]))
    assert proc.returncode == 0 and proc.stdout.strip() == "2"
    # and non-thin input over one is a negative verdict likewise
    proc = run("cb-rank", str(files["bag_sig"]), str(files["bagss"]))
    assert proc.returncode == 1
    assert "not thin" in proc.stderr
    witness = json.loads(proc.stderr.splitlines()[-1])
    assert witness["cycle1"]["states"] == [0, 0]


# -- gen and bench --------------------------------------------------------


def test_gen_is_byte_deterministic(files, tmp_path):
    outs = [tmp_path / f"g{i}.json" for i in range(3)]
    for kind, size in (("coalgebra", "20"), ("term", "12")):
        digests = []
        for i, out in enumerate(outs):
            seed = "5" if i < 2 else "6"
            proc = run(
                "gen", kind, "--sig", str(files["poly_sig"]),
                "--size", size, "--seed", seed, "-o", str(out), "--json",
            )
            assert proc.returncode == 0
            report = _report_of(proc)
            assert report["result"]["sha256"] == file_digest(out)
            digests.append(report["result"]["sha256"])
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]


def test_gen_weights_must_match_ops(files, tmp_path):
    out = tmp_path / "w.json"
    ok = run(
        "gen", "coalgebra", "--sig", str(files["poly_sig"]),
        "--size", "5", "--seed", "1", "-o", str(out), "--weights", "1,2,3",
    )
    assert ok.returncode == 0
    # a length mismatch, a non-number, and weights that are negative,
    # infinite, not a number, or all zero
    for weights in ("1,2", "x,1,1", "-1,1,1", "inf,1,1", "nan,1,1", "0,0,0"):
        bad = run(
            "gen", "coalgebra", "--sig", str(files["poly_sig"]),
            "--size", "5", "--seed", "1", "-o", str(out), "--weights", weights,
        )
        assert bad.returncode == 2, weights
        assert "Traceback" not in bad.stderr


def test_gen_size_must_be_positive(files, tmp_path):
    out = tmp_path / "s.json"
    for kind, size in (("coalgebra", "0"), ("term", "0"), ("term", "-1"), ("term", "x")):
        proc = run(
            "gen", kind, "--sig", str(files["poly_sig"]),
            "--size", size, "--seed", "1", "-o", str(out),
        )
        assert proc.returncode == 2, (kind, size)
        assert proc.stderr.startswith("usage:") and "positive integer" in proc.stderr
        assert not out.exists()


def test_bench_reports_runs(files):
    proc = run(
        "bench", "--sig", str(files["bag_sig"]), "--sizes", "50,100", "--json"
    )
    assert proc.returncode == 0
    report = _report_of(proc)
    assert [r["states"] for r in report["result"]["runs"]] == [50, 100]
    assert "check_ratio" in report["result"]
    for sizes in ("10,x", "10,2.5", "0,10", "-5", ""):
        bad = run("bench", "--sig", str(files["bag_sig"]), "--sizes", sizes)
        assert bad.returncode == 2, sizes
        assert "Traceback" not in bad.stderr


# -- global behaviour -----------------------------------------------------


def test_usage_errors(files):
    assert run().returncode == 2
    assert run("frobnicate").returncode == 2
    assert run("validate", str(files["poly_sig"]), "--kind", "nope").returncode == 2


def test_every_file_argument_rejects_unreadable_json_with_exit_2(files, tmp_path, capsys):
    # Exit code 1 is a negative verdict, so a malformed file must give 2 and
    # one error line.  In process, an escaping exception is the traceback.
    sig, coalg, term = (str(files[k]) for k in ("poly_sig", "uloop", "uomega"))
    out = str(tmp_path / "out.json")
    commands = [
        ["validate", "{}", "--kind", "signature"],
        ["validate", "{}", "--kind", "coalgebra"],
        ["validate", "{}", "--kind", "coalgebra", "--sig", sig],
        ["validate", coalg, "--kind", "coalgebra", "--sig", "{}"],
        ["validate", "{}", "--kind", "term", "--sig", sig],
        ["validate", term, "--kind", "term", "--sig", "{}"],
        ["gen", "coalgebra", "--sig", "{}", "--size", "3", "--seed", "0", "-o", out],
        ["gen", "term", "--sig", "{}", "--size", "3", "--seed", "0", "-o", out],
        ["bench", "--sig", "{}", "--sizes", "5"],
    ]
    for cmd in ("check-thin", "paths", "cb-rank"):
        extra = ["--depth", "1"] if cmd == "paths" else []
        commands += [[cmd, "{}", coalg, *extra], [cmd, sig, "{}", *extra]]
    for cmd in ("rank", "normalize", "unfold", "encode"):
        extra = ["--depth", "2"] if cmd == "encode" else []
        commands += [[cmd, "{}", "--sig", sig, *extra], [cmd, term, "--sig", "{}", *extra]]
    commands += [
        ["eq", "{}", term, "--sig", sig],
        ["eq", term, "{}", "--sig", sig],
        ["eq", term, term, "--sig", "{}"],
    ]
    contents = {"not_utf8": b"\xff\xfe{}", "truncated": b'{"ops": [', "null": b"null"}
    for name, data in contents.items():
        bad = tmp_path / f"{name}.json"
        bad.write_bytes(data)
        for template in commands:
            argv = [str(bad) if a == "{}" else a for a in template]
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert (code, err.count("\n")) == (2, 1), (name, argv, err)
            assert err.startswith("error: "), (name, argv, err)


def _bag_signature(path, n):
    """Write a signature of a nullary op, a unary op and a bag of ``n``."""
    bag = [list(range(1, n)) + [0], [1, 0] + list(range(2, n))]
    ops = [{"id": "z", "arity": 0}, {"id": "u", "arity": 1},
           {"id": "b", "arity": n, "generators": bag}]
    dump_json(path, {"ops": ops})
    return path


def test_large_bags_are_accepted_and_large_enumerations_refused(files):
    d = files["dir"]
    sig10 = _bag_signature(d / "bag10.sig.json", 10)
    assert run("validate", str(sig10), "--kind", "signature").returncode == 0
    coalg = d / "bag10.coalg.json"
    assert run("gen", "coalgebra", "--sig", str(sig10), "--size", "12",
               "--seed", "3", "-o", str(coalg)).returncode == 0
    assert run("check-thin", str(sig10), str(coalg)).returncode in (0, 1)
    # 21! exceeds sys.maxsize, which len() cannot return.
    sig21 = _bag_signature(d / "bag21.sig.json", 21)
    proc = run("validate", str(sig21), "--kind", "signature")
    assert proc.returncode == 0, proc.stderr
    tree = d / "bag21.coalg.json"
    dump_json(tree, {"states": 2, "root": 0, "transitions": [
        {"op": "b", "tuple": [1] * 21}, {"op": "z", "tuple": []}]})
    proc = run("check-thin", str(sig21), str(tree))
    assert (proc.returncode, proc.stdout) == (0, "thin: yes\n"), proc.stderr
    a9 = d / "a9.sig.json"
    gens = [[1, 2, 0, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8, 0]]
    dump_json(a9, {"ops": [{"id": "a", "arity": 9, "generators": gens}]})
    proc = run("validate", str(a9), "--kind", "signature")
    assert proc.returncode == 2
    assert "181440" in proc.stderr and "Traceback" not in proc.stderr
