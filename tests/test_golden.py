"""Golden CLI outputs for the commands that canonicalization feeds.

Each case runs ``cli.main`` in-process on seeded inputs over the fixture
signatures of ``conftest.py`` (the rigid ``sig_poly`` and the symmetric
ones).  The manifest ``golden/manifest.json`` stores, per case, the exit
code and the sha256 of stdout, of stderr and of every file the case writes,
with the temporary directory replaced by ``<tmp>`` and every ``timing_ms``
value by 0.  Cases run in order, since later ones read what earlier ones
wrote.

A change that alters any of these outputs on purpose regenerates the
manifest and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from thincoalg import cli

MANIFEST = Path(__file__).with_name("golden") / "manifest.json"

# The fixture signatures, as (id, arity, generators) per op.
SIGNATURES = {
    "poly": [("c", 0, []), ("u", 1, []), ("b", 2, [])],
    "bag": [("b0", 0, []), ("b1", 1, []), ("b2", 2, [[1, 0]])],
    "server": [("halt", 0, []), ("step", 1, []), ("spawn", 3, [[0, 2, 1]])],
    "mixed": [
        ("n0", 0, []),
        ("n1", 1, []),
        ("pair", 2, [[1, 0]]),
        ("tri", 3, [[0, 2, 1]]),
        ("cyc", 4, [[1, 2, 3, 0]]),
    ],
    "rotations": [
        ("z", 0, []),
        ("c3", 3, [[1, 2, 0]]),
        ("d6", 6, [[1, 2, 3, 4, 5, 0], [5, 4, 3, 2, 1, 0]]),
    ],
    "c3": [("z", 0, []), ("u", 1, []), ("c3", 3, [[1, 2, 0]])],
}

# Per signature: the seeds of two terms (among the largest ``gen term``
# draws) and of a thin and a wide random coalgebra.
SEEDS = {
    "poly": (11, 14, 0, 1),
    "bag": (11, 14, 0, 2),
    "server": (11, 0, 1, 3),
    "mixed": (20, 4, 1, 4),
    "rotations": (8, 16, 3, 5),
    "c3": (11, 0, 0, 6),
}


def cases() -> list[tuple[str, list[str]]]:
    """Every case as (name, argv); ``{tmp}`` stands for the working directory."""
    out = []
    for name, (ta, tb, thin, wide) in SEEDS.items():
        sig = f"{{tmp}}/{name}.sig.json"
        f = f"{{tmp}}/{name}"
        heavy = ",".join(["4"] + ["1"] * (len(SIGNATURES[name]) - 1))
        out += [
            (f"{name}/gen-term-a", ["gen", "term", "--sig", sig, "--size", "30",
                                    "--seed", str(ta), "-o", f"{f}.a.term.json"]),
            (f"{name}/gen-term-b", ["gen", "term", "--sig", sig, "--size", "30",
                                    "--seed", str(tb), "-o", f"{f}.b.term.json", "--json"]),
            (f"{name}/gen-thin", ["gen", "coalgebra", "--sig", sig, "--size", "12", "--seed",
                                  str(thin), "--weights", heavy, "-o", f"{f}.thin.coalg.json"]),
            (f"{name}/gen-wide", ["gen", "coalgebra", "--sig", sig, "--size", "60",
                                  "--seed", str(wide), "-o", f"{f}.wide.coalg.json"]),
            (f"{name}/check-thin-thin", ["check-thin", sig, f"{f}.thin.coalg.json", "--json"]),
            (f"{name}/check-thin-wide", ["check-thin", sig, f"{f}.wide.coalg.json", "--json"]),
            (f"{name}/cb-rank-thin", ["cb-rank", sig, f"{f}.thin.coalg.json", "--json"]),
            (f"{name}/cb-rank-wide", ["cb-rank", sig, f"{f}.wide.coalg.json"]),
            (f"{name}/unfold-a", ["unfold", f"{f}.a.term.json", "--sig", sig]),
            (f"{name}/unfold-b", ["unfold", f"{f}.b.term.json", "--sig", sig,
                                  "-o", f"{f}.b.coalg.json", "--json"]),
            (f"{name}/check-thin-b", ["check-thin", sig, f"{f}.b.coalg.json", "--json"]),
            (f"{name}/cb-rank-b", ["cb-rank", sig, f"{f}.b.coalg.json"]),
            (f"{name}/normalize-a", ["normalize", f"{f}.a.term.json", "--sig", sig,
                                     "-o", f"{f}.a.nf.json"]),
            (f"{name}/normalize-b", ["normalize", f"{f}.b.term.json", "--sig", sig, "--json"]),
            (f"{name}/rank-a", ["rank", f"{f}.a.term.json", "--sig", sig]),
            (f"{name}/rank-b", ["rank", f"{f}.b.term.json", "--sig", sig, "--json"]),
            (f"{name}/eq-a-nf", ["eq", f"{f}.a.term.json", f"{f}.a.nf.json", "--sig", sig]),
            (f"{name}/eq-a-b", ["eq", f"{f}.a.term.json", f"{f}.b.term.json", "--sig", sig,
                                "--json"]),
        ]
    return out


_TIMING = re.compile(r'"timing_ms": [-+.0-9eE]+')


def _digest(text: str, tmp: str) -> str:
    masked = _TIMING.sub('"timing_ms": 0', text.replace(tmp, "<tmp>"))
    return hashlib.sha256(masked.encode("utf-8")).hexdigest()


def run_cases(tmp: Path) -> dict:
    """Write the signatures into ``tmp``, run every case there, and return
    each case's masked record, keyed by case name."""
    for name, ops in SIGNATURES.items():
        doc = {"ops": [{"id": i, "arity": a, "generators": g} for i, a, g in ops]}
        (tmp / f"{name}.sig.json").write_text(json.dumps(doc), encoding="utf-8")
    records = {}
    for name, template in cases():
        argv = [a.replace("{tmp}", str(tmp)) for a in template]
        before = {p: p.stat().st_mtime_ns for p in tmp.iterdir()}
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        written = sorted(
            p for p in tmp.iterdir() if before.get(p) != p.stat().st_mtime_ns
        )
        records[name] = {
            "argv": " ".join(template),
            "exit": code,
            "stdout": _digest(out.getvalue(), str(tmp)),
            "stderr": _digest(err.getvalue(), str(tmp)),
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written},
        }
    return records


def test_cli_outputs_match_the_golden_manifest(tmp_path):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = run_cases(tmp_path)
    assert list(got) == list(want)
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, f"outputs differ from the manifest: {differ}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        records = run_cases(Path(d))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {MANIFEST}", file=sys.stderr)
