"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import time

import pytest

import run

sys.path.insert(0, str(run.SRC))

import gen  # noqa: E402
import workloads  # noqa: E402
from compare import verdict  # noqa: E402
from thincoalg import (  # noqa: E402
    PointedCoalgebra,
    beh_equal,
    count_infinite_paths_class,
    is_thin,
    oracle_is_thin,
)
from thincoalg.files import dump_coalgebra, load_coalgebra  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _docs(kind: str, shape: str, size: int, seed: int) -> list[str]:
    sig = workloads.SIGNATURES[kind]()
    docs, _, _ = workloads._make(kind, sig, shape, size, seed)
    return [json.dumps(dump_coalgebra(c, r), sort_keys=True) for c, r in docs]


@pytest.mark.parametrize("kind,shape,size", [
    ("nonthin", "random", 300),
    ("ladder", "tree", 250),
    ("ladder", "chain", 200),
    ("symmetric", "blowup", 40),
])
def test_generators_are_byte_identical_for_a_seed(kind, shape, size):
    assert _docs(kind, shape, size, 7) == _docs(kind, shape, size, 7)
    assert _docs(kind, shape, size, 7) != _docs(kind, shape, size, 8)


@pytest.mark.parametrize("make,size", [(gen.ladder_tree, 24), (gen.ladder_chain, 13)])
@pytest.mark.parametrize("seed", range(5))
def test_tiny_ladder_instances_are_thin_by_the_oracle(make, size, seed):
    sig = gen.ladder_signature()
    raw, census = make(size, random.Random(seed))
    pc = gen.build(sig, raw)
    assert oracle_is_thin(pc, 2 * pc.coalg.n_states)
    assert is_thin(pc).thin
    assert count_infinite_paths_class(pc).kind == census


@pytest.mark.parametrize("seed", range(3))
def test_tiny_blowups_are_behaviourally_equal_to_their_base(seed):
    sig = gen.symmetric_signature()
    rng = random.Random(seed)
    base = gen.symmetric_base(sig, 6, 1, rng)
    blown = gen.blow_up(sig, base, 3, rng)
    loaded = []
    for raw in (base, blown):
        coalg, root = load_coalgebra(dump_coalgebra(gen.uncanonical(sig, raw), 0), sig)
        loaded.append(PointedCoalgebra(coalg, root))
    assert beh_equal(*loaded)


def test_metric_names_and_units_match_the_spec():
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    for name in list(declared_e2e) + list(declared_layer) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name), name


TINY = {
    "nonthin": (("random", 2000),),
    "ladder": (("tree", 60), ("chain", 30)),
    "symmetric": (("blowup", 12),),
}


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_finishes_in_seconds(kind, trace):
    w = workloads.Workload(f"tiny-{kind}", kind, TINY[kind])
    t0 = time.perf_counter()
    record = run.run(w, seed=3, seconds=0.2, trace=trace)
    assert time.perf_counter() - t0 < 30
    assert record["correct"], record["wrong"]
    assert record["failed"] == 0
    assert record["attempted"] >= len(TINY[kind])
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(record["metrics"]) == set(expected)
    for m in record["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert record["accounted_s"] == pytest.approx(record["traced_wall_s"], rel=0.05)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    got = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "thin-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert "correct" not in got.stdout


def test_verdicts_follow_the_pair_rule():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98]
    faster = [0.80, 0.81, 0.79, 0.82, 0.78]
    pairs = list(zip(parent, faster))
    assert verdict(parent, faster, pairs, "lower", 0.1)[0] == "improved"
    slower = [1.30, 1.31, 1.29, 1.32, 1.28]
    assert verdict(parent, slower, list(zip(parent, slower)), "lower", 0.1)[0] == "worse"
    same = [1.0, 1.01, 0.99, 1.02, 0.98]
    assert verdict(parent, same, list(zip(parent, same)), "lower", 0.1)[0] == "unchanged"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0]
    assert verdict(noisy, same, list(zip(noisy, same)), "lower", 0.1)[0] == "unresolved"
