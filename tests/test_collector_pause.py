"""The collector pause (``coalgebra._collector_paused``).

``load_coalgebra``, ``load_term``, ``dump_coalgebra`` and the thinness
analysis and witness each run with the cyclic garbage collector paused, and
each leaves its switch as it found it: on success, on error, when the caller
had already disabled it, and when scopes follow or nest inside each other.
"""

import gc
import json
import threading

import pytest

from conftest import build
from thincoalg import CoalgebraError, PointedCoalgebra, is_thin
from thincoalg import coalgebra, files, thinness
from thincoalg.files import dump_coalgebra, load_coalgebra, load_term


def _set(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(autouse=True)
def restore_collector():
    enabled = gc.isenabled()
    yield
    _set(enabled)


@pytest.fixture
def nonthin(sig_poly):
    # State 0 keeps two edges inside its component {0, 1}; state 2 halts.
    return build(sig_poly, [("b", (0, 1)), ("u", (0,)), ("c", ())])


LEAF = {"f": {"op": "c"}}
TERM = {"f": {"op": "b", "children": [LEAF, {"f": {"op": "u", "children": [LEAF]}}]}}

# A function each scoped call makes inside its scope, where a spy reads the
# switch.
INNER = {
    "load_coalgebra": (files, "_load"),
    "load_term": (files, "_load"),
    "dump_coalgebra": (files, "dump_signature"),
    "_analyse": (thinness, "_csr"),
    "_witness": (thinness, "_bfs_until"),
}


def _calls(pc):
    c = pc.coalg
    doc = dump_coalgebra(c, pc.root)
    offs, flat, comps, _, _, (s, ci) = thinness._analyse(PointedCoalgebra(c, pc.root))
    return {
        "load_coalgebra": lambda: load_coalgebra(doc),
        "load_term": lambda: load_term(TERM, c.sig),
        "dump_coalgebra": lambda: dump_coalgebra(c, pc.root),
        "_analyse": lambda: thinness._analyse(PointedCoalgebra(c, pc.root)),
        "_witness": lambda: thinness._witness(c, offs, flat, pc.root, s, comps[ci]),
    }


def _spy(monkeypatch, module, name, seen):
    inner = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", sorted(INNER))
def test_each_scope_pauses_and_restores(name, enabled, nonthin, monkeypatch):
    call = _calls(nonthin)[name]
    seen = []
    _spy(monkeypatch, *INNER[name], seen)
    _set(enabled)
    call()
    assert gc.isenabled() == enabled
    assert seen and not any(seen)


@pytest.mark.parametrize("enabled", [True, False])
def test_a_malformed_row_restores_the_switch(enabled, nonthin):
    doc = dump_coalgebra(nonthin.coalg, 0)
    doc["transitions"][1]["tuple"] = ["x"]
    _set(enabled)
    with pytest.raises(CoalgebraError, match="state 1: 'tuple'"):
        load_coalgebra(doc)
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_loading_through_a_signature_path_restores_the_switch(
    enabled, nonthin, tmp_path, monkeypatch
):
    doc = dump_coalgebra(nonthin.coalg, 0)
    (tmp_path / "sig.json").write_text(json.dumps(doc.pop("signature")), encoding="utf-8")
    doc["signature"] = "sig.json"
    (tmp_path / "c.json").write_text(json.dumps(doc), encoding="utf-8")
    seen = []
    _spy(monkeypatch, files, "load_signature", seen)
    _set(enabled)
    c, root = load_coalgebra(tmp_path / "c.json")
    assert gc.isenabled() == enabled
    assert seen == [False]
    assert (c, root) == (nonthin.coalg, 0)


@pytest.mark.parametrize("enabled", [True, False])
def test_the_witness_after_the_analysis_restores_the_switch(enabled, nonthin, monkeypatch):
    seen = []
    _spy(monkeypatch, thinness, "_csr", seen)
    _spy(monkeypatch, thinness, "_bfs_until", seen)
    _set(enabled)
    verdict = is_thin(PointedCoalgebra(nonthin.coalg, 0))
    assert gc.isenabled() == enabled
    assert not verdict.thin and verdict.witness is not None
    assert seen == [False, False, False]


def test_nested_scopes_leave_the_switch_to_the_outermost():
    gc.enable()
    with coalgebra._collector_paused():
        assert not gc.isenabled()
        with coalgebra._collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            with coalgebra._collector_paused():
                raise ValueError
        assert not gc.isenabled()
    assert gc.isenabled()



def test_overlapping_scopes_in_two_threads_keep_the_pause_to_the_last():
    # The other thread's scope opens first and closes first.
    opened, release = threading.Event(), threading.Event()

    def hold():
        with coalgebra._collector_paused():
            opened.set()
            release.wait(10)

    gc.enable()
    other = threading.Thread(target=hold)
    other.start()
    try:
        assert opened.wait(10)
        with coalgebra._collector_paused():
            release.set()
            other.join()
            assert not gc.isenabled()
        assert gc.isenabled()
    finally:
        release.set()
        other.join()
