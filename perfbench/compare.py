"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are result files written by ``run.py --trace 0``, or
directories of them.  Runs pair up by workload and seed.  One row per
workload and end-to-end metric shows each side's median and quartiles, the
pairs each side won, and a verdict:

* improved: the change wins at least nine tenths of the pairs, ties counting
  for neither, and the medians differ by more than the parent's quartile
  spread;
* unresolved: otherwise, when the parent's quartile spread is wider than the
  metric's bound, unless every change run reads better than every parent run;
* worse: the change's median is worse than the parent's by more than the
  bound in ``BENCHMARK.json``;
* unchanged: everything else.

Exits 1 when any row is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, int], dict]:
    """Untraced results under ``path``, keyed by (workload, seed)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        rec = json.loads(f.read_text(encoding="utf-8"))
        if rec.get("trace") == 0:
            out[(rec["workload"], rec["machine"]["seed"])] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs the change won, pairs the parent won)."""
    worse_by = (lambda a, b: a - b) if better == "lower" else (lambda a, b: b - a)
    won = sum(1 for p, c in pairs if worse_by(c, p) < 0)
    lost = sum(1 for p, c in pairs if worse_by(c, p) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if pairs and won >= 0.9 * len(pairs) and worse_by(cm, pm) < 0 and abs(cm - pm) > p3 - p1:
        return "improved", won, lost
    all_better = all(worse_by(c, p) < 0 for p in parent for c in change)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved", won, lost
    if worse_by(cm, pm) > bound * abs(pm):
        return "worse", won, lost
    return "unchanged", won, lost


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    rows = []
    for wl in sorted({w for w, _ in parent} | {w for w, _ in change}):
        seeds_p = sorted(s for w, s in parent if w == wl)
        seeds_c = sorted(s for w, s in change if w == wl)
        if not seeds_p or not seeds_c:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [parent[(wl, s)]["metrics"][name]["value"] for s in seeds_p]
            cv = [change[(wl, s)]["metrics"][name]["value"] for s in seeds_c]
            pairs = [(parent[(wl, s)]["metrics"][name]["value"],
                      change[(wl, s)]["metrics"][name]["value"])
                     for s in seeds_p if s in seeds_c]
            v, won, lost = verdict(pv, cv, pairs, m["better"], m["bound"])
            rows.append({
                "workload": wl, "metric": name, "unit": m["unit"],
                "parent": quartiles(pv), "change": quartiles(cv),
                "runs": (len(pv), len(cv)), "pairs": len(pairs),
                "change_won": won, "parent_won": lost, "verdict": v,
            })
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/compare.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(load(args.parent), load(args.change), spec)
    if not rows:
        print("perfbench: no workload has untraced results on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':18} {'metric':16} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'won c:p of pairs':>17}  verdict")
    for r in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{r['workload']:18} {r['metric']:16} {fmt(r['parent']):>30} {fmt(r['change']):>30} "
              f"{r['change_won']:>5}:{r['parent_won']:<3} of {r['pairs']:<4}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
