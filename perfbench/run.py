"""The thincoalg benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload thin-ladder --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (signature, inputs, JSON documents) runs in a child process, in
three batches: before the timed pass, when half of it has passed and after
it, so its repetitions meet the machine conditions of the whole run.  A
batch repeats set-up until it adds up to a second (at least once); the
median repetition is ``setup_s``.  The timed pass runs the workload's jobs
in a closed loop in this process, one job at a time, in whole rounds, as
many as bring the pass time closest to ``--seconds``.  Every job's answers
are checked after the job, outside its time; a wrong answer makes the exit
code nonzero, an exception fails the job and is counted.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced pass for half the time, then the same rounds again with a span
around every call into a layer, and reports the per-layer metrics derived
from those spans.  The last line of standard output is one JSON object;
a fuller record (machine, inputs, every job, the spans) goes to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from tracing import NullTracer, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_TIMEOUT_S = 150
SETUP_BATCHES = 3

END_TO_END = {
    "setup_s": "s",
    "states_per_s": "1/s",
    "job_s_p50": "s",
    "completed_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer self time <- the spans it sums.
LAYER_TIMES = {
    "thinness.is_thin_s": ("thinness.is_thin",),
    "thinness.census_s": ("thinness.count_infinite_paths_class",),
    "files.load_coalgebra_s": ("files.load_coalgebra",),
    "files.load_term_s": ("files.load_term",),
    "files.dump_s": ("files.dump_witness", "files.dump_term"),
    "coalgebra.minimize_s": ("coalgebra.minimize",),
    "coalgebra.beh_equal_s": ("coalgebra.beh_equal",),
    "coalgebra.canonical_key_s": ("coalgebra.canonical_key",),
    "normalform.state_ranks_s": ("normalform.state_ranks",),
    "normalform.extract_normal_s": ("normalform.extract_normal",),
    "semantics.unfold_s": ("semantics.unfold",),
    "terms.rank_s": ("terms.rank",),
    "treeenc.cb_rank_s": ("treeenc.cb_rank",),
    "treeenc.enc_s": ("treeenc.enc",),
    "treeenc.dom_tree_s": ("treeenc.dom_tree",),
    "bench.self_s": ("bench.job",),
}
# Counts summed over the traced pass.
LAYER_COUNTS = (
    "thinness.witness_steps",
    "files.bytes",
    "coalgebra.reachable_states",
    "coalgebra.quotient_states",
    "terms.nodes",
)
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "coalgebra.merge_ratio": "ratio",
    "terms.depth": "count",
    "signature.build_s": "s",
    "signature.group_order_max": "count",
    "generate.gen_s": "s",
    "trace.overhead_ratio": "ratio",
    "failed.RecursionError": "count",
    "failed.other": "count",
}


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", help="result file (default perfbench/results/<workload>-seed<n>-trace<t>.json)")
    return p.parse_args(argv)


def _machine(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if got.returncode == 0:
                commit = got.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def _set_up(w, seed: int, workdir: str, describe: bool) -> dict:
    """One batch of set-up repetitions in a child process, which keeps
    set-up memory out of this process's peak."""
    spec = json.dumps({"name": w.name, "kind": w.kind, "shapes": w.shapes})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    try:
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), spec, str(seed), workdir,
             "1" if describe else "0"],
            env=env, check=True, timeout=SETUP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: set-up took longer than {SETUP_TIMEOUT_S} s") from None
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"perfbench: set-up failed with exit code {exc.returncode}") from None
    return json.loads((Path(workdir) / "setup.json").read_text(encoding="utf-8"))


def _fail(rec: dict, exc: BaseException) -> None:
    rec["error"] = type(exc).__name__
    rec["message"] = str(exc)[:200]
    frames = traceback.extract_tb(exc.__traceback__)
    if frames:
        rec["where"] = f"{Path(frames[-1].filename).name}:{frames[-1].name}"


def run_pass(job, instances: list, sig, tracer, seconds: float | None = None,
             rounds: int | None = None, between=None) -> tuple[list[dict], int]:
    """Whole rounds of jobs: ``rounds`` of them, or as many as bring the
    pass time closest to ``seconds`` (at least one).

    ``job`` is a workload's (job, check) pair.  A job's time covers its
    calls only; the collector runs and the checks run between jobs.
    ``between(elapsed)`` runs after every round with the pass time so far,
    and its own time does not count.
    """
    job_fn, check_fn = job
    jobs: list[dict] = []
    start = time.perf_counter()
    paused = 0.0
    done = 0

    def more() -> bool:
        if rounds is not None:
            return done < rounds
        elapsed = time.perf_counter() - start - paused
        return done == 0 or elapsed + elapsed / done / 2 < seconds

    while more():
        for inst in instances:
            gc.collect()
            rec = {
                "instance": inst["id"], "round": done,
                "states": sum(d["states"] for d in inst["inputs"]),
                "counts": {"files.bytes": sum(f["bytes"] for f in inst["files"])},
            }
            tracer.job = len(jobs)
            out = None
            t0 = time.perf_counter()
            try:
                out = tracer.call("bench.job", job_fn, tracer, inst, sig)
            except Exception as exc:  # a failing job is counted; the pass goes on
                _fail(rec, exc)
            rec["seconds"] = time.perf_counter() - t0
            if out is not None:
                try:
                    bad, counts = check_fn(out, inst)
                except Exception as exc:  # an exception while checking fails the job too
                    _fail(rec, exc)
                else:
                    rec["counts"].update(counts)
                    if bad:
                        rec["wrong"] = bad
            del out
            jobs.append(rec)
        done += 1
        if between is not None:
            p0 = time.perf_counter()
            between(p0 - start - paused)
            paused += time.perf_counter() - p0
    return jobs, done


def job_p50(jobs: list[dict]) -> float:
    """Nearest-rank median job time.  A failed job counts as the whole
    pass's job time, so it sorts above every completed job."""
    total = sum(j["seconds"] for j in jobs)
    times = sorted(total if "error" in j else j["seconds"] for j in jobs)
    return times[math.ceil(len(times) / 2) - 1]


def end_to_end(jobs: list[dict], setup: dict) -> dict:
    done = [j for j in jobs if "error" not in j]
    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "states_per_s": sum(j["states"] for j in done) / sum(j["seconds"] for j in jobs),
        "job_s_p50": job_p50(jobs),
        "completed_ratio": len(done) / len(jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced: list[dict], untraced: list[dict], spans, setup: dict) -> dict:
    own = self_times(spans)
    out = {m: sum(own.get(n, 0.0) for n in names) for m, names in LAYER_TIMES.items()}
    for name in LAYER_COUNTS:
        out[name] = sum(j["counts"].get(name, 0) for j in traced)
    reach = out["coalgebra.reachable_states"]
    out["coalgebra.merge_ratio"] = out["coalgebra.quotient_states"] / reach if reach else 0.0
    out["terms.depth"] = max((j["counts"].get("terms.depth", 0) for j in traced), default=0)
    out["signature.build_s"] = statistics.median(setup["signature_s"])
    out["signature.group_order_max"] = setup["group_order_max"]
    out["generate.gen_s"] = statistics.median(setup["gen_s"])
    out["trace.overhead_ratio"] = (
        sum(j["seconds"] for j in traced) / sum(j["seconds"] for j in untraced) - 1.0
    )
    errors = [j["error"] for j in traced if "error" in j]
    out["failed.RecursionError"] = errors.count("RecursionError")
    out["failed.other"] = len(errors) - out["failed.RecursionError"]
    return {name: out[name] for name in PER_LAYER}


def run(w, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the timed pass (or the traced pair of passes) and return
    the full result record."""
    import workloads

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        first = _set_up(w, seed, workdir, describe=True)
        batches = [first]
        repdir = Path(workdir) / "rep"
        repdir.mkdir()

        def set_up_again():
            again = _set_up(w, seed, str(repdir), describe=False)
            if workloads.digests(again) != workloads.digests(first):
                raise SystemExit("perfbench: set-up is not deterministic: documents differ")
            batches.append(again)

        pass_s = seconds / 2 if trace else seconds

        def set_up_midway(elapsed: float) -> None:
            if len(batches) < SETUP_BATCHES - 1 and elapsed >= pass_s / 2:
                set_up_again()

        sig = workloads.SIGNATURES[w.kind]()
        job = workloads.JOBS[w.kind]
        instances = first["instances"]
        record = {
            "workload": w.name, "seconds": seconds, "trace": int(trace),
            "machine": _machine(seed),
        }
        untraced, rounds = run_pass(job, instances, sig, NullTracer(), seconds=pass_s,
                                    between=set_up_midway)
        while len(batches) < SETUP_BATCHES:
            set_up_again()
        setup = record["setup"] = {
            **{k: [t for b in batches for t in b[k]] for k in workloads.SETUP_TIMES},
            "group_order_max": first["group_order_max"],
            "instances": instances,
        }
        if not trace:
            jobs = untraced
            metrics, units = end_to_end(jobs, setup), END_TO_END
        else:
            tracer = Tracer()
            jobs, _ = run_pass(job, instances, sig, tracer, rounds=rounds)
            metrics, units = per_layer(jobs, untraced, tracer.spans, setup), PER_LAYER
            record["untraced_jobs"] = untraced
            record["spans"] = [s.as_json() for s in tracer.spans]
            record["traced_wall_s"] = sum(j["seconds"] for j in jobs)
            record["accounted_s"] = sum(metrics[m] for m in LAYER_TIMES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checked = untraced + jobs if trace else jobs
    wrong = [(j["instance"], msg) for j in checked for msg in j.get("wrong", ())]
    record.update({
        "rounds": rounds,
        "jobs": jobs,
        "wrong": wrong,
        "correct": not wrong,
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if "error" in j),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })
    return record


def _report(record: dict) -> list[str]:
    errors = Counter(j["error"] for j in record["jobs"] if "error" in j)
    lines = [
        f"{record['workload']} seed {record['machine']['seed']}: "
        f"{record['attempted']} jobs in {record['rounds']} rounds, {record['failed']} failed"
        + (" (" + ", ".join(f"{k} {v}" for k, v in sorted(errors.items())) + ")" if errors else ""),
        f"failed_ratio {record['failed'] / record['attempted']:.4f} ratio",
    ]
    for name, m in record["metrics"].items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    if "accounted_s" in record:
        lines.append(f"layer self times + bench.self_s: {record['accounted_s']:.4f} s "
                     f"of {record['traced_wall_s']:.4f} s traced wall time")
    for inst, msg in record["wrong"]:
        lines.append(f"WRONG ANSWER on input {inst}: {msg}")
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "thincoalg" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}/thincoalg; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    record = run(w, args.seed, args.seconds, bool(args.trace))
    out = Path(args.out) if args.out else (
        HERE / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    for line in _report(record):
        print(line)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
