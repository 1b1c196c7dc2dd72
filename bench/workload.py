"""One benchmark workload in one process: set up, run timed passes, report.

Each pass calls the public ``grl.cli.main([...])`` once per input, with
stdout captured, the way a user runs ``grl``.  Every call's deterministic
output (stdout without ``timings`` and ``subject``) is hashed and compared
with ``expected.json``.  With ``--trace 1`` traced passes alternate with
untraced ones, so the tracing overhead is measured in the same process, and
the first traced pass's spans go to ``.bench_out/spans-<workload>.jsonl``.
A speed probe runs from the start, so that every time is also given at the
reference CPU speed (see speed.py).

Run it through ``run.py``, which pins the environment; this file is the
child process.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"

# corpus-all runs the corpus once per manifest seed below in every pass.
# Rejection sampling of the order-4 semigroups takes 0.4 s to 3.2 s
# depending on the seed, so a pass on one seed would make the run-to-run
# spread over workload seeds far wider than any bound.  A fixed set of
# seeds gives every run the same work; the workload seed orders the calls.
CORPUS_SEEDS = (20250810, 1, 2, 3)

# large-gradings: good gradings of matrix rings, each rebuilt from its
# construction spec on every call.
GRADINGS = {
    "M2(Z9)/Z2": {"construct": "good_grading", "A": "Z9", "base": "Z2",
                  "deg": [[0, 1], [1, 0]]},
    "M2(Z3)/trivial": {"construct": "good_grading", "A": "Z3", "base": "trivial",
                       "deg": [[0, 0], [0, 0]]},
    "M3(Z3)/Z3": {"construct": "good_grading", "A": "Z3", "base": "Z3",
                  "deg": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]},
}
GRADING_COMMANDS = (("classify",), ("check", "main"), ("check", "good-grading"),
                    ("check", "lemma-technical"))

# ring-ideals: M2(Z2)xZ3 is regular, so both ideal scans run to the end;
# M2(Z2)xZ4 is not, so vnr-char stops at its first failure.
RINGS = {"M2(Z2)xZ3": 3, "M2(Z2)xZ4": 4}
RING_THEOREMS = ("vnr-char", "tominaga")

# Settings go in as flags; run.py unsets the GRL_* variables.
COMMON_FLAGS = ["--max-witnesses", "100", "--fg-ideal-bound", "2"]

WORKLOADS = ("corpus-all", "large-gradings", "ring-ideals")
MIN_PASSES = 3


def _file_name(key: str) -> str:
    return key.replace("/", "_").replace("(", "").replace(")", "") + ".json"


def write_inputs(workload: str, directory: Path) -> None:
    """Write the input files a workload reads; part of set-up."""
    from grl import jsonio
    from grl.rings import cyclic_ring, matrix_ring, product_ring

    if workload == "large-gradings":
        for key, spec in GRADINGS.items():
            (directory / _file_name(key)).write_text(json.dumps(spec))
    elif workload == "ring-ideals":
        m2z2 = matrix_ring(cyclic_ring(2), 2)
        for key, n in RINGS.items():
            ring = product_ring(m2z2, cyclic_ring(n))
            (directory / _file_name(key)).write_text(
                jsonio.dumps_canonical(jsonio.ring_to_json(ring)))


def calls(workload: str, directory: Path) -> list[tuple[str, list[str]]]:
    """(stable key, argv) for every grl call of one pass, in a fixed order."""
    if workload == "corpus-all":
        return [(f"corpus-run --suite all --seed {seed}",
                 ["corpus-run", "--suite", "all", "--seed", str(seed),
                  "--jobs", "1", *COMMON_FLAGS])
                for seed in CORPUS_SEEDS]
    if workload == "large-gradings":
        return [(" ".join(cmd + (key,)), [*cmd, str(directory / _file_name(key)),
                                          *COMMON_FLAGS])
                for key in GRADINGS for cmd in GRADING_COMMANDS]
    if workload == "ring-ideals":
        return [(f"check {theorem} {key}",
                 ["check", theorem, str(directory / _file_name(key)), *COMMON_FLAGS])
                for key in RINGS for theorem in RING_THEOREMS]
    raise KeyError(f"unknown workload {workload!r}")


def digest(stdout: str) -> tuple[str, int]:
    """sha256 of the deterministic part of one report, and its report count
    (corpus entries for a corpus run, else 1)."""
    report = json.loads(stdout)
    report.pop("timings", None)
    report.pop("subject", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest(), report.get("n_entries", 1)


def run_call(cli, argv: list[str]) -> dict:
    """One ``grl`` call.  ``cli.main`` is looked up per call, so that a
    traced pass reaches the tracer's wrapper."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as err:  # a crash is a failed call, not a failed run
        return {"start": start, "seconds": time.perf_counter() - start, "exit": None,
                "error": f"{type(err).__name__}: {err}"}
    seconds = time.perf_counter() - start
    try:
        sha, reports = digest(buf.getvalue())
    except (json.JSONDecodeError, AttributeError) as err:
        return {"start": start, "seconds": seconds, "exit": code,
                "error": f"bad output: {err}"}
    return {"start": start, "seconds": seconds, "exit": code, "sha256": sha,
            "reports": reports}


def run_pass(cli, plan: list[tuple[str, list[str]]], expected: dict) -> dict:
    results = []
    failed = 0
    for key, argv in plan:
        res = run_call(cli, argv)
        want = expected.get(key)
        res["ok"] = (want is not None and "error" not in res
                     and res["exit"] == want["exit"] and res["sha256"] == want["sha256"])
        failed += not res["ok"]
        results.append({"key": key, **res})
    return {"wall": sum(r["seconds"] for r in results),
            "reports": sum(r.get("reports", 0) for r in results),
            "attempted": len(results), "failed": failed, "calls": results}


def scale_to_reference(passes: list[dict], probe) -> None:
    """Add each call's and each pass's time at reference speed ("ref"), and
    scale a traced pass's span times by the pass's own ratio."""
    for p in passes:
        for c in p["calls"]:
            c["ref"] = probe.ref_seconds(c["start"], c["start"] + c["seconds"])
        p["ref"] = sum(c["ref"] for c in p["calls"])
        p["ref_slowest"] = max(c["ref"] for c in p["calls"])
        if "figures" in p:
            ratio = p["ref"] / p["wall"]
            p["figures"] = {k: v * ratio if k.endswith("_s") else v
                            for k, v in p["figures"].items()}


def layer_metrics(figures: list[dict], names: list[str]) -> dict[str, float]:
    """Median over traced passes of each per-layer figure.  A suite's
    entries are its task spans; a layer the workload never enters reads 0."""
    out = {}
    for name in names:
        key = name[:-len(".entries")] + ".calls" if name.endswith(".entries") else name
        out[name] = statistics.median(f.get(key, 0) for f in figures)
    return out


def run_passes(cli, plan, expected: dict, seconds: float, seed: int, tracer=None):
    """Run passes until the next one would end past ``seconds``, and at least
    MIN_PASSES (one untraced and one traced with a tracer).  With a tracer,
    every second pass is traced and keeps its per-layer figures.  Returns
    the passes and the spans of the first traced pass."""
    rng = random.Random(seed)
    passes: list[dict] = []
    first_spans = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        order = rng.sample(plan, len(plan))
        if traced:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(cli, order, expected)
            finally:
                tracer.uninstall()
            p["figures"] = {**tracer.summary(), "cli.reports_per_pass": p["reports"]}
            if first_spans is None:
                first_spans = list(tracer.spans)
        else:
            p = run_pass(cli, order, expected)
        p["traced"] = traced
        passes.append(p)
        next_traced = tracer is not None and not traced
        like_next = [q["wall"] for q in passes if q["traced"] == next_traced]
        enough = len(passes) >= (2 if tracer else MIN_PASSES)
        if enough and time.perf_counter() - start + statistics.median(like_next) > seconds:
            return passes, first_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float,
                        help="perf_counter reading of the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; run.py repeats set-up to time it")
    parser.add_argument("--record", action="store_true",
                        help="run one pass and store its digests in expected.json")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import grl.cli
    import numpy

    OUT.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        write_inputs(args.workload, inputs)
        ready = time.perf_counter()
        spawned = args.spawned if args.spawned is not None else ready
        if args.setup_only:
            probe.stop()
            print(json.dumps({"setup": probe.ref_seconds(spawned, ready),
                              "setup_raw": ready - spawned}))
            return 0
        plan = calls(args.workload, inputs)
        expected_all = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        if args.record:
            probe.stop()
            result = run_pass(grl.cli, plan, {})
            expected_all[args.workload] = {
                c["key"]: {"exit": c["exit"], "sha256": c["sha256"]}
                for c in result["calls"]}
            EXPECTED.write_text(json.dumps(expected_all, indent=2, sort_keys=True) + "\n")
            print(json.dumps({"recorded": args.workload, "calls": len(result["calls"])}))
            return 0
        expected = expected_all.get(args.workload, {})
        layer_names = [m["name"] for m in
                       json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

        tracer = Tracer() if args.trace else None
        passes, first_spans = run_passes(grl.cli, plan, expected, args.seconds,
                                         args.seed, tracer)
        probe.stop()
        scale_to_reference(passes, probe)
        if tracer:
            write_spans(first_spans, OUT / f"spans-{args.workload}.jsonl")

        plain = [p for p in passes if not p["traced"]]
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "corpus_seeds": list(CORPUS_SEEDS) if args.workload == "corpus-all" else None,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "speed": probe.speed(),
            "setup": probe.ref_seconds(spawned, ready),
            "setup_raw": ready - spawned,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "wall": [p["ref"] for p in plain],
            "slowest": [p["ref_slowest"] for p in plain],
            "wall_raw": [p["wall"] for p in plain],
            "call_seconds": [{c["key"]: [c["ref"], c["seconds"]] for c in p["calls"]}
                             for p in plain],
            "failures": [{"key": c["key"], **{k: c.get(k) for k in ("exit", "error")}}
                         for p in passes for c in p["calls"] if not c["ok"]],
        }
        if tracer:
            traced = [p for p in passes if p["traced"]]
            overhead = (statistics.median(p["ref"] for p in traced)
                        - statistics.median(result["wall"]))
            result["traced_wall"] = [p["ref"] for p in traced]
            result["layers"] = layer_metrics(
                [{**p["figures"], "trace.overhead_s": overhead} for p in traced],
                layer_names)
        print(json.dumps(result))
        return 0
    finally:
        probe.stop()
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
