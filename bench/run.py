"""Benchmark entry point for grl.

    python3 bench/run.py --workload corpus-all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # every workload, a table
    python3 bench/run.py --record                         # re-record expected.json

Builds nothing: the workload process imports grl from ``src/`` of the
checkout.  Set-up (interpreter start, ``import grl``, writing the inputs) is
timed in fresh processes before and after the timed passes, and reported as
a median.  Times are scaled to a reference CPU speed (see speed.py).  The
workload process runs with the GRL_* variables unset and the BLAS/OpenMP
thread counts pinned to 1.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  Run records and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import OUT, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUPS = 4  # set-up-only processes before and again after the timed one
TIMEOUT_S = 170

UNSET = ("GRL_JOBS", "GRL_SEED", "GRL_PRETTY", "GRL_MAX_WITNESSES", "GRL_FG_IDEAL_BOUND")
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def pinned_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update({k: "1" for k in THREADS})
    env["PYTHONHASHSEED"] = "0"
    return env


def child(args: list[str], deadline: float) -> dict:
    """Run workload.py to completion; returns its last JSON line."""
    spawned = time.perf_counter()
    cmd = [sys.executable, str(HERE / "workload.py"), *args, "--spawned", repr(spawned)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"workload process timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise SystemExit(f"workload process failed ({proc.returncode}): {' '.join(args)}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_only() -> float:
        return child([*base, "--setup-only"], deadline)["setup"]

    # CPU speed on a shared host drifts over seconds, so set-up is sampled
    # on both sides of the timed passes rather than in one burst.
    setups = [setup_only() for _ in range(SETUPS)]
    res = child([*base, "--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups.append(res["setup"])
    setups += [setup_only() for _ in range(SETUPS)]
    res["setup"] = setups
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(res, indent=1) + "\n")
    return res


def end_to_end(res: dict) -> dict[str, float]:
    return {
        "wall_s": statistics.median(res["wall"]),
        "slowest_call_s": statistics.median(res["slowest"]),
        "setup_s": statistics.median(res["setup"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="grl benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=20250810)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json from this checkout's output")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grl" / "cli.py").is_file():
        print(f"no grl sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    if args.record:
        for w in workloads:
            print(json.dumps(child(["--workload", w, "--record"],
                                   time.perf_counter() + TIMEOUT_S)))
        return 0

    kind = "per_layer" if args.trace else "end_to_end"
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        res = run_workload(w, args.seed, args.seconds, bool(args.trace))
        attempted += res["attempted"]
        failed += res["failed"]
        values = res["layers"] if args.trace else end_to_end(res)
        seeds = f", manifest seeds {res['corpus_seeds']}" if res["corpus_seeds"] else ""
        print(f"# {w}: seed {args.seed}{seeds}, python {res['python']}, "
              f"numpy {res['numpy']}, nproc {res['nproc']}, "
              f"{len(res['wall'])} untraced passes, {res['attempted']} calls, "
              f"raw wall_s {statistics.median(res['wall_raw']):.3f} at median speed "
              f"{res['speed']:.3f} of the reference")
        for f in res["failures"]:
            print(f"#   FAILED {f}")
        for m in spec[kind]:
            print(f"{w:15s} {m['name']:52s} {values[m['name']]:14.6f} {m['unit']}")
            name = m["name"] if len(workloads) == 1 else f"{w}.{m['name']}"
            metrics[name] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{w:15s} {'error_rate':52s} {res['failed'] / res['attempted']:14.6f} "
              f"failed/attempted")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
