"""Tests of the benchmark itself: traced runs repeat their counts exactly,
tracing leaves every output digest intact, and the wrappers come off again.

Runs a cheap subset of each workload's calls so that it fits a test run:
    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import grl.cli  # noqa: E402
import grl.gradings  # noqa: E402
import grl.jsonio  # noqa: E402
import workload  # noqa: E402
from speed import REF_PROBE_S, SpeedProbe  # noqa: E402
from tracer import TRACED_MODULES, Tracer  # noqa: E402

SUBSET = {
    "corpus-all": ("corpus-run --suite all --seed 20250810",),
    "large-gradings": tuple(f"{' '.join(cmd)} M3(Z3)/Z3" for cmd in workload.GRADING_COMMANDS),
    "ring-ideals": ("check vnr-char M2(Z2)xZ4",),
}


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    out = {}
    for name, keys in SUBSET.items():
        directory = tmp_path_factory.mktemp(name)
        workload.write_inputs(name, directory)
        out[name] = [c for c in workload.calls(name, directory) if c[0] in keys]
        assert len(out[name]) == len(keys)
    return out


def traced_run(plans) -> tuple[Tracer, list[dict]]:
    expected = json.loads(workload.EXPECTED.read_text())
    tracer = Tracer()
    tracer.install()
    try:
        passes = [workload.run_pass(grl.cli, plan, expected[name])
                  for name, plan in plans.items()]
    finally:
        tracer.uninstall()
    return tracer, passes


def counts(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if not k.endswith("_s")}


def test_two_traced_runs_give_identical_counts(plans):
    tracer1, passes1 = traced_run(plans)
    tracer2, passes2 = traced_run(plans)
    first, second = tracer1.summary(), tracer2.summary()
    assert counts(first) == counts(second)
    assert [p["reports"] for p in passes1] == [p["reports"] for p in passes2]
    assert first["cli.main.calls"] == sum(len(p) for p in plans.values())
    assert first["cli.suite.q-vs-v.calls"] == 136
    assert first["gradings.is_symmetric.calls"] > 0


def test_tracing_keeps_outputs_and_times_generators(plans):
    tracer, passes = traced_run(plans)
    summary = tracer.summary()
    assert all(p["failed"] == 0 for p in passes), [p["calls"] for p in passes]
    # every span descends from the grl call it was made in
    assert {name for name, parent, *_ in tracer.spans if parent < 0} == {"cli.main"}
    # a generator is charged while it is consumed, not when it is created
    assert summary["semigroups.enumerate_semigroups.tables"] == 1 + 8 + 113
    assert summary["semigroups.enumerate_semigroups.busy_s"] > 0.01
    # names imported into other modules are wrapped there too
    assert summary["jsonio.construction_from_json.calls"] == len(SUBSET["large-gradings"])
    assert summary["gradings.validate_grading.calls"] >= len(SUBSET["large-gradings"])
    for name, value in summary.items():
        if name.endswith(".self_s"):
            assert value >= -1e-6, name


def test_uninstall_restores_every_function():
    before = (grl.cli.main, grl.cli.is_symmetric, grl.gradings.is_symmetric,
              grl.jsonio.validate_grading, grl.cli._suite_tasks)
    tracer = Tracer()
    tracer.install()
    assert grl.cli.is_symmetric is not before[1]
    assert grl.jsonio.validate_grading is not before[3]
    tracer.uninstall()
    after = (grl.cli.main, grl.cli.is_symmetric, grl.gradings.is_symmetric,
             grl.jsonio.validate_grading, grl.cli._suite_tasks)
    assert after == before


def test_ref_seconds_scales_work_and_leaves_out_probes():
    probe = SpeedProbe()
    probe.ends = [1.0, 2.0, 3.0]
    probe.durations = [2 * REF_PROBE_S] * 3  # half the reference speed
    # work in [0.5, 2.5] is 2 s less two probes, counted at half speed
    assert probe.ref_seconds(0.5, 2.5) == pytest.approx(1.0 - 2 * REF_PROBE_S)
    probe.durations[1] = 100 * REF_PROBE_S  # one interrupted probe is outvoted
    assert probe.ref_seconds(0.5, 2.5) == pytest.approx(1.0 - 51 * REF_PROBE_S)


def test_benchmark_names_every_layer_the_tracer_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    layer = [m["name"] for m in spec["per_layer"]]
    assert len(layer) == len(set(layer)) <= 128
    for name in layer:
        assert name.split(".")[0] in (*TRACED_MODULES, "trace"), name
