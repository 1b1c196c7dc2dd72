"""Every ``ring-ideals`` and ``large-gradings`` benchmark call, and the
``corpus-all`` calls for manifest seeds 1, 2 and 3, give the exit code and
output digest recorded in ``bench/expected.json``.

The inputs, the argument lists and the digest come from ``bench/workload.py``,
so a change that alters any of these reports fails here, not only in a
benchmark run.  The ``corpus-all`` call for the default manifest seed is
checked by ``bench/test_bench.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workload  # noqa: E402
from grl import cli  # noqa: E402

WORKLOADS = ("ring-ideals", "large-gradings")
EXPECTED = json.loads(workload.EXPECTED.read_text())
CORPUS_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    out = {}
    for name in WORKLOADS:
        directory = tmp_path_factory.mktemp(name)
        workload.write_inputs(name, directory)
        out[name] = dict(workload.calls(name, directory))
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_call_has_a_recorded_digest(plans, name):
    assert sorted(plans[name]) == sorted(EXPECTED[name])


@pytest.mark.parametrize("name,key", [(name, key) for name in WORKLOADS
                                      for key in sorted(EXPECTED[name])])
def test_call_matches_recorded_digest(plans, name, key):
    result = workload.run_call(cli, plans[name][key])
    assert "error" not in result, result["error"]
    assert {"exit": result["exit"], "sha256": result["sha256"]} == EXPECTED[name][key]


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_run_matches_recorded_digest(tmp_path, seed):
    assert seed in workload.CORPUS_SEEDS
    key, argv = next((key, argv) for key, argv in workload.calls("corpus-all", tmp_path)
                     if key.endswith(f" --seed {seed}"))
    result = workload.run_call(cli, argv)
    assert "error" not in result, result["error"]
    assert {"exit": result["exit"], "sha256": result["sha256"]} == EXPECTED["corpus-all"][key]
