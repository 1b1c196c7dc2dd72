"""Every ``ring-ideals`` and ``large-gradings`` benchmark call gives the exit
code and output digest recorded in ``bench/expected.json``.

The inputs, the argument lists and the digest come from ``bench/workload.py``,
so a change that alters any of these reports fails here, not only in a
benchmark run.  ``corpus-all`` is left out: one of its calls takes longer than
this whole module.
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
