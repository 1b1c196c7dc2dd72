import io
import json
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grl import cli, jsonio
from grl.rings import cyclic_ring
from grl.semigroups import left_zero_semigroup


def run_cli(*args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    out = buf.getvalue()
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def files(tmp_path):
    (tmp_path / "L2.json").write_text(jsonio.dumps_canonical(
        jsonio.semigroup_to_json(left_zero_semigroup(2))))
    (tmp_path / "Z4.json").write_text(json.dumps({"kind": "ring", "name": "Z4"}))
    (tmp_path / "bad.json").write_text(json.dumps(
        {"kind": "semigroup", "order": 2, "table": [[1, 0], [0, 0]]}))
    (tmp_path / "bn_spec.json").write_text(json.dumps(
        {"construct": "matrix_bn", "A": "Z2", "n": 2}))
    (tmp_path / "sr_spec.json").write_text(json.dumps(
        {"construct": "semigroup_ring", "A": "Z6",
         "S": {"kind": "semigroup", "order": 2, "table": [[0, 0], [0, 1]]}}))
    (tmp_path / "good_spec.json").write_text(json.dumps(
        {"construct": "good_grading", "A": "Z4", "base": "Z2",
         "deg": [[0, 1], [1, 0]]}))
    (tmp_path / "bad_deg.json").write_text(json.dumps(
        {"construct": "good_grading", "A": "Z2", "base": "B2",
         "deg": [[1, 2], [2, 4]]}))
    return tmp_path


class TestValidate:
    def test_valid_semigroup(self, files):
        code, out = run_cli("validate", str(files / "L2.json"))
        assert code == 0 and out["valid"] and out["kind"] == "semigroup"

    def test_invalid_semigroup(self, files):
        code, out = run_cli("validate", str(files / "bad.json"))
        assert code == 1 and out["error"] == "NotAssociative"
        assert out["context"] == [0, 0, 1]

    def test_missing_file(self, tmp_path):
        code, out = run_cli("validate", str(tmp_path / "nope.json"))
        assert code == 1

    def test_graded_file_with_base_by_path(self, files):
        base = jsonio.semigroup_to_json(left_zero_semigroup(2))
        (files / "base.json").write_text(json.dumps(base))
        graded = {
            "kind": "graded_ring",
            "base": {"kind": "semigroup", "ref": "base.json"},
            "components": {"0": {"order": 2, "add": [[0, 1], [1, 0]], "neg": [0, 1]},
                           "1": {"order": 2, "add": [[0, 1], [1, 0]], "neg": [0, 1]}},
            "products": [{"s": s, "t": t, "table": [[0, 0], [0, 1]]}
                         for s in (0, 1) for t in (0, 1)],
        }
        (files / "graded.json").write_text(json.dumps(graded))
        code, out = run_cli("validate", str(files / "graded.json"))
        assert code == 0 and out["kind"] == "graded_ring"


class TestClassify:
    def test_ring(self, files):
        code, out = run_cli("classify", str(files / "Z4.json"))
        assert code == 0
        assert out["verdicts"]["von_neumann_regular"] is False
        assert out["vnr_failing"] == 2
        assert out["verdicts"]["unital"] and out["unity"] == 1

    def test_semigroup(self, files):
        code, out = run_cli("classify", str(files / "L2.json"))
        assert out["verdicts"] == {"regular": True, "inverse": False, "group": False}

    def test_witness_cap(self, files):
        code, out = run_cli("classify", str(files / "Z4.json"), "--max-witnesses", "1")
        quasi = out["witnesses"]["quasi_inverses"]
        assert "_truncated" in quasi

    def test_construction_spec(self, files):
        code, out = run_cli("classify", str(files / "bn_spec.json"))
        assert code == 0
        assert out["verdicts"]["epsilon_strong"] is True
        assert out["verdicts"]["graded_vnr"] is True

    def test_groupoid(self, files, tmp_path):
        from grl.groupoids import pair_groupoid
        path = tmp_path / "pair2.json"
        path.write_text(jsonio.dumps_canonical(
            jsonio.groupoid_to_json(pair_groupoid(2))))
        code, out = run_cli("classify", str(path))
        assert code == 0
        assert out["objects"] == 2 and out["morphisms"] == 4
        assert out["verdicts"]["adjoined_zero_semigroup_inverse"] is True

    def test_reports_are_deterministic_modulo_timings(self, files):
        _, a = run_cli("classify", str(files / "Z4.json"))
        _, b = run_cli("classify", str(files / "Z4.json"))
        a.pop("timings")
        b.pop("timings")
        assert a == b


class TestCheck:
    def test_main_on_construction(self, files):
        code, out = run_cli("check", "main", str(files / "bn_spec.json"))
        assert code == 0 and out["agree"]

    def test_semigroup_ring(self, files):
        code, out = run_cli("check", "semigroup-ring", str(files / "sr_spec.json"))
        assert code == 0 and out["agree"] and out["graded_vnr"]

    def test_good_grading(self, files):
        code, out = run_cli("check", "good-grading", str(files / "good_spec.json"))
        assert code == 0 and out["agree"]
        assert out["graded_vnr"] is False and out["coefficient_vnr"] is False

    def test_q_vs_v(self, files):
        code, out = run_cli("check", "q-vs-v", str(files / "L2.json"))
        assert code == 0 and out["agree"]

    def test_vnr_char(self, files):
        code, out = run_cli("check", "vnr-char", str(files / "Z4.json"))
        assert code == 0 and out["agree"] and out["vnr"] is False

    def test_skipped_when_not_applicable(self, files):
        code, out = run_cli("check", "inverse", str(files / "L2.json"))
        assert code == 0 and out["applicable"] is False

    def test_disagreement_exits_two(self, files, monkeypatch):
        monkeypatch.setattr(cli, "run_theorem_check",
                            lambda *a, **k: {"applicable": True, "agree": False})
        code, _ = run_cli("check", "main", str(files / "bn_spec.json"))
        assert code == 2


class TestConstruct:
    def test_output_validates_and_is_deterministic(self, files):
        out1 = files / "bn1.json"
        out2 = files / "bn2.json"
        assert run_cli("construct", str(files / "bn_spec.json"), str(out1))[0] == 0
        assert run_cli("construct", str(files / "bn_spec.json"), str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        code, out = run_cli("validate", str(out1))
        assert code == 0 and out["kind"] == "graded_ring"

    def test_bad_degree_map_fails_with_named_error(self, files):
        code, out = run_cli("construct", str(files / "bad_deg.json"),
                            str(files / "x.json"))
        assert code == 1 and out["error"] == "OppositeDegreeViolation"


class TestCorpusRun:
    def test_summary_is_deterministic(self, tmp_path):
        code1, s1 = run_cli("corpus-run", "--suite", "vnr-char")
        code2, s2 = run_cli("corpus-run", "--suite", "vnr-char")
        assert code1 == code2 == 0
        s1.pop("timings")
        s2.pop("timings")
        assert s1 == s2

    def test_out_directory(self, tmp_path):
        out = tmp_path / "reports"
        code, summary = run_cli("corpus-run", "--suite", "good-grading",
                                "--out", str(out))
        assert code == 0 and (out / "summary.json").exists()
        assert summary["n_disagree"] == 0
        written = json.loads((out / "summary.json").read_text())
        assert written["n_entries"] == summary["n_entries"]

    def test_jobs_do_not_change_the_summary(self):
        _, serial = run_cli("corpus-run", "--suite", "switch")
        _, parallel = run_cli("corpus-run", "--suite", "switch", "--jobs", "4")
        serial.pop("timings")
        parallel.pop("timings")
        assert serial == parallel

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("GRL_MAX_WITNESSES", "3")
        args = cli.build_parser().parse_args(["classify", "x.json"])
        assert args.max_witnesses == 3

    def test_manifest_file(self, tmp_path):
        manifest = {"order4_sample_count": 0, "exhaustive_semigroups_max_order": 2}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code, summary = run_cli("corpus-run", "--suite", "q-vs-v",
                                "--manifest", str(path))
        assert code == 0
        assert summary["counts"]["semigroups_exhaustive_order_2"] == 8
        assert "semigroups_sampled_order_4" not in summary["counts"]

    def test_empty_corpus_gives_empty_summary(self, tmp_path):
        manifest = {"exhaustive_semigroups_max_order": 0, "order4_sample_count": 0,
                    "named_semigroups": [], "rings": [], "groupoids": [],
                    "semigroup_ring_coefficients": [], "semigroup_ring_bases": [],
                    "matrix_gradings": [], "good_gradings": [],
                    "groupoid_ring_pairs": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(manifest))
        code, summary = run_cli("corpus-run", "--suite", "all",
                                "--manifest", str(path))
        assert code == 0 and summary["n_entries"] == 0

    def test_seed_zero_from_env_is_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRL_SEED", "0")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"order4_sample_count": 0}))
        code, summary = run_cli("corpus-run", "--suite", "none", "--manifest", str(path))
        assert code == 0 and summary["seed"] == 0


class TestManifestErrors:
    def run_manifest(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        code, out = run_cli("corpus-run", "--suite", "none", "--manifest", str(path))
        assert code == 1 and set(out) == {"error", "message"}
        return out

    def test_missing_file(self, tmp_path):
        code, out = run_cli("corpus-run", "--manifest", str(tmp_path / "nope.json"))
        assert code == 1 and out["error"] == "FileNotFoundError"

    def test_bad_json(self, tmp_path):
        out = self.run_manifest(tmp_path, "{not json")
        assert out["error"] == "JSONDecodeError"

    def test_unknown_key(self, tmp_path):
        out = self.run_manifest(tmp_path, json.dumps({"seed": 1, "sead": 2}))
        assert out["error"] == "ValueError" and "sead" in out["message"]

    def test_non_integer_seed(self, tmp_path):
        out = self.run_manifest(tmp_path, json.dumps({"seed": "7"}))
        assert out["error"] == "ValueError" and "seed" in out["message"]

    @pytest.mark.parametrize("key", ["seed", "exhaustive_semigroups_max_order",
                                     "order4_sample_count"])
    def test_negative_integer(self, tmp_path, key):
        out = self.run_manifest(tmp_path, json.dumps({key: -1}))
        assert out["error"] == "ValueError" and key in out["message"]

    def test_negative_seed_flag(self):
        code, out = run_cli("corpus-run", "--suite", "none", "--seed", "-1")
        assert code == 1 and out["error"] == "ValueError" and "seed" in out["message"]

    def test_exhaustive_order_above_three(self, tmp_path):
        out = self.run_manifest(tmp_path,
                                json.dumps({"exhaustive_semigroups_max_order": 4}))
        assert out["error"] == "ValueError"
        assert "exhaustive_semigroups_max_order" in out["message"]

    @pytest.mark.parametrize("key,entry", [
        ("rings", "Z7x"), ("rings", "Z0"), ("rings", "zero0"), ("groupoids", "pair0"),
        ("groupoids", "group_Z0"), ("named_semigroups", "L9"), ("groupoids", "pair2+foo"),
        ("good_gradings", "M9"), ("rings", 7), ("matrix_gradings", ["Z2", 0]),
        ("groupoid_ring_pairs", ["Z2"])])
    def test_unknown_or_malformed_entry(self, tmp_path, key, entry):
        out = self.run_manifest(tmp_path, json.dumps({key: [entry]}))
        assert out["error"] == "ValueError" and key in out["message"]

    def test_string_in_place_of_a_list(self, tmp_path):
        out = self.run_manifest(tmp_path, json.dumps({"named_semigroups": "L2"}))
        assert out["error"] == "ValueError" and "named_semigroups" in out["message"]


class TestEnvironmentErrors:
    @pytest.mark.parametrize("name", ["GRL_SEED", "GRL_JOBS", "GRL_MAX_WITNESSES",
                                      "GRL_FG_IDEAL_BOUND"])
    def test_non_integer_value(self, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        code, out = run_cli("corpus-run", "--suite", "none")
        assert code == 1 and set(out) == {"error", "message"}
        assert out["error"] == "ValueError" and name in out["message"]

    def test_only_commands_that_read_the_option_report_it(self, files, tmp_path,
                                                          monkeypatch):
        for name in ("GRL_SEED", "GRL_JOBS", "GRL_MAX_WITNESSES", "GRL_FG_IDEAL_BOUND"):
            monkeypatch.setenv(name, "abc")
        code, out = run_cli("validate", str(files / "Z4.json"))
        assert code == 0 and out == {"valid": True, "kind": "ring"}
        code, out = run_cli("construct", str(files / "bn_spec.json"),
                            str(tmp_path / "bn.json"))
        assert code == 0 and "written" in out
        code, out = run_cli("classify", str(files / "Z4.json"))
        assert code == 1 and "GRL_MAX_WITNESSES" in out["message"]
        monkeypatch.delenv("GRL_MAX_WITNESSES")
        code, out = run_cli("classify", str(files / "Z4.json"))
        assert code == 0 and out["kind"] == "ring"
        code, out = run_cli("check", "tominaga", str(files / "Z4.json"))
        assert code == 1 and "GRL_FG_IDEAL_BOUND" in out["message"]

    @pytest.mark.parametrize("value,indented", [("False", False), ("OFF", False),
                                                 ("no", False), ("0", False),
                                                 ("TRUE", True), ("On", True),
                                                 ("yes", True), ("1", True)])
    def test_pretty_values(self, files, monkeypatch, capsys, value, indented):
        monkeypatch.setenv("GRL_PRETTY", value)
        assert cli.main(["validate", str(files / "Z4.json")]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"valid": True, "kind": "ring"}
        assert ("\n  " in out) is indented

    def test_bad_pretty_value(self, files, monkeypatch, capsys):
        monkeypatch.setenv("GRL_PRETTY", "maybe")
        assert cli.main(["validate", str(files / "Z4.json")]) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1  # printed compactly
        report = json.loads(out)
        assert set(report) == {"error", "message"}
        assert report["error"] == "ValueError" and "GRL_PRETTY" in report["message"]
        assert cli.main(["validate", "--pretty", str(files / "Z4.json")]) == 0
        assert json.loads(capsys.readouterr().out) == {"valid": True, "kind": "ring"}

    def test_flag_overrides_a_bad_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRL_SEED", "abc")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"order4_sample_count": 0}))
        code, out = run_cli("corpus-run", "--suite", "none", "--manifest", str(path),
                            "--seed", "5")
        assert code == 0 and out["seed"] == 5


class TestModuleEntryPoint:
    def test_python_dash_m_grl(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        env.pop("GRL_SEED", None)
        proc = subprocess.run([sys.executable, "-m", "grl", "corpus-run", "--suite", "none"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["suite"] == "none" and summary["n_entries"] == 0


class TestRingConstructorFiles:
    """README's ring constructor files are rings, not construction specs."""

    @pytest.mark.parametrize("spec,order", [
        ({"kind": "ring", "construct": "Zn", "n": 6}, 6),
        ({"kind": "ring", "construct": "product",
          "factors": ["Z2", {"construct": "Zn", "n": 3}]}, 6),
        ({"kind": "ring", "construct": "matrix", "A": "Z2", "n": 2}, 16),
    ], ids=["Zn", "product", "matrix"])
    def test_validate_and_classify(self, tmp_path, spec, order):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(spec))
        assert run_cli("validate", str(path)) == (0, {"valid": True, "kind": "ring"})
        code, out = run_cli("classify", str(path))
        assert code == 0 and out["kind"] == "ring" and out["order"] == order


class TestJsonRoundTrips:
    def test_ring_constructor_forms(self, tmp_path):
        spec = {"kind": "ring", "construct": "product",
                "factors": ["Z2", {"construct": "Zn", "n": 3}]}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(spec))
        kind, T = jsonio.load_structure(path)
        assert kind == "ring" and T.order == 6

    def test_matrix_constructor(self, tmp_path):
        spec = {"kind": "ring", "construct": "matrix", "A": "Z2", "n": 2}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(spec))
        _, T = jsonio.load_structure(path)
        assert T.order == 16

    def test_groupoid_round_trip(self, tmp_path):
        from grl.groupoids import pair_groupoid
        G = pair_groupoid(2)
        path = tmp_path / "g.json"
        path.write_text(jsonio.dumps_canonical(jsonio.groupoid_to_json(G)))
        kind, back = jsonio.load_structure(path)
        assert kind == "groupoid"
        assert (back.dom, back.cod, back.inv, back.table) == \
            (G.dom, G.cod, G.inv, G.table)

    def test_ring_round_trip(self, tmp_path):
        T = cyclic_ring(6)
        path = tmp_path / "z6.json"
        path.write_text(jsonio.dumps_canonical(jsonio.ring_to_json(T)))
        _, back = jsonio.load_structure(path)
        assert back.mul == T.mul and back.additive.add == T.additive.add


Z2_GROUP = {"order": 2, "add": [[0, 1], [1, 0]], "neg": [0, 1]}
TRIVIAL_BASE = {"kind": "semigroup", "order": 1, "table": [[0]]}


def graded_file(components, products):
    return {"kind": "graded_ring", "base": {"kind": "semigroup", "ref": TRIVIAL_BASE},
            "components": components, "products": products}


class TestInputFileRules:
    """Files that contradict themselves exit 1 with the error report."""

    @pytest.mark.parametrize("data", [
        {"kind": "semigroup", "order": 3, "table": [[0, 0], [1, 1]]},
        {"kind": "semigroup", "order": "2", "table": [[0, 0], [1, 1]]},
        {"kind": "ring", "order": 7, "add": [[0, 1], [1, 0]], "neg": [0, 1],
         "mul": [[0, 0], [0, 1]]},
        graded_file({"0": {**Z2_GROUP, "order": 4}}, []),
    ], ids=["semigroup", "semigroup-string", "ring", "graded-component"])
    def test_declared_order_must_match_the_table(self, tmp_path, data):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        code, out = run_cli("validate", str(path))
        assert code == 1 and out["valid"] is False and out["error"] == "OutOfRange"
        assert "declared order" in out["message"]

    def test_matching_orders_pass(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(graded_file(
            {"0": Z2_GROUP}, [{"s": 0, "t": 0, "table": [[0, 0], [0, 1]]}])))
        assert run_cli("validate", str(path)) == (0, {"valid": True, "kind": "graded_ring"})

    @pytest.mark.parametrize("command", [["validate"], ["classify"], ["check", "main"]])
    def test_morphism_labels_must_match_the_morphisms(self, tmp_path, command):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "kind": "groupoid", "objects": [0],
            "morphisms": [{"dom": 0, "cod": 0, "inv": 0}, {"dom": 0, "cod": 0, "inv": 1}],
            "compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
            "morphism_labels": ["e"]}))
        code, out = run_cli(*command, str(path))
        assert code == 1 and out["error"] == "OutOfRange"
        assert out["message"] == "expected 2 morphism labels, got 1"

    @pytest.mark.parametrize("command", [["validate"], ["classify"], ["construct"]])
    @pytest.mark.parametrize("data", [[1, 2], "Z2"], ids=["list", "string"])
    def test_top_level_must_be_an_object(self, tmp_path, command, data):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        extra = [str(tmp_path / "out.json")] if command == ["construct"] else []
        code, out = run_cli(*command, str(path), *extra)
        assert code == 1 and out["error"] == "OutOfRange"
        assert out["message"].startswith("expected a JSON object")

    def test_component_key_naming_no_grader(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(graded_file({"0": Z2_GROUP, "5": Z2_GROUP}, [])))
        code, out = run_cli("validate", str(path))
        assert code == 1 and out["error"] == "OutOfRange"
        assert out["message"] == "component key '5' names no grader"

    def test_product_entry_given_twice(self, tmp_path):
        # either table alone is a valid grading, with different verdicts
        products = [{"s": 0, "t": 0, "table": [[0, 0], [0, 1]]},
                    {"s": 0, "t": 0, "table": [[0, 0], [0, 0]]}]
        path = tmp_path / "f.json"
        path.write_text(json.dumps(graded_file({"0": Z2_GROUP}, products)))
        code, out = run_cli("classify", str(path))
        assert code == 1 and out["error"] == "OutOfRange" and out["context"] == [0, 0]
        assert out["message"] == "product entry (0, 0) appears twice"

    def test_compose_entry_given_twice(self, tmp_path):
        data = {"kind": "groupoid", "objects": [0],
                "morphisms": [{"dom": 0, "cod": 0, "inv": 0}],
                "compose": [[0, 0, 0], [0, 0, 0]]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        code, out = run_cli("validate", str(path))
        assert code == 1 and out["error"] == "OutOfRange" and out["context"] == [0, 0]
        assert out["message"] == "compose entry (0, 0) appears twice"
