import io
import hashlib
import json
import contextlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grl import cli, jsonio, semigroups
from grl.corpus import MAX_ORDER4_SAMPLES
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

    def test_vnr_char_bound_past_the_order(self, tmp_path):
        # a bound of a million finishes, and reads as the bound 48 = order
        path = tmp_path / "M2Z2xZ3.json"
        path.write_text(json.dumps({"kind": "ring", "construct": "product", "factors": [
            {"construct": "matrix", "A": "Z2", "n": 2}, "Z3"]}))
        code, huge = run_cli("check", "vnr-char", str(path), "--fg-ideal-bound", "1000000")
        assert code == 0 and huge.pop("timings") and huge["bound"] == 1000000
        code, order = run_cli("check", "vnr-char", str(path), "--fg-ideal-bound", "48")
        assert code == 0 and order.pop("timings") and {**huge, "bound": 48} == order
        assert order["agree"] and order["finitely_generated_ideals_idempotent"]

    def test_skipped_when_not_applicable(self, files):
        code, out = run_cli("check", "inverse", str(files / "L2.json"))
        assert code == 0 and out["applicable"] is False

    def test_disagreement_exits_two(self, files, monkeypatch):
        monkeypatch.setattr(cli, "run_theorem_check",
                            lambda *a, **k: {"applicable": True, "agree": False})
        code, _ = run_cli("check", "main", str(files / "bn_spec.json"))
        assert code == 2


SEMIGROUP_BASE = "needs a semigroup base"
GROUPOID_BASE = "needs a groupoid-graded ring"
GRADED = ("semigroup-graded", "groupoid-graded", "semigroup_ring", "matrix_bn",
          "good_grading", "groupoid_ring")

# theorem: (reason when grl refuses the input, the check that runs otherwise,
# {input kind it runs on: the reason in its report, None if applicable}).
# Every run exits 0: no check disagrees on these inputs.
CHECK_PINS = {
    "q-vs-v": ("needs a semigroup file", "q-vs-v", {"semigroup": None}),
    "vnr-char": ("needs a ring file", "vnr-characterization", {"ring": None}),
    "tominaga": ("needs a ring file", "tominaga", {"ring": None}),
    "main": ("needs a graded ring", "theorem-main", {
        **dict.fromkeys(GRADED), "groupoid-graded": SEMIGROUP_BASE,
        "groupoid_ring": SEMIGROUP_BASE}),
    "inverse": ("needs a graded ring", "theorem-inverse", {
        **dict.fromkeys(GRADED), "semigroup-graded": "base is not an inverse semigroup",
        "groupoid-graded": SEMIGROUP_BASE, "groupoid_ring": SEMIGROUP_BASE}),
    "lemma-technical": ("needs a graded ring", "lemma-technical", {
        **dict.fromkeys(GRADED), "good_grading": "hypotheses fail: needs nearly "
        "epsilon-strong grading with regular idempotent components"}),
    "eps-chars": ("needs a graded ring", "eps-characterizations", dict.fromkeys(GRADED)),
    "corollaries": ("needs a graded ring", "corollaries", dict.fromkeys(GRADED)),
    "semigroup-ring": ("needs a semigroup_ring construction spec", "semigroup-ring",
                       {"semigroup_ring": None}),
    "good-grading": ("needs a good_grading construction spec", "good-grading",
                     {"good_grading": None}),
    "matrix-bn": ("needs a matrix_bn construction spec", "matrix-bn", {"matrix_bn": None}),
    "switch": ("needs a graded ring", "prop-switch", {
        **dict.fromkeys(GRADED, GROUPOID_BASE), "groupoid-graded": None,
        "groupoid_ring": None}),
    # a groupoid file runs the adjoined-zero-semigroup check of the groupoid
    # suite; the name-based pair-groupoid match needs a corpus entry
    "groupoid": ("needs a graded ring", "theorem-groupoid", {
        **dict.fromkeys(GRADED, GROUPOID_BASE), "groupoid-graded": None,
        "groupoid_ring": None}),
}


@pytest.fixture
def check_inputs(files):
    from grl.constructions import groupoid_ring, semigroup_ring
    from grl.groupoids import pair_groupoid

    written = {
        "groupoid.json": jsonio.groupoid_to_json(pair_groupoid(2)),
        "sg_graded.json": jsonio.graded_to_json(
            semigroup_ring(cyclic_ring(2), left_zero_semigroup(2))),
        "gpd_graded.json": jsonio.graded_to_json(
            groupoid_ring(cyclic_ring(2), pair_groupoid(2))),
        "gpd_spec.json": {"construct": "groupoid_ring", "A": "Z2", "G": "pair2"},
    }
    for name, data in written.items():
        (files / name).write_text(json.dumps(data))
    names = {"semigroup": "L2", "ring": "Z4", "groupoid": "groupoid",
             "semigroup-graded": "sg_graded", "groupoid-graded": "gpd_graded",
             "semigroup_ring": "sr_spec", "matrix_bn": "bn_spec",
             "good_grading": "good_spec", "groupoid_ring": "gpd_spec"}
    return {kind: files / f"{name}.json" for kind, name in names.items()}


@pytest.mark.parametrize("kind", ["semigroup", "ring", "groupoid", *GRADED])
@pytest.mark.parametrize("theorem", CHECK_PINS)
def test_check_on_every_input_kind(check_inputs, theorem, kind):
    refused, ran, runs_on = CHECK_PINS[theorem]
    code, out = run_cli("check", theorem, str(check_inputs[kind]))
    if theorem == "groupoid" and kind == "groupoid":
        expected = (0, True, "adjoined-zero-semigroup", None)
    elif kind in runs_on:
        expected = (0, runs_on[kind] is None, ran, runs_on[kind])
    else:
        expected = (0, False, theorem, refused)
    assert (code, out["applicable"], out["check"], out.get("reason")) == expected


def test_readme_names_every_check():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Theorems for `grl check`:(.*?)\.\s", readme, re.DOTALL)
    assert tuple(re.findall(r"`([^`]+)`", sentence.group(1))) == cli.THEOREMS


class TestConstruct:
    def test_output_validates_and_is_deterministic(self, files):
        out1 = files / "bn1.json"
        out2 = files / "bn2.json"
        assert run_cli("construct", str(files / "bn_spec.json"), str(out1))[0] == 0
        assert run_cli("construct", str(files / "bn_spec.json"), str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        code, out = run_cli("validate", str(out1))
        assert code == 0 and out["kind"] == "graded_ring"

    def test_groupoid_ring_bytes_are_unchanged(self, tmp_path):
        # sha256 of the file written when groupoid tables were tuples with None
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"construct": "groupoid_ring", "A": "Z2",
                                    "G": "pair2+group_Z2"}))
        out = tmp_path / "out.json"
        assert run_cli("construct", str(spec), str(out))[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "dc3da4ccd4adf5b0a47cf6797ba8f651a5e6f98bdc12729f5f54befbf7b72ce1")

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

    @pytest.mark.parametrize("suite, jobs", [("none", "1"), ("vnr-char", "1"),
                                             ("all", "1"), ("switch", "4")])
    def test_timings_give_the_seconds_of_each_suite_that_ran(self, tmp_path, monkeypatch,
                                                             suite, jobs):
        if jobs == "1":  # a clock that ticks one second a reading: a task takes 1 s
            monkeypatch.setattr(cli.time, "perf_counter", iter(range(10**6)).__next__)
        out = tmp_path / "reports"
        code, summary = run_cli("corpus-run", "--suite", suite, "--jobs", jobs,
                                "--out", str(out))
        assert code == 0
        timings = summary.pop("timings")
        ran = {"none": set(), "all": set(cli.THEOREMS)}.get(suite, {suite})
        assert set(timings["suites"]) == ran
        if jobs == "1":
            tasks = {name: sum(e["suite"] == name for e in summary["entries"]) for name in ran}
            assert timings["suites"] == tasks
        else:
            assert all(seconds >= 0 for seconds in timings["suites"].values())
        # summary.json has no timings, so it is the same from run to run
        assert json.loads((out / "summary.json").read_text()) == summary

    def test_jobs_do_not_change_the_summary(self):
        _, serial = run_cli("corpus-run", "--suite", "switch")
        _, parallel = run_cli("corpus-run", "--suite", "switch", "--jobs", "4")
        serial.pop("timings")
        parallel.pop("timings")
        assert serial == parallel

    def test_tables_scanned_does_not_depend_on_the_batch(self, monkeypatch):
        _, big = run_cli("corpus-run", "--suite", "none")
        monkeypatch.setattr(semigroups, "SAMPLE_BATCH", 8192)
        _, small = run_cli("corpus-run", "--suite", "none")
        scanned = big["timings"]["order4_tables_scanned"]
        assert scanned == small["timings"]["order4_tables_scanned"] > 65_536
        assert "order4_tables_scanned" not in big["counts"]
        big.pop("timings")
        small.pop("timings")
        assert big == small

    def test_one_parser_with_the_defaults_of_its_options(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        args = parser.parse_args(["corpus-run"])
        assert (args.seed, args.jobs, args.pretty, args.max_witnesses,
                args.fg_ideal_bound) == (None, 1, False, 100, 2)
        args = parser.parse_args(["corpus-run", "--seed", "5", "--fg-ideal-bound", "1"])
        assert (args.seed, args.fg_ideal_bound) == (5, 1)

    def test_command_is_looked_up_on_the_module_at_each_call(self, files, monkeypatch):
        # the parser is built once per process; a cmd_* wrapper set after the
        # first call must still be the function that runs
        code, out = run_cli("check", "q-vs-v", str(files / "L2.json"))
        assert code == 0 and out["agree"]
        seen = []
        monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.theorem) or 7)
        assert run_cli("check", "q-vs-v", str(files / "L2.json")) == (7, None)
        assert seen == ["q-vs-v"]

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

    def test_seed_zero_is_used(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"order4_sample_count": 0}))
        code, summary = run_cli("corpus-run", "--suite", "none", "--manifest", str(path),
                                "--seed", "0")
        assert code == 0 and summary["seed"] == 0


@pytest.fixture(scope="module")
def dumped_corpus(tmp_path_factory):
    """The default corpus as files, and the entries of its `--suite all` run."""
    directory = tmp_path_factory.mktemp("corpus")
    code, summary = run_cli("corpus-run", "--suite", "all", "--dump", str(directory))
    assert code == 0
    return directory, summary["entries"]


# Construction suites read the construction's data (meta), which a structure
# file does not carry, so `grl check` refuses their dumped files.
CONSTRUCTION_SUITES = ("semigroup-ring", "good-grading", "matrix-bn")


@pytest.mark.parametrize("suite", [s for s in cli.THEOREMS if s not in CONSTRUCTION_SUITES])
def test_check_on_a_dumped_entry_gives_its_suite_report(dumped_corpus, suite):
    directory, entries = dumped_corpus
    # the pair-groupoid match is found by name; a file has none
    compared = [e for e in entries if e["suite"] == suite
                and not re.fullmatch(r"gpd:pair\d+", e["id"])]
    assert compared
    for entry in compared:
        path = directory / (entry["id"].replace(":", "_").replace("+", "-") + ".json")
        code, report = run_cli("check", suite, str(path))
        for key in ("subject", "tool_version", "timings"):
            report.pop(key)
        assert report == entry["report"], entry["id"]
        assert code == {"agree": 0, "skipped": 0, "disagree": 2}[entry["status"]]


class TestOutputPathErrors:
    """An output path that cannot be written is reported like bad input."""

    @pytest.mark.parametrize("flag, error", [("--out", "NotADirectoryError"),
                                             ("--dump", "FileExistsError")])
    def test_corpus_run_onto_a_file(self, tmp_path, flag, error):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"order4_sample_count": 0}))
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out = run_cli("corpus-run", "--suite", "none", "--manifest", str(manifest),
                            flag, str(taken))
        assert code == 1 and set(out) == {"error", "message"} and out["error"] == error

    def test_construct_under_a_file(self, files):
        (files / "taken").write_text("")
        code, out = run_cli("construct", str(files / "bn_spec.json"),
                            str(files / "taken" / "x.json"))
        assert code == 1 and set(out) == {"error", "message"}
        assert out["error"] == "FileExistsError"


class TestManifestErrors:
    def run_manifest(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        code, out = run_cli("corpus-run", "--suite", "none", "--manifest", str(path))
        assert code == 1 and set(out) == {"error", "message"}
        return out

    @pytest.mark.parametrize("text", ["[1]", "7", '"seed"', "null"])
    def test_not_an_object(self, tmp_path, text):
        out = self.run_manifest(tmp_path, text)
        assert out["error"] == "ValueError"
        assert out["message"].startswith("manifest must be a JSON object")

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

    def test_order4_sample_count_is_bounded(self, tmp_path):
        # a million samples would take days; the bound answers at once
        out = self.run_manifest(tmp_path, json.dumps({"order4_sample_count": 1_000_000}))
        assert out == {"error": "ValueError", "message":
                       f"manifest order4_sample_count is at most {MAX_ORDER4_SAMPLES}"}

    @pytest.mark.parametrize("key,entry", [
        ("rings", "Z7x"), ("rings", "Z0"), ("rings", "zero0"), ("groupoids", "pair0"),
        ("groupoids", "group_Z0"), ("named_semigroups", "L9"), ("groupoids", "pair2+foo"),
        ("good_gradings", "M9"), ("rings", 7), ("matrix_gradings", ["Z2", 0]),
        ("groupoid_ring_pairs", ["Z2"]), ("rings", "Z1025"),
        ("semigroup_ring_coefficients", "zero1025")])
    def test_unknown_or_malformed_entry(self, tmp_path, key, entry):
        out = self.run_manifest(tmp_path, json.dumps({key: [entry]}))
        assert out["error"] == "ValueError" and key in out["message"]

    def test_string_in_place_of_a_list(self, tmp_path):
        out = self.run_manifest(tmp_path, json.dumps({"named_semigroups": "L2"}))
        assert out["error"] == "ValueError" and "named_semigroups" in out["message"]


class TestSettings:
    """Every setting comes from the command line; the environment has no say."""

    def test_pretty_indents_and_the_default_is_one_compact_line(self, files, capsys):
        assert cli.main(["validate", str(files / "Z4.json")]) == 0
        assert capsys.readouterr().out == '{"kind":"ring","valid":true}\n'
        assert cli.main(["validate", "--pretty", str(files / "Z4.json")]) == 0
        assert capsys.readouterr().out == '{\n  "kind": "ring",\n  "valid": true\n}\n'

    def test_grl_variables_change_no_output(self, files, monkeypatch, capsys):
        # timings are the only bytes that differ from run to run
        monkeypatch.setattr(cli.time, "perf_counter", lambda: 0.0)

        def printed():
            runs = []
            for argv in (["corpus-run", "--suite", "none"],
                         ["classify", str(files / "Z4.json")]):
                code = cli.main(argv)
                runs.append((code, capsys.readouterr().out))
            return runs

        settings = {"GRL_SEED": "0", "GRL_PRETTY": "maybe", "GRL_MAX_WITNESSES": "-1",
                    "GRL_FG_IDEAL_BOUND": "abc", "GRL_JOBS": "2"}
        for name in settings:
            monkeypatch.delenv(name, raising=False)
        unset = printed()
        assert [code for code, _ in unset] == [0, 0]
        for name, value in settings.items():
            monkeypatch.setenv(name, value)
        assert printed() == unset


class TestOptionBounds:
    """A generator bound below 1 would make vnr-char's scan (iii) vacuously
    true and report a false disagreement, a negative witness cap would
    empty every witness list, and fewer than one worker thread names no
    way to run; each exits 1 instead."""

    BOUND = "--fg-ideal-bound must be at least 1, got {}"
    CAP = "--max-witnesses must be at least 0, got {}"

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bound_below_one_on_the_command_line(self, files, value):
        code, out = run_cli("check", "vnr-char", str(files / "Z4.json"),
                            "--fg-ideal-bound", value)
        assert code == 1 and out == {"error": "ValueError",
                                     "message": self.BOUND.format(value)}

    def test_negative_witness_cap(self, files):
        code, out = run_cli("classify", str(files / "Z4.json"), "--max-witnesses", "-1")
        assert code == 1 and out == {"error": "ValueError", "message": self.CAP.format(-1)}

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_below_one(self, value):
        code, out = run_cli("corpus-run", "--suite", "switch", "--jobs", value)
        assert code == 1 and out == {"error": "ValueError",
                                     "message": f"--jobs must be at least 1, got {value}"}

    def test_smallest_values_are_accepted(self, files):
        code, out = run_cli("check", "vnr-char", str(files / "Z4.json"),
                            "--fg-ideal-bound", "1", "--max-witnesses", "0")
        assert code == 0 and out["bound"] == 1 and out["agree"]

    def test_validate_reads_neither_option(self, files):
        code, out = run_cli("validate", str(files / "Z4.json"),
                            "--fg-ideal-bound", "0", "--max-witnesses", "-1")
        assert code == 0 and out == {"valid": True, "kind": "ring"}


class TestRepeatedCalls:
    """The catalog and the good-grading tables are built once per process,
    and a second call still checks everything afresh, to the same bytes."""

    @pytest.mark.parametrize("spec", ["M3_Z3_spec.json", "bn_spec.json", "sr_spec.json"])
    def test_second_check_prints_the_same_bytes(self, files, spec):
        (files / "M3_Z3_spec.json").write_text(json.dumps(
            {"construct": "good_grading", "A": "Z3", "base": "Z3",
             "deg": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]}))

        def printed():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["check", "lemma-technical", str(files / spec)])
            return code, re.sub(r'"timings":\{[^}]*\}', "", buf.getvalue())

        first = printed()
        assert first[0] == 0 and '"triples_checked"' in first[1]
        assert printed() == first


class TestModuleEntryPoint:
    def test_python_dash_m_grl(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-m", "grl", "corpus-run", "--suite", "none"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["suite"] == "none" and summary["n_entries"] == 0


    def test_import_starts_no_thread(self):
        # the sampler's helper thread exists only during a sampling call
        code = "import threading, grl.cli; print(threading.active_count())"
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert out.stdout.strip() == "1"


class TestRingConstructorFiles:
    """README's ring constructor files are rings, not construction specs."""

    @pytest.mark.parametrize("spec,order", [
        ({"kind": "ring", "construct": "Zn", "n": 6}, 6),
        ({"kind": "ring", "construct": "product",
          "factors": ["Z2", {"construct": "Zn", "n": 3}]}, 6),
        ({"kind": "ring", "construct": "matrix", "A": "Z2", "n": 2}, 16),
        ({"kind": "ring", "construct": "matrix", "A": "Z2", "n": 3}, 512),
        ({"kind": "ring", "construct": "matrix", "A": "Z2", "n": 0}, 1),
    ], ids=["Zn", "product", "matrix", "M3(Z2)", "M0(Z2)"])
    def test_validate_and_classify(self, tmp_path, spec, order):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(spec))
        assert run_cli("validate", str(path)) == (0, {"valid": True, "kind": "ring"})
        code, out = run_cli("classify", str(path))
        assert code == 0 and out["kind"] == "ring" and out["order"] == order

    @pytest.mark.parametrize("construct,n", [
        ("Zn", 2.7), ("Zn", True), ("Zn", "3"), ("Zn", 0), ("Zn", None),
        ("matrix", 2.7), ("matrix", True), ("matrix", "3"), ("matrix", -1)])
    def test_n_must_be_an_integer(self, tmp_path, construct, n):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"kind": "ring", "construct": construct, "A": "Z2", "n": n}))
        code, out = run_cli("validate", str(path))
        assert code == 1 and out["error"] == "OutOfRange"
        assert out["message"].startswith("n must be an integer >= ")

    @pytest.mark.parametrize("spec", [
        {"kind": "ring", "construct": "Zn", "n": 1025},
        {"kind": "ring", "construct": "matrix", "A": "Z6", "n": 2},
        {"kind": "ring", "construct": "product", "factors": ["Z2"] * 11},
        {"kind": "ring", "name": "zero1025"}], ids=["Z1025", "M2(Z6)", "Z2^11", "zero1025"])
    def test_order_bound(self, tmp_path, spec):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli("validate", str(path))
        assert code == 1 and "MAX_RING_ORDER = 1024" in out["message"]

    @pytest.mark.parametrize("name,message", [
        ("Q7", "unknown ring name: 'Q7'"),
        ("zero1025", "ring name 'zero1025' is above MAX_RING_ORDER = 1024")])
    def test_ring_name_errors_are_quoted_once(self, tmp_path, name, message):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"kind": "ring", "name": name}))
        assert run_cli("validate", str(path)) == (
            1, {"valid": False, "error": "KeyError", "message": message})

    @pytest.mark.parametrize("spec,field", [
        ({"kind": "ring"}, "add"),
        ({"kind": "ring", "add": [[0]]}, "neg"),
        ({"kind": "ring", "construct": "Zn"}, "n"),
        ({"kind": "semigroup"}, "table"),
        ({"kind": "groupoid", "objects": [0], "morphisms": [{"dom": 0, "cod": 0}]}, "inv"),
        ({"kind": "graded_ring", "base": {"kind": "semigroup"}}, "ref"),
    ], ids=["add", "neg", "n", "table", "inv", "ref"])
    def test_missing_fields_are_named(self, tmp_path, spec, field):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        assert run_cli("validate", str(path)) == (
            1, {"valid": False, "error": "KeyError", "message": f"missing field '{field}'"})

    @pytest.mark.parametrize("n", [2.0, True, "2", 0])
    def test_matrix_bn_n_must_be_an_integer(self, tmp_path, n):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"construct": "matrix_bn", "A": "Z2", "n": n}))
        code, out = run_cli("construct", str(spec), str(tmp_path / "out.json"))
        assert code == 1 and out["message"].startswith("n must be an integer >= 1")
        assert not (tmp_path / "out.json").exists()


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
        assert (back.dom, back.cod, back.inv) == (G.dom, G.cod, G.inv)
        assert np.array_equal(back.table, G.table)

    def test_ring_round_trip(self, tmp_path):
        T = cyclic_ring(6)
        path = tmp_path / "z6.json"
        path.write_text(jsonio.dumps_canonical(jsonio.ring_to_json(T)))
        _, back = jsonio.load_structure(path)
        assert (back.mul.tolist() == T.mul.tolist()
                and back.additive.add.tolist() == T.additive.add.tolist())


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

    @pytest.mark.parametrize("data", [
        {"kind": "semigroup", "table": [[0, 1], [1, 0]], "labels": "ab"},
        {"kind": "groupoid", "objects": [0],
         "morphisms": [{"dom": 0, "cod": 0, "inv": 0}, {"dom": 0, "cod": 0, "inv": 1}],
         "compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], "morphism_labels": "ea"},
        {"kind": "groupoid", "objects": "a", "morphisms": [{"dom": 0, "cod": 0, "inv": 0}],
         "compose": [[0, 0, 0]]},
    ], ids=["labels", "morphism_labels", "objects"])
    def test_labels_given_as_a_string_are_refused(self, tmp_path, data):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        code, out = run_cli("validate", str(path))
        assert code == 1 and out["error"] == "OutOfRange"
        assert "labels must be a list, not the string" in out["message"]

    @pytest.mark.parametrize("data,field", [
        ({"kind": "semigroup", "table": [[0]], "labels": 5}, "labels"),
        ({"kind": "groupoid", "objects": [0], "morphisms": [{"dom": 0, "cod": 0, "inv": 0}],
          "compose": [[0, 0, 0]], "morphism_labels": 5}, "morphism labels"),
        ({"kind": "groupoid", "objects": 5, "morphisms": [{"dom": 0, "cod": 0, "inv": 0}],
          "compose": [[0, 0, 0]]}, "object labels"),
    ], ids=["labels", "morphism_labels", "objects"])
    def test_labels_given_as_a_number_are_refused(self, tmp_path, data, field):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        code, out = run_cli("validate", str(path))
        assert code == 1 and out["error"] == "OutOfRange"
        assert out["message"] == f"{field} must be a list, not 5"

    @pytest.mark.parametrize("command", [["validate"], ["classify"], ["construct"]])
    @pytest.mark.parametrize("data", [[1, 2], "Z2"], ids=["list", "string"])
    def test_top_level_must_be_an_object(self, tmp_path, command, data):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        extra = [str(tmp_path / "out.json")] if command == ["construct"] else []
        code, out = run_cli(*command, str(path), *extra)
        assert code == 1 and out["error"] == "OutOfRange"
        assert out["message"].startswith("expected a JSON object")

    @pytest.mark.parametrize("command", [["validate"], ["check", "main"]])
    @pytest.mark.parametrize("data,message", [
        (graded_file([], []), "components must be a JSON object, got list"),
        (graded_file({}, {}), "products must be a JSON list, got dict"),
        (graded_file({"0": Z2_GROUP}, {"0": {"s": 0, "t": 0, "table": [[0, 0], [0, 1]]}}),
         "products must be a JSON list, got dict"),
        ({"kind": "groupoid", "objects": [0], "morphisms": 5, "compose": [[0, 0, 0]]},
         "morphisms must be a JSON list, got int"),
        ({"kind": "groupoid", "objects": [0], "morphisms": [{"dom": 0, "cod": 0, "inv": 0}],
          "compose": {"0": [0, 0, 0]}}, "compose must be a JSON list, got dict"),
        ({"kind": "graded_ring", "base": [1], "components": {}, "products": []},
         "base must be a JSON object, got list"),
        ({"kind": "graded_ring", "base": {"kind": "semigroup", "ref": 5}, "components": {},
          "products": []}, "base ref must be a JSON object, got int"),
        (graded_file({"0": 5}, []), "component '0' must be a JSON object, got int"),
    ], ids=["components-list", "products-empty-object", "products-object", "morphisms-int",
            "compose-object", "base-list", "base-ref-int", "component-int"])
    def test_containers_of_the_wrong_type_are_named(self, tmp_path, command, data, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        code, out = run_cli(*command, str(path))
        assert code == 1 and out["error"] == "OutOfRange" and out["message"] == message

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

    @pytest.mark.parametrize("command", [["validate"], ["classify"]])
    @pytest.mark.parametrize("key", [True, 1.0, "1", None],
                             ids=["bool", "float", "string", "null"])
    def test_grader_keys_must_be_integers(self, tmp_path, command, key):
        # the group ring Z2[Z2], valid if true were read as grader 1
        base = {"kind": "semigroup", "order": 2, "table": [[0, 1], [1, 0]]}
        mul = [[0, 0], [0, 1]]
        data = {"kind": "graded_ring", "base": {"kind": "semigroup", "ref": base},
                "components": {"0": Z2_GROUP, "1": Z2_GROUP},
                "products": [{"s": s, "t": t, "table": mul}
                             for s, t in ((0, 0), (0, 1), (key, 0), (1, 1))]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        code, out = run_cli(*command, str(path))
        assert code == 1 and out["error"] == "OutOfRange" and out["context"] == [key, 0]
        assert out["message"] == f"product key ({key!r}, 0) is not a pair of integers"

    def test_compose_entry_given_twice(self, tmp_path):
        data = {"kind": "groupoid", "objects": [0],
                "morphisms": [{"dom": 0, "cod": 0, "inv": 0}],
                "compose": [[0, 0, 0], [0, 0, 0]]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        code, out = run_cli("validate", str(path))
        assert code == 1 and out["error"] == "OutOfRange" and out["context"] == [0, 0]
        assert out["message"] == "compose entry (0, 0) appears twice"

    @pytest.mark.parametrize("command", [["validate"], ["classify"]])
    @pytest.mark.parametrize("data,context,message", [
        (graded_file({"0": Z2_GROUP}, [{"s": [0], "t": 0, "table": [[0, 0], [0, 1]]}]),
         [[0], 0], "product key ([0], 0) is not a pair of integers"),
        (graded_file({"0": Z2_GROUP}, [{"s": 0, "t": {"a": 1}, "table": [[0, 0], [0, 1]]}]),
         [0, {"a": 1}], "product key (0, {'a': 1}) is not a pair of integers"),
        (graded_file({"0": Z2_GROUP}, [[0, 0, [[0, 0], [0, 1]]]]),
         [0], "product entry 0 is not an object"),
        ({"kind": "groupoid", "objects": [0], "morphisms": [{"dom": 0, "cod": 0, "inv": 0}],
          "compose": [[0, 0, 0], [0, 0]]},
         [1], "compose entry 1 is not a triple [g, h, gh]"),
        ({"kind": "groupoid", "objects": [0], "morphisms": [{"dom": 0, "cod": 0, "inv": 0}],
          "compose": [[[0], 0, 0]]},
         [[0], 0], "compose key ([0], 0) is not a pair of integers"),
        ({"kind": "groupoid", "objects": [0], "morphisms": [[0, 0, 0]], "compose": [[0, 0, 0]]},
         [0], "morphism entry 0 is not an object"),
    ], ids=["product-key-list", "product-key-object", "product-item-list",
            "compose-pair", "compose-key-list", "morphism-list"])
    def test_malformed_entries_are_named(self, tmp_path, command, data, context, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        code, out = run_cli(*command, str(path))
        assert code == 1 and out["error"] == "OutOfRange"
        assert out["context"] == context and out["message"] == message
