import json
from collections import Counter
from types import SimpleNamespace

import numpy as np

from grl import catalog, cli, jsonio
from grl.corpus import CorpusManifest, default_manifest, generate_corpus, write_corpus
from grl.gradings import is_epsilon_strong, is_graded_vnr, is_nearly_epsilon_strong


class TestGeneration:
    def test_exhaustive_counts(self, corpus):
        assert corpus.counts["semigroups_exhaustive_order_1"] == 1
        assert corpus.counts["semigroups_exhaustive_order_2"] == 8
        assert corpus.counts["semigroups_exhaustive_order_3"] == 113

    def test_enough_semigroup_graded_entries(self, corpus):
        n = sum(1 for e in corpus.graded if e.graded.base_kind == "semigroup")
        assert n >= 30

    def test_regeneration_is_identical(self, corpus):
        again = generate_corpus(default_manifest())
        assert [e.id for e in again.all_entries()] == \
            [e.id for e in corpus.all_entries()]
        for a, b in zip(again.semigroups, corpus.semigroups):
            assert np.array_equal(a.structure.table, b.structure.table)
        for a, b in zip(again.graded, corpus.graded):
            assert jsonio.graded_to_json(a.graded) == jsonio.graded_to_json(b.graded)

    def test_each_named_structure_is_built_once(self, monkeypatch):
        m = default_manifest()
        good = [catalog.GOOD_GRADING_SPECS[name] for name in m.good_gradings]
        names = {
            "named_ring": {*m.rings, *m.semigroup_ring_coefficients,
                           *(a for a, _ in m.matrix_gradings), *(a for a, _, _ in good),
                           *(a for a, _ in m.groupoid_ring_pairs)},
            "named_semigroup": {*m.named_semigroups, *m.semigroup_ring_bases,
                                *(base for _, base, _ in good)},
            "named_groupoid": {*m.groupoids, *(g for _, g in m.groupoid_ring_pairs)},
        }
        built = {builder: Counter() for builder in names}
        for builder in names:
            def counted(name, _builder=builder, _build=getattr(catalog, builder)):
                built[_builder][name] += 1
                return _build(name)
            monkeypatch.setattr(catalog, builder, counted)
        generate_corpus(m)
        for builder, used in names.items():
            assert built[builder] == Counter(used), builder

    def test_semigroup_ring_suite_builds_no_ring(self, corpus, monkeypatch):
        # each entry's meta holds its coefficient ring, as a spec's meta does
        built = Counter()
        build = catalog.named_ring
        monkeypatch.setattr(catalog, "named_ring",
                            lambda name: built.update([name]) or build(name))
        m = corpus.manifest
        opts = SimpleNamespace(fg_ideal_bound=2, max_witnesses=100)
        tasks = list(cli._suite_tasks(corpus, "semigroup-ring", opts))
        assert len(tasks) == len(m.semigroup_ring_coefficients) * len(m.semigroup_ring_bases)
        assert not built

    def test_manifest_round_trip(self):
        m = default_manifest()
        again = CorpusManifest.from_json(json.loads(json.dumps(m.to_json())))
        assert again == m

    def test_seed_field_controls_sampling(self):
        m = CorpusManifest.from_json({**default_manifest().to_json(), "seed": 999,
                                      "order4_sample_count": 2})
        a = generate_corpus(m)
        b = generate_corpus(m)
        sampled_a = [e.structure.table.tolist() for e in a.semigroups
                     if e.meta.get("source") == "sampled"]
        sampled_b = [e.structure.table.tolist() for e in b.semigroups
                     if e.meta.get("source") == "sampled"]
        assert sampled_a == sampled_b and len(sampled_a) == 2


class TestVerdictCoverage:
    def test_every_populatable_cell_is_populated(self, corpus):
        """Coverage cells: graded regularity x epsilon-strength x base kind.

        With finite components an s-unital product span is automatically
        unital, so "nearly epsilon-strong but not epsilon-strong" cannot
        occur here, and graded-regular forces epsilon-strong; the three
        populatable columns are (regular, eps), (irregular, eps) and
        (irregular, neither).
        """
        seen = set()
        for e in corpus.graded:
            g = e.graded
            gvnr = is_graded_vnr(g)
            if gvnr.vacuous:
                continue
            seen.add((g.base_kind, gvnr.holds, is_epsilon_strong(g).holds))
        for kind in ("semigroup", "groupoid"):
            assert (kind, True, True) in seen
            assert (kind, False, True) in seen
            assert (kind, False, False) in seen
            assert (kind, True, False) not in seen

    def test_finiteness_collapses_nearly_to_epsilon(self, corpus):
        # documented corpus gap: no finite example separates the two classes
        for e in corpus.graded:
            g = e.graded
            assert is_nearly_epsilon_strong(g).holds == is_epsilon_strong(g).holds

    def test_groupoid_theorem_matches_regraded_inverse_theorem(self, corpus):
        from grl.gradings import (
            check_theorem_groupoid,
            check_theorem_inverse_semigroup,
            regrade_groupoid_to_semigroup,
        )
        for e in corpus.graded:
            g = e.graded
            if g.base_kind != "groupoid":
                continue
            direct = check_theorem_groupoid(g)
            regraded = check_theorem_inverse_semigroup(regrade_groupoid_to_semigroup(g))
            assert direct["applicable"] and regraded["applicable"]
            assert direct["span_membership_form"] == regraded["all_inverses_form"]
            assert direct["structural_form"] == regraded["structural_form"]


class TestWriteCorpus:
    def test_written_files_validate(self, corpus, tmp_path):
        written = write_corpus(corpus, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        sample = [p for p in written if p.endswith(".json")
                  and "manifest" not in p][:10]
        for path in sample:
            kind, _, _ = jsonio.load(path)
            assert kind in ("semigroup", "ring", "groupoid", "graded_ring")

    def test_graded_entry_round_trip(self, corpus, tmp_path):
        entry = next(e for e in corpus.graded if e.id == "gr:bn:Z2:2")
        path = tmp_path / "bn.json"
        path.write_text(jsonio.dumps_canonical(jsonio.graded_to_json(entry.graded)))
        kind, loaded, _ = jsonio.load(path)
        assert kind == "graded_ring"
        assert jsonio.graded_to_json(loaded) == jsonio.graded_to_json(entry.graded)
