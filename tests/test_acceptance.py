"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
-s to see them) and enforces the stated runtime budget.
"""

import io
import json
import contextlib
import time
from itertools import combinations

from grl import cli
from grl.catalog import named_ring
from grl.constructions import (
    bn_index,
    check_good_grading_prop,
    good_grading,
    matrix_bn_grading,
    matrix_units_semigroup,
    validate_degree_map,
)
from grl.errors import OppositeDegreeError
from grl.gradings import (
    check_eps_characterizations,
    check_lemma_technical,
    check_prop_switch,
    check_theorem_groupoid,
    check_theorem_main,
    is_epsilon_strong,
    is_graded_vnr,
)
from grl.groupoids import to_inverse_semigroup
from grl.rings import (
    check_vnr_characterization,
    common_unit,
    s_unitality,
    is_von_neumann_regular,
)
from grl.semigroups import (
    classify_semigroup,
    cyclic_group,
    enumerate_semigroups,
    inverses,
    isomorphic_under,
    weak_inverses,
)


def announce(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[criterion {number:02d}] {status} ({elapsed:.2f}s) {name}{suffix}")


def test_criterion_01_weak_vs_full_inverse_equivalence():
    started = time.perf_counter()
    checked = 0
    exceptions = []
    for order in (1, 2, 3):
        for S in enumerate_semigroups(order):
            checked += 1
            q_all = all(len(weak_inverses(S, s)) > 0 for s in S.elements())
            v_all = all(len(inverses(S, s)) > 0 for s in S.elements())
            if q_all != v_all:
                exceptions.append(S.table.tolist())
    elapsed = time.perf_counter() - started
    ok = not exceptions and checked == 1 + 8 + 113 and elapsed < 10
    announce(1, "weak-inverse vs inverse nonemptiness over all tables of order <= 3",
             ok, elapsed, f"{checked} semigroups")
    assert not exceptions
    assert checked == 122
    assert elapsed < 10


def test_criterion_02_regularity_characterization_on_rings():
    started = time.perf_counter()
    names = ("Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "F4", "Z2xZ2")
    reports = {name: check_vnr_characterization(named_ring(name)) for name in names}
    ok = all(rep["applicable"] and rep["agree"] for rep in reports.values())
    pinned = (reports["Z4"]["vnr"] is False and reports["Z4"]["vnr_failing"] == 2
              and reports["Z6"]["vnr"] is True and reports["F4"]["vnr"] is True)
    elapsed = time.perf_counter() - started
    announce(2, "three-way regularity characterization on s-unital rings",
             ok and pinned and elapsed < 5, elapsed, f"{len(names)} rings")
    assert ok and pinned
    assert elapsed < 5


def test_criterion_03_common_units_for_small_subsets(corpus):
    started = time.perf_counter()
    failures = []
    subsets_checked = 0
    for entry in corpus.rings:
        T = entry.structure
        su = s_unitality(T)
        for side, unital in (("left", su.is_left), ("right", su.is_right)):
            if not unital:
                continue
            for size in (1, 2, 3):
                for vs in combinations(range(T.order), size):
                    subsets_checked += 1
                    if common_unit(T, vs, side) is None:
                        failures.append((entry.id, side, vs))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30
    announce(3, "common one-sided units exist for every subset of size <= 3",
             ok, elapsed, f"{subsets_checked} subsets")
    assert not failures
    assert elapsed < 30


def test_criterion_04_graded_regularity_theorem(corpus):
    started = time.perf_counter()
    entries = [e for e in corpus.graded if e.graded.base_kind == "semigroup"]
    reports = {e.id: check_theorem_main(e.graded) for e in entries}
    disagreements = [i for i, rep in reports.items() if not rep["agree"]]
    verdicts = {rep["graded_vnr"] for rep in reports.values()}
    pins = {
        "gr:bn:Z2:3": True,
        "gr:bn:Z4:3": False,
        "gr:sr:Z6:chain2": True,
        "gr:sr:Z4:chain2": False,
    }
    pinned_ok = all(reports[i]["graded_vnr"] is v and reports[i]["rhs"] is v
                    for i, v in pins.items())
    elapsed = time.perf_counter() - started
    ok = (not disagreements and len(entries) >= 30 and verdicts == {True, False}
          and pinned_ok and elapsed < 60)
    announce(4, "graded regularity equals nearly-epsilon-strong + regular components",
             ok, elapsed, f"{len(entries)} gradings")
    assert not disagreements
    assert len(entries) >= 30
    assert verdicts == {True, False}
    assert pinned_ok
    assert elapsed < 60


def test_criterion_05_idempotent_generators_for_component_ideals(corpus):
    started = time.perf_counter()
    applicable = 0
    triples = 0
    failures = []
    for e in corpus.graded:
        rep = check_lemma_technical(e.graded)
        if not rep["applicable"]:
            continue
        applicable += 1
        triples += rep["triples_checked"]
        if not rep["holds"]:
            failures.append(e.id)
    elapsed = time.perf_counter() - started
    ok = not failures and applicable > 0 and elapsed < 60
    announce(5, "every component-ideal subgroup has an idempotent generator",
             ok, elapsed, f"{applicable} gradings, {triples} triples")
    assert not failures
    assert applicable > 0
    assert elapsed < 60


def test_criterion_06_epsilon_characterizations(corpus):
    started = time.perf_counter()
    failures = []
    eps_count = 0
    for e in corpus.graded:
        rep = check_eps_characterizations(e.graded)
        if not rep["agree"]:
            failures.append(e.id)
        if rep["unit_components"]["checked"]:
            eps_count += 1
            if not rep["unit_components"]["holds"]:
                failures.append((e.id, "unit components"))
    elapsed = time.perf_counter() - started
    ok = not failures and eps_count > 0
    announce(6, "definition-side and witness-side epsilon verdicts coincide",
             ok, elapsed, f"{len(corpus.graded)} gradings, {eps_count} epsilon-strong")
    assert not failures
    assert eps_count > 0


def test_criterion_07_semigroup_ring_regularity(corpus):
    started = time.perf_counter()
    checked = 0
    failures = []
    for e in corpus.graded:
        if e.meta.get("construction") != "semigroup_ring":
            continue
        if not e.graded.base_idempotents():
            continue
        checked += 1
        gvnr = is_graded_vnr(e.graded).holds
        avnr = is_von_neumann_regular(e.meta["A"]).holds
        if gvnr != avnr:
            failures.append(e.id)
    elapsed = time.perf_counter() - started
    ok = not failures and checked >= 30
    announce(7, "semigroup-ring graded regularity matches the coefficient ring",
             ok, elapsed, f"{checked} pairs")
    assert not failures
    assert checked >= 30


def test_criterion_08_matrix_gradings():
    started = time.perf_counter()
    eps_ok = all(is_epsilon_strong(matrix_bn_grading(named_ring(a), n)).holds
                 for a in ("Z2", "Z4", "Z6") for n in (1, 2, 3))

    dm = validate_degree_map(cyclic_group(2), [[0, 1], [1, 0]])
    reports = {a: check_good_grading_prop(good_grading(named_ring(a), dm))
               for a in ("Z2", "Z4")}
    good_ok = (reports["Z2"]["agree"] and reports["Z2"]["graded_vnr"] is True
               and reports["Z4"]["agree"] and reports["Z4"]["graded_vnr"] is False)

    rejected = False
    try:
        validate_degree_map(matrix_units_semigroup(2), [[1, 2], [2, 4]])
    except OppositeDegreeError:
        rejected = True
    elapsed = time.perf_counter() - started
    ok = eps_ok and good_ok and rejected
    announce(8, "matrix-unit gradings epsilon-strong; good-grading verdicts pinned",
             ok, elapsed)
    assert eps_ok
    assert good_ok
    assert rejected


def test_criterion_09_groupoid_gradings(corpus):
    started = time.perf_counter()
    failures = []

    for e in corpus.groupoids:
        S, _ = to_inverse_semigroup(e.structure)
        if not classify_semigroup(S).is_inverse:
            failures.append((e.id, "not inverse"))

    for n in (1, 2, 3):
        from grl.groupoids import pair_groupoid
        G = pair_groupoid(n)
        S, embedding = to_inverse_semigroup(G)
        B = matrix_units_semigroup(n)
        perm = [0] * S.order
        for g in G.morphisms():
            perm[embedding[g]] = bn_index(n, G.cod[g] + 1, G.dom[g] + 1)
        if not isomorphic_under(S, B, perm):
            failures.append((n, "pair groupoid mismatch"))

    pinned_false = None
    for e in corpus.graded:
        if e.graded.base_kind != "groupoid":
            continue
        switch = check_prop_switch(e.graded)
        thm = check_theorem_groupoid(e.graded)
        if not (switch["agree"] and thm["agree"]):
            failures.append((e.id, "disagreement"))
        if e.id == "gr:gpd:Z4:pair2":
            pinned_false = thm["span_membership_form"]
    elapsed = time.perf_counter() - started
    ok = not failures and pinned_false is False
    announce(9, "adjoined-zero semigroups, regrading agreement, groupoid theorem",
             ok, elapsed)
    assert not failures
    assert pinned_false is False


def test_criterion_10_corpus_run_determinism(tmp_path):
    started = time.perf_counter()

    def run_once():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["corpus-run", "--suite", "all", "--seed", "20250810"])
        summary = json.loads(buf.getvalue())
        summary.pop("timings")
        return code, summary

    code1, s1 = run_once()
    code2, s2 = run_once()
    elapsed = time.perf_counter() - started
    ok = code1 == code2 == 0 and s1 == s2 and s1["n_disagree"] == 0
    announce(10, "consecutive corpus runs produce identical summaries",
             ok, elapsed, f"{s1['n_entries']} suite entries")
    assert code1 == code2 == 0
    assert s1 == s2
    assert s1["n_disagree"] == 0
