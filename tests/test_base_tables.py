"""Semigroup and graded-ring base queries against the per-element reference
in reference_semigroups.py.

The queries read relations derived once per base from one int table (the
Cayley table, or a groupoid's composition table with n_morphisms where
composition is undefined); every answer must equal the element-by-element
scan's.
"""

from itertools import permutations

import numpy as np
import pytest

import reference_semigroups as ref
from grl import catalog, semigroups as sg
from grl.corpus import default_manifest
from grl.gradings import regrade_groupoid_to_semigroup
from grl.groupoids import to_inverse_semigroup
from grl.semigroups import FiniteSemigroup, enumerate_semigroups

SMALL_SEMIGROUPS = [S for n in (1, 2, 3) for S in enumerate_semigroups(n)]
MANIFEST = default_manifest()
# every order <= 3 table, the named semigroups and the adjoined-zero
# semigroups of the corpus groupoids; the corpus adds its sampled order-4 tables
POOL = (SMALL_SEMIGROUPS
        + [catalog.named_semigroup(name) for name in MANIFEST.named_semigroups]
        + [to_inverse_semigroup(catalog.named_groupoid(name))[0]
           for name in MANIFEST.groupoids])


def relabel(S: FiniteSemigroup, q) -> FiniteSemigroup:
    """The table that q carries S onto: q[a] q[b] = q[ab]."""
    table = [[0] * S.order for _ in S.elements()]
    for a in S.elements():
        for b in S.elements():
            table[q[a]][q[b]] = q[ref.mul(S, a, b)]
    return sg.validate_semigroup(table)


def assert_semigroup_matches_reference(S: FiniteSemigroup) -> None:
    table = S.table.tolist()
    assert sg.idempotents(S) == ref.idempotents(S), table
    assert S.relations.identity == ref.identity_element(S), table
    for s in S.elements():
        assert sg.weak_inverses(S, s) == ref.weak_inverses(S, s), (table, s)
        assert sg.inverses(S, s) == ref.inverses(S, s), (table, s)
    assert sg.classify_semigroup(S) == ref.classify_semigroup(S), table


def test_semigroup_queries_match_reference():
    for S in POOL:
        assert_semigroup_matches_reference(S)


def test_sampled_semigroup_queries_match_reference(corpus):
    sampled = [e.structure for e in corpus.semigroups if e.meta["source"] == "sampled"]
    assert len(sampled) == MANIFEST.order4_sample_count
    for S in sampled:
        assert_semigroup_matches_reference(S)


def test_pool_covers_every_verdict():
    assert len(SMALL_SEMIGROUPS) == 122
    verdicts = {(c.is_regular, c.is_inverse, c.is_group)
                for c in map(ref.classify_semigroup, POOL)}
    assert {(False, False, False), (True, False, False), (True, True, False),
            (True, True, True)} <= verdicts
    # one-sided identities: left zero (x y = x) and right zero (x y = y) tables
    row_sets = [set(map(tuple, S.table.tolist())) for S in SMALL_SEMIGROUPS]
    assert {(0, 0), (1, 1)} in row_sets
    assert {(0, 1)} in row_sets


@pytest.mark.parametrize("order", [1, 2, 3])
def test_isomorphic_under_matches_reference(order):
    perms = list(permutations(range(order)))
    for S in enumerate_semigroups(order):
        for q in perms:
            S2 = relabel(S, q)
            assert sg.isomorphic_under(S, S2, q)
            for p in perms:
                assert sg.isomorphic_under(S, S2, p) == ref.isomorphic_under(S, S2, p), \
                    (S.table.tolist(), q, p)


def test_isomorphic_under_rejects_non_bijections():
    S = SMALL_SEMIGROUPS[-1]
    for perm in ([0, 1], [0, 0, 1], [0, 1, 2, 3]):
        assert not sg.isomorphic_under(S, S, perm)
        assert not ref.isomorphic_under(S, S, perm)
    assert not sg.isomorphic_under(S, SMALL_SEMIGROUPS[1], [0, 1, 2])


def test_relations_are_built_once_and_stay_out_of_equality():
    S = sg.cyclic_group(3)
    assert S.relations is S.relations
    T = sg.cyclic_group(3)
    assert S == T and hash(S) == hash(T) and "relations" not in repr(S)
    assert T.relations is not S.relations


def graded_pool(corpus):
    graded = [entry.graded for entry in corpus.graded]
    regraded = [regrade_groupoid_to_semigroup(R) for R in graded
                if R.base_kind == "groupoid"]
    assert regraded
    return graded + regraded


def test_graded_base_queries_match_reference(corpus):
    for R in graded_pool(corpus):
        for s in R.graders():
            for t in R.graders():
                assert R.target(s, t) == ref.target(R, s, t), (s, t)
                assert type(R.target(s, t)) in (int, type(None))
        assert list(R.base_pairs()) == ref.base_pairs(R)
        assert list(R.inverse_pairs()) == ref.inverse_pairs(R)
        assert R.base_idempotents() == ref.base_idempotents(R)


def test_groupoid_inverse_pairs_are_the_inverse_morphisms(corpus):
    for entry in corpus.graded:
        R = entry.graded
        if R.base_kind == "groupoid":
            assert list(R.inverse_pairs()) == [(g, R.base.inv[g]) for g in R.base.morphisms()]
            m = R.base.n_morphisms
            undefined = [(g, h) for g in range(m) for h in range(m)
                         if not R.base.composable(g, h)]
            assert all(R.target(g, h) is None for g, h in undefined)
            assert np.array_equal(R.base.table == m,
                                  np.array([[R.base.relations.targets[g][h] is None
                                             for h in range(m)] for g in range(m)]))
