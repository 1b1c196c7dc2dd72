"""Every table is stored once, as a read-only intp array: the Cayley table
of a semigroup, the composition table of a groupoid and every ring and
grading table.

Builders, validators, direct construction, JSON loading and unpickling all
give that form, and ``==``, ``hash`` and ``repr`` compare tables by value:
equal tables built on different paths make equal structures.  Python loops
read the bases' plain-int ``targets`` view, so no numpy scalar leaks out of
``GradedRing.target`` or ``FiniteGroupoid.compose``.
"""

import json
import pickle

import numpy as np
import pytest

from grl import catalog, jsonio
from grl.corpus import default_manifest
from grl.gradings import (
    is_epsilon_strong,
    regrade_groupoid_to_semigroup,
    structurally_equal,
    validate_grading,
)
from grl.groupoids import FiniteGroupoid, to_inverse_semigroup
from grl.rings import (
    FiniteAdditiveGroup,
    FiniteRing,
    check_tominaga,
    cyclic_ring,
    matrix_ring,
    opposite_ring,
    product_ring,
)
from grl.semigroups import enumerate_semigroups, sample_semigroups

MANIFEST = default_manifest()
RING_NAMES = sorted(set(MANIFEST.rings) | set(MANIFEST.semigroup_ring_coefficients)
                    | {"Z1", "zero1", "F4", "Z2xZ2", "2Z8", "M2(Z2)"})


def assert_stored(table) -> None:
    assert isinstance(table, np.ndarray) and table.dtype == np.intp
    assert table.flags.writeable is False


def ring_tables(T: FiniteRing):
    return T.additive.add, T.additive.neg, T.mul


def graded_tables(R):
    return [t for g in R.components for t in (g.add, g.neg)] + list(R.products.values())


def json_round_trip(to_json, from_json, structure):
    return from_json(json.loads(jsonio.dumps_canonical(to_json(structure))))


def assert_same_value(a, b) -> None:
    assert a is not b
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) and {a, b} == {a}


@pytest.mark.parametrize("name", RING_NAMES)
def test_catalog_rings_store_read_only_intp_arrays(name):
    T = catalog.named_ring(name)
    for table in ring_tables(T):
        assert_stored(table)
    back = json_round_trip(jsonio.ring_to_json, jsonio.ring_from_json, T)
    for table in ring_tables(back):
        assert_stored(table)
    assert_same_value(back, T)
    check_tominaga(T, 1)  # fills caches that must not travel
    copy = pickle.loads(pickle.dumps(T))
    for table in ring_tables(copy):
        assert_stored(table)
    assert_same_value(copy, T)
    assert "_fixers" in vars(T) and "_fixers" not in vars(copy)


@pytest.mark.parametrize("T", [product_ring(cyclic_ring(2), cyclic_ring(3)),
                               matrix_ring(cyclic_ring(2), 2),
                               opposite_ring(matrix_ring(cyclic_ring(2), 2))],
                         ids=["Z2xZ3", "M2(Z2)", "M2(Z2)op"])
def test_built_rings_store_read_only_intp_arrays(T):
    for table in ring_tables(T):
        assert_stored(table)
    assert_same_value(pickle.loads(pickle.dumps(T)), T)


def test_default_manifest_gradings_store_read_only_intp_arrays(corpus):
    graded = [entry.graded for entry in corpus.graded]
    graded += [regrade_groupoid_to_semigroup(R) for R in graded if R.base_kind == "groupoid"]
    for R in graded:
        for table in graded_tables(R):
            assert_stored(table)
        assert all(R.component_ring(e).mul is R.products[e, e]  # not copied
                   for e in R.base_idempotents() if (e, e) in R.products)
        back = json_round_trip(jsonio.graded_to_json, jsonio.graded_from_json, R)
        for table in graded_tables(back):
            assert_stored(table)
        assert structurally_equal(back, R)
        assert_same_value(validate_grading(R.base, R.components, R.products), R)
        is_epsilon_strong(R)  # fills caches that must not travel
        copy = pickle.loads(pickle.dumps(R))
        for table in graded_tables(copy):
            assert_stored(table)
        assert_same_value(copy, R)
        assert "_memo" in vars(R) and "_memo" not in vars(copy)
        # a table that several pairs share stays one array
        assert (len({id(P) for P in copy.products.values()})
                == len({id(P) for P in R.products.values()}))


def test_direct_construction_copies_writeable_arrays():
    add, neg = np.array([[0, 1], [1, 0]]), [0, 1]
    G = FiniteAdditiveGroup(order=2, add=add, neg=neg)
    assert_stored(G.add)
    assert_stored(G.neg)
    assert G.add is not add and add.flags.writeable
    add[0, 0] = 1  # the caller's array is not the stored one
    assert G.add[0, 0] == 0
    assert FiniteRing(additive=G, mul=G.add).mul is G.add  # a stored table is shared


def test_unequal_tables_make_unequal_structures():
    Z4, V4 = catalog.named_ring("Z4"), catalog.named_ring("Z2xZ2")
    assert Z4.additive != V4.additive and Z4 != V4
    zero4 = catalog.named_ring("zero4")
    assert zero4.additive == Z4.additive and zero4 != Z4
    # the same cells in another shape are another table
    flat = FiniteAdditiveGroup(order=4, add=Z4.additive.add.reshape(2, 8),
                               neg=Z4.additive.neg)
    assert flat != Z4.additive


def assert_base_stored(base) -> None:
    """The base's table is stored; a groupoid's holds n_morphisms exactly
    off its composable pairs, and only there."""
    assert_stored(base.table)
    if isinstance(base, FiniteGroupoid):
        m = base.n_morphisms
        composable = np.equal.outer(base.dom, base.cod)  # [g, h]: dom g = cod h
        assert set(base.composable_pairs()) == set(zip(*np.nonzero(composable)))
        assert np.array_equal(base.table == m, ~composable)


def assert_base_round_trips(base) -> None:
    """Pickling keeps the value; JSON keeps the table, and a second trip the
    value.  (A groupoid file names its objects, so the first JSON copy of an
    unlabelled groupoid gains object labels.)"""
    to_json, from_json = ((jsonio.groupoid_to_json, jsonio.groupoid_from_json)
                          if isinstance(base, FiniteGroupoid)
                          else (jsonio.semigroup_to_json, jsonio.semigroup_from_json))
    back = json_round_trip(to_json, from_json, base)
    assert_base_stored(back)
    assert np.array_equal(back.table, base.table)
    assert_same_value(json_round_trip(to_json, from_json, back), back)
    base.relations  # a cache that must not travel
    copy = pickle.loads(pickle.dumps(base))
    assert "relations" in vars(base) and "relations" not in vars(copy)
    assert_base_stored(copy)
    assert_same_value(copy, base)


@pytest.mark.parametrize("name", sorted(catalog._SEMIGROUPS))
def test_catalog_semigroups_store_read_only_intp_arrays(name):
    S = catalog.named_semigroup(name)
    assert_base_stored(S)
    assert_base_round_trips(S)
    assert_same_value(catalog.named_semigroup(name), S)


@pytest.mark.parametrize("name", MANIFEST.groupoids)
def test_catalog_groupoids_store_read_only_intp_arrays(name):
    G = catalog.named_groupoid(name)
    assert_base_stored(G)
    assert_base_round_trips(G)
    assert_same_value(catalog.named_groupoid(name), G)
    S, _ = to_inverse_semigroup(G)
    assert_base_stored(S)
    assert_base_round_trips(S)


@pytest.mark.parametrize("make", [lambda: list(enumerate_semigroups(1)),
                                  lambda: list(enumerate_semigroups(2)),
                                  lambda: list(enumerate_semigroups(3)),
                                  lambda: sample_semigroups(4, 20250810)],
                         ids=["enumerated1", "enumerated2", "enumerated3", "sampled"])
def test_enumerated_and_sampled_semigroups_store_read_only_intp_arrays(make):
    semigroups, again = make(), make()
    assert len({S.table.tobytes() for S in semigroups}) == len(semigroups)
    for S, T in zip(semigroups, again):
        assert_base_stored(S)
        assert_same_value(T, S)
        assert_base_round_trips(S)


def test_regraded_bases_store_read_only_intp_arrays(corpus):
    for entry in corpus.graded:
        R = entry.graded
        assert_base_stored(R.base)
        if R.base_kind == "groupoid":
            regraded = regrade_groupoid_to_semigroup(R)
            assert_base_stored(regraded.base)
            assert_same_value(regraded.base, to_inverse_semigroup(R.base)[0])


def test_targets_are_plain_ints_or_none(corpus):
    graded = [entry.graded for entry in corpus.graded]
    graded += [regrade_groupoid_to_semigroup(R) for R in graded if R.base_kind == "groupoid"]
    for R in graded:
        n = len(R.base.table)
        for s in R.graders():
            for t in R.graders():
                st = R.target(s, t)
                assert (st is None) == (R.base.table[s, t] == n)
                assert st is None or (type(st) is int and st == R.base.table[s, t])
