"""Every ring and grading table is stored once, as a read-only intp array.

Builders, validators, direct construction, JSON loading and unpickling all
give that form, and ``==``, ``hash`` and ``repr`` compare tables by value:
equal tables built on different paths make equal structures.
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
from grl.rings import (
    FiniteAdditiveGroup,
    FiniteRing,
    check_tominaga,
    cyclic_ring,
    matrix_ring,
    opposite_ring,
    product_ring,
)

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
        assert "_verdicts" in vars(R) and "_verdicts" not in vars(copy)
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
