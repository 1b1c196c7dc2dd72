"""grl.tables against the plain-loop reference in reference_tables.py.

Mutated tables must fail with the same error class and context tuple as the
reference, whatever run size the kernel scans in.
"""

import contextlib
import os
import subprocess
import sys
from itertools import permutations, product
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import reference_tables as ref
from reference_rings import closing_sums, ring_from_ops, spanning_edge_fault
from grl import catalog, tables
from grl.constructions import (
    good_grading,
    groupoid_ring,
    semigroup_ring,
    validate_degree_map,
)
from grl.errors import (
    BilinearityError,
    IdentityViolationError,
    NotAssociativeError,
    NotGoodError,
    OutOfRangeError,
    ValidationError,
)
from grl.gradings import validate_grading
from grl.groupoids import validate_groupoid
from grl.rings import (
    cyclic_ring,
    matrix_ring,
    validate_additive_group,
    validate_ring,
)
from grl.semigroups import (
    chain_semilattice,
    cyclic_group,
    enumerate_semigroups,
    left_zero_semigroup,
    sample_semigroups,
    validate_semigroup,
)

SEMIGROUP_TABLES = ([S.table.tolist() for S in enumerate_semigroups(3)]
                    + [catalog.named_semigroup(name).table.tolist()
                       for name in ("B2", "B3", "Z4", "monogenic22", "chain3")])
RINGS = [catalog.named_ring(name) for name in
         ("Z2", "Z4", "Z6", "Z9", "F4", "Z2xZ2", "zero4", "2Z8")]
RINGS.append(matrix_ring(catalog.named_ring("Z2"), 2))
# The corpus's coefficient rings are commutative, so most of its tables are
# symmetric.  The matrices [[x, y], [0, 0]] over Z2 form a ring of order 4
# that is not, and gradings over it tell a table from its transpose.
ROW_RING = ring_from_ops([(0, 0), (0, 1), (1, 0), (1, 1)],
                         lambda p, q: ((p[0] + q[0]) % 2, (p[1] + q[1]) % 2),
                         lambda p: p,
                         lambda p, q: (p[0] * q[0], p[0] * q[1]))
NONCOMMUTATIVE = {
    "semigroup": [semigroup_ring(ROW_RING, catalog.named_semigroup(name))
                  for name in ("Z2", "B2", "monogenic22")],
    "groupoid": [groupoid_ring(ROW_RING, catalog.named_groupoid(name))
                 for name in ("group_Z2", "pair2")],
}
GROUPOIDS = [catalog.named_groupoid(name) for name in
             ("group_Z3", "group_Z5", "pair2+group_Z4", "group_Z4+pair3")]
BUDGETS = (1, 5, 64, tables.CELL_BUDGET)
# Runs of the generator proofs: 16 and 100 split planes of 256 or 512 cells
# into row blocks, with a shorter last block at 100; 600 puts two 256-cell
# planes or four 128-cell planes in a run, with a shorter last run; the
# default holds every plane of these tables in one run.
RUN_BUDGETS = (16, 100, 600, tables.CELL_BUDGET)


@contextlib.contextmanager
def cell_budget(cells):
    """Run with ``tables.CELL_BUDGET`` set to ``cells``, and fail any run of
    the law runner that holds more cells than that, or than one row where a
    row is wider."""
    saved, runner = tables.CELL_BUDGET, tables._first_on_planes

    def checked(planes, rows, width, sides):
        def run(p, r):
            lhs, rhs = sides(p, r)
            assert np.broadcast(lhs, rhs).size <= max(cells, width)
            return lhs, rhs
        return runner(planes, rows, width, run)

    tables.CELL_BUDGET, tables._first_on_planes = cells, checked
    try:
        yield
    finally:
        tables.CELL_BUDGET, tables._first_on_planes = saved, runner


def outcome(validate, *args):
    try:
        validate(*args)
    except ValidationError as err:
        return (type(err), err.context)
    return None


def mutate_cells(data, table, values, max_cells=3):
    rows = np.asarray(table).tolist()
    for _ in range(data.draw(st.integers(1, max_cells))):
        a = data.draw(st.integers(0, len(rows) - 1))
        b = data.draw(st.integers(0, len(rows[a]) - 1))
        rows[a][b] = data.draw(st.integers(0, values - 1))
    return rows


class TestKernelMatchesReference:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_semigroups(self, data):
        table = data.draw(st.sampled_from(SEMIGROUP_TABLES))
        if data.draw(st.booleans()):
            table = mutate_cells(data, table, len(table))
        with cell_budget(data.draw(st.sampled_from(BUDGETS))):
            got = outcome(validate_semigroup, table)
        assert got == ref.semigroup_violation(table)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_rings(self, data):
        T = data.draw(st.sampled_from(RINGS))
        n = T.order
        add, neg, mul = T.additive.add.tolist(), T.additive.neg.tolist(), T.mul.tolist()
        kind = data.draw(st.sampled_from(("mul", "mul", "add", "add-symmetric")))
        if kind == "mul":
            mul = mutate_cells(data, mul, n)
        elif kind == "add":
            add = mutate_cells(data, add, n, max_cells=1)
        else:
            x, y = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
            add[x][y] = add[y][x] = data.draw(st.integers(0, n - 1))
        with cell_budget(data.draw(st.sampled_from(BUDGETS))):
            got = outcome(validate_ring, add, neg, mul)
        assert got == ref.ring_violation(add, neg, mul)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_groupoids(self, data):
        # change one composite g h, with neither g nor h an identity and h not
        # the inverse of g, to another morphism with the same ends: identities
        # and inverses still check, associativity usually does not
        G = data.draw(st.sampled_from(GROUPOIDS))
        compose = {(g, h): G.compose(g, h) for (g, h) in G.composable_pairs()}
        pairs = [(g, h) for (g, h) in sorted(compose) if h != G.inv[g]
                 and g not in G.identity and h not in G.identity]
        g, h = data.draw(st.sampled_from(pairs))
        ends = [x for x in G.morphisms()
                if (G.dom[x], G.cod[x]) == (G.dom[h], G.cod[g]) and x not in G.identity]
        compose[(g, h)] = data.draw(st.sampled_from(ends))
        with cell_budget(data.draw(st.sampled_from(BUDGETS))):
            got = outcome(validate_groupoid, G.n_objects, G.dom, G.cod, G.inv, compose)
        table = [[compose.get((x, y), 0) for y in G.morphisms()] for x in G.morphisms()]
        assert got == ref.groupoid_violation(G.dom, G.cod, table)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_groupoid_identities(self, data):
        # change one composite e h or h e, with e an identity, to a morphism
        # with the same ends: the identity search fails at the same object as
        # the plain loop, or finds the same identities
        G = data.draw(st.sampled_from(GROUPOIDS))
        compose = {(g, h): G.compose(g, h) for (g, h) in G.composable_pairs()}
        pairs = [(g, h) for (g, h) in sorted(compose) if {g, h} & set(G.identity)]
        g, h = data.draw(st.sampled_from(pairs))
        compose[(g, h)] = data.draw(st.sampled_from(
            [x for x in G.morphisms() if (G.dom[x], G.cod[x]) == (G.dom[h], G.cod[g])]))
        table = [[compose.get((x, y)) for y in G.morphisms()] for x in G.morphisms()]
        expected = ref.groupoid_identities(G.n_objects, G.dom, G.cod, table)
        try:
            got = validate_groupoid(G.n_objects, G.dom, G.cod, G.inv, compose).identity
        except ValidationError as err:
            got = (type(err), err.context)
        # once the identities are found, a later check may still fail
        if isinstance(got[0], type) and got[0] is not IdentityViolationError:
            assert expected[0] is not IdentityViolationError
        else:
            assert got == expected

    def check_grading(self, data, R):
        products = dict(R.products)
        for _ in range(data.draw(st.integers(1, 2))):
            key = data.draw(st.sampled_from(sorted(products)))
            out = R.component(R.target(*key)).order
            kind = data.draw(st.sampled_from(("cell", "drop", "zero", "swap", "copy")))
            if kind == "cell":
                products[key] = mutate_cells(data, products[key], out, max_cells=1)
            elif kind == "drop" and len(products) > 1:
                del products[key]
            elif kind == "zero":
                products[key] = [[0] * len(row) for row in products[key]]
            elif kind == "swap":
                same = [k for k in sorted(products)
                        if k != key and R.component(R.target(*k)).order == out
                        and len(products[k]) == len(products[key])
                        and len(products[k][0]) == len(products[key][0])]
                if same:
                    products[key] = products[data.draw(st.sampled_from(same))]
            elif kind == "copy":
                # an equal table as a new object: validation makes it one with the rest
                products[key] = np.asarray(products[key]).tolist()
            if not products:
                break
        with cell_budget(data.draw(st.sampled_from(BUDGETS))):
            got = outcome(validate_grading, R.base, R.components, products)
        assert got == ref.grading_violation(R.base, R.components, products)

    def draw_grading(self, data, corpus, base_kind):
        graded = [e.graded for e in corpus.graded
                  if e.graded.base_kind == base_kind and e.graded.products]
        return data.draw(st.one_of(st.sampled_from(graded),
                                   st.sampled_from(NONCOMMUTATIVE[base_kind])))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_semigroup_gradings(self, data, corpus):
        self.check_grading(data, self.draw_grading(data, corpus, "semigroup"))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_groupoid_gradings(self, data, corpus):
        self.check_grading(data, self.draw_grading(data, corpus, "groupoid"))


def corrupt_index_table(data, table, bound, row_count=False):
    """The table as lists with one or two faults: a cell set to a bool, a
    float, -1 or ``bound``, a row one longer or shorter (the same way for
    both faults, so that they never cancel), or with ``row_count`` the last
    row dropped."""
    rows = np.asarray(table).tolist()
    longer = data.draw(st.booleans())
    kinds = ("bool", "float", "negative", "bound", "row") + ("rows",) * row_count
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "rows" and len(rows) > 1:
            rows.pop()
            continue
        a = data.draw(st.integers(0, len(rows) - 1))
        if kind in ("row", "rows"):
            if longer:
                rows[a].append(0)
            elif rows[a]:
                rows[a].pop()
        elif rows[a]:
            b = data.draw(st.integers(0, len(rows[a]) - 1))
            rows[a][b] = {"bool": b % 2 == 0, "float": float(rows[a][b]),
                          "negative": -1, "bound": bound}[kind]
    return rows


def first_error(validate, *args):
    try:
        validate(*args)
    except ValidationError as err:
        return (type(err), str(err), err.context)
    return None


class TestArrayIndexCheck:
    """An int array is checked by its shape and range in one step; it must
    report what the cell scan reports on its ``tolist()``, with plain ints."""

    INT_DTYPES = (np.intp, np.int8, np.int32, np.uint8, np.uint64)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_int_arrays_report_like_their_lists(self, data):
        rows, cols, bound = (data.draw(st.integers(0, 4)) for _ in range(3))
        # mostly the expected shape, sometimes a row or column more or less
        shape = tuple(max(0, n + data.draw(st.sampled_from((0, 0, 0, -1, 1))))
                      for n in (rows, cols))
        dtype = data.draw(st.sampled_from(self.INT_DTYPES))
        low = 0 if np.dtype(dtype).kind == "u" else -2
        table = data.draw(hnp.arrays(dtype, shape, elements=st.integers(low, bound + 1)))
        got = tables.first_bad_index(table, rows, cols, bound)
        assert got == tables.first_bad_index(table.tolist(), rows, cols, bound)
        assert got is None or all(type(v) is int for v in got)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_bool_and_float_arrays_are_refused(self, data):
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        dtype = data.draw(st.sampled_from((np.bool_, np.float64)))
        table = data.draw(hnp.arrays(dtype, (rows, cols), elements=st.integers(0, 1)))
        got = tables.first_bad_index(table, rows, cols, 2)
        assert got == tables.first_bad_index(table.tolist(), rows, cols, 2) == (
            0, 0, table.tolist()[0][0])

    def test_validators_refuse_bool_and_float_arrays(self):
        Z2 = cyclic_ring(2)
        for cells in (Z2.mul.astype(bool), Z2.mul.astype(float)):
            with pytest.raises(OutOfRangeError, match=r"mul\[0\]\[0\] = (False|0\.0) is not"):
                validate_ring(Z2.additive.add, Z2.additive.neg, cells)
        with pytest.raises(OutOfRangeError, match=r"neg\[0\] = 0\.0 is not"):
            validate_additive_group(Z2.additive.add, Z2.additive.neg.astype(float))


class TestIndexTables:
    """The whole-table index check reports the first fault of the cell scan."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_ring_tables(self, data):
        T = data.draw(st.sampled_from(RINGS))
        n = T.order
        add, neg, mul = T.additive.add, T.additive.neg, T.mul
        if data.draw(st.booleans()):
            add = corrupt_index_table(data, add, n)
            expected = ref.ring_index_error(add, n, "add")
        else:
            mul = corrupt_index_table(data, mul, n, row_count=True)
            expected = ref.ring_index_error(mul, n, "mul")
        assert first_error(validate_ring, add, neg, mul) == expected

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_product_tables(self, data, corpus):
        graded = [e.graded for e in corpus.graded if e.graded.products]
        R = data.draw(st.sampled_from(graded + sum(NONCOMMUTATIVE.values(), [])))
        s, t = key = data.draw(st.sampled_from(sorted(R.products)))
        products = dict(R.products)
        products[key] = corrupt_index_table(
            data, products[key], R.components[R.target(s, t)].order, row_count=True)
        assert (first_error(validate_grading, R.base, R.components, products)
                == ref.product_index_error(R, s, t, products[key]))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_semigroup_tables(self, data):
        table = data.draw(st.sampled_from(SEMIGROUP_TABLES))
        table = corrupt_index_table(data, table, len(table))
        assert first_error(validate_semigroup, table) == ref.semigroup_index_error(table)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_degree_maps(self, data):
        _, base_name, deg = catalog.GOOD_GRADING_SPECS[
            data.draw(st.sampled_from(sorted(catalog.GOOD_GRADING_SPECS)))]
        base = catalog.named_semigroup(base_name)
        deg = corrupt_index_table(data, deg, base.order)
        assert (first_error(validate_degree_map, base, deg)
                == ref.degree_index_error(deg, base.order))

    # B2 = {0, e11, e12, e21, e22}, with deg(i, j) = e_ij; messages as the
    # validators' own cell loops printed them
    B2_TABLE = [[0, 0, 0, 0, 0], [0, 1, 2, 0, 0], [0, 0, 0, 1, 2], [0, 3, 4, 0, 0],
                [0, 0, 0, 3, 4]]

    @pytest.mark.parametrize("cell,value,expected", [
        ((1, 2), True, (OutOfRangeError, "table[1][2] = True is not an index in [0, 5)",
                        (1, 2, True))),
        ((1, 2), 2.0, (OutOfRangeError, "table[1][2] = 2.0 is not an index in [0, 5)",
                       (1, 2, 2.0))),
        ((2, 0), -1, (OutOfRangeError, "table[2][0] = -1 is not an index in [0, 5)",
                      (2, 0, -1))),
        ((3, 4), 5, (OutOfRangeError, "table[3][4] = 5 is not an index in [0, 5)", (3, 4, 5))),
        (2, None, (OutOfRangeError, "row 2 has length 4, expected 5", (2,))),
    ], ids=["bool", "float", "negative", "bound", "short-row"])
    def test_pinned_semigroup_messages(self, cell, value, expected):
        table = [list(row) for row in self.B2_TABLE]
        if value is None:
            table[cell].pop()
        else:
            table[cell[0]][cell[1]] = value
        assert first_error(validate_semigroup, table) == expected

    @pytest.mark.parametrize("cell,value,expected", [
        ((0, 1), True, (OutOfRangeError, "deg[0][1] = True is not a base element",
                        (0, 1, True))),
        ((1, 0), 3.0, (OutOfRangeError, "deg[1][0] = 3.0 is not a base element",
                       (1, 0, 3.0))),
        ((1, 1), -1, (OutOfRangeError, "deg[1][1] = -1 is not a base element", (1, 1, -1))),
        ((0, 0), 5, (OutOfRangeError, "deg[0][0] = 5 is not a base element", (0, 0, 5))),
        (1, None, (NotGoodError, "degree row 1 has length 1, expected 2", (1,))),
    ], ids=["bool", "float", "negative", "bound", "short-row"])
    def test_pinned_degree_map_messages(self, cell, value, expected):
        deg = [[1, 2], [3, 4]]
        if value is None:
            deg[cell].pop()
        else:
            deg[cell[0]][cell[1]] = value
        assert first_error(validate_degree_map, catalog.named_semigroup("B2"), deg) == expected

    # The neg vector, the groupoid vectors and each compose entry are checked
    # as one-row tables; messages as their own cell loops printed them
    @pytest.mark.parametrize("index,value,expected", [
        (1, True, (OutOfRangeError, "neg[1] = True is not an index in [0, 4)", (1, True))),
        (2, 2.0, (OutOfRangeError, "neg[2] = 2.0 is not an index in [0, 4)", (2, 2.0))),
        (3, -1, (OutOfRangeError, "neg[3] = -1 is not an index in [0, 4)", (3, -1))),
        (0, 4, (OutOfRangeError, "neg[0] = 4 is not an index in [0, 4)", (0, 4))),
        (None, None, (OutOfRangeError, "neg has length 3, expected 4", ())),
    ], ids=["bool", "float", "negative", "bound", "short-vector"])
    def test_pinned_neg_messages(self, index, value, expected):
        Z4 = cyclic_ring(4).additive
        neg = Z4.neg.tolist()
        if value is None:
            neg.pop()
        else:
            neg[index] = value
        assert first_error(validate_additive_group, Z4.add, neg) == expected

    # the pair groupoid on objects {0, 1}: morphism 2i + j runs j -> i
    PAIR2 = {"dom": [0, 1, 0, 1], "cod": [0, 0, 1, 1], "inv": [0, 2, 1, 3]}
    PAIR2_COMPOSE = {(0, 0): 0, (0, 1): 1, (1, 2): 0, (1, 3): 1, (2, 0): 2, (2, 1): 3,
                     (3, 2): 2, (3, 3): 3}

    @pytest.mark.parametrize("name,bound", [("dom", 2), ("cod", 2), ("inv", 4)])
    @pytest.mark.parametrize("index,value", [(1, True), (2, 1.0), (3, -1), (0, "bound"),
                                             (None, None)],
                             ids=["bool", "float", "negative", "bound", "short-vector"])
    def test_pinned_groupoid_vector_messages(self, name, bound, index, value):
        vectors = {key: list(seq) for key, seq in self.PAIR2.items()}
        if value is None:
            vectors[name].pop()
            expected = (OutOfRangeError, "dom, cod and inv must have equal lengths", ())
        else:
            value = bound if value == "bound" else value
            vectors[name][index] = value
            expected = (OutOfRangeError,
                        f"{name}[{index}] = {value!r} is not an index in [0, {bound})",
                        (index, value))
        assert first_error(validate_groupoid, 2, vectors["dom"], vectors["cod"],
                           vectors["inv"], self.PAIR2_COMPOSE) == expected

    @pytest.mark.parametrize("key,value,text", [
        ((1, 3), True, "(1, 3) -> True"), ((1, 3), 1.0, "(1, 3) -> 1.0"),
        ((1, 3), -1, "(1, 3) -> -1"), ((1, 3), 4, "(1, 3) -> 4"),
        ((2, 4), 1, "(2, 4) -> 1"), ((True, 0), 0, "(True, 0) -> 0"),
        ((0, 2.0), 1, "(0, 2.0) -> 1"), ((-1, 1), 0, "(-1, 1) -> 0"),
    ], ids=["bool", "float", "negative", "bound", "key-bound", "key-bool", "key-float",
            "key-negative"])
    def test_pinned_compose_messages(self, key, value, text):
        compose = {**self.PAIR2_COMPOSE, key: value}
        assert first_error(validate_groupoid, 2, *self.PAIR2.values(), compose) == (
            OutOfRangeError, f"compose entry {text} out of range", (*key, value))
        assert first_error(validate_groupoid, 2, *self.PAIR2.values(),
                           self.PAIR2_COMPOSE) is None

    def test_edge_cases_follow_the_cell_scan(self):
        class Index(int):
            pass
        assert tables.first_bad_index([[Index(0), 1], [1, Index(1)]], 2, 2, 2) is None
        assert tables.first_bad_index([], 0, 5, 5) is None
        assert tables.first_bad_index([[], []], 2, 0, 0) is None
        assert tables.first_bad_index([[0, 1], [True, 0]], 2, 2, 2) == (1, 0, True)
        # a bad cell before a row without a length is reported first
        assert tables.first_bad_index([[True, 0], 5], 2, 2, 2) == (0, 0, True)
        with pytest.raises(TypeError):
            tables.first_bad_index([[0, 1], 5], 2, 2, 2)


def cyclic_product(moduli, labels=None):
    """Z_m1 x ... x Z_mk, the coordinates of each index as a (order, k)
    array, the moduli, and each mixed-radix index (first coordinate most
    significant) as an index of the group.  With ``labels``, a permutation
    of the indices that fixes 0, index i holds the element of mixed-radix
    index labels[i]; without, the two agree."""
    m = np.array(moduli)
    mixed = np.array(list(np.ndindex(*moduli)))
    order = np.arange(len(mixed)) if labels is None else np.array(labels)
    label = np.argsort(order)  # mixed-radix index -> index
    coords = mixed[order]

    def index(c):
        return label[np.ravel_multi_index(tuple(np.moveaxis(c % m, -1, 0)), moduli)]

    group = validate_additive_group(index(coords[:, None] + coords[None]).tolist(),
                                    index(-coords).tolist())
    return group, coords, m, label


# Z_n for n <= 12, with the trivial group, and two non-cyclic groups
GROUP_MODULI = [(n,) for n in range(1, 13)] + [(2, 2), (2, 4)]
SMALL_MODULI = [(1,), (2,), (3,), (4,), (6,), (2, 2), (2, 4)]
GROUPS = {moduli: cyclic_product(moduli) for moduli in GROUP_MODULI}
# In natural label order every closing edge of the greedy growth sums to 0.
# These orders put an element of a subgroup first, so that the greedy
# generators come out of order and some closing edges have a nonzero sum:
# in Z4 with 2 at index 1, the generators are 2 and then 1, and 1 + 1 = 2.
RELABELLED = {moduli: cyclic_product(moduli, labels) for moduli, labels in [
    ((4,), (0, 2, 1, 3)),
    ((6,), (0, 2, 1, 3, 4, 5)),
    ((8,), (0, 4, 2, 6, 1, 5, 3, 7)),
    ((9,), (0, 3, 6, 1, 2, 4, 5, 7, 8)),
    ((12,), (0, 6, 4, 3, 2, 1, 5, 7, 8, 9, 10, 11)),
    ((2, 4), (0, 2, 1, 3, 4, 5, 6, 7)),
]}
ALL_GROUPS = [*GROUPS.values(), *RELABELLED.values()]
SMALL_GROUPS = [GROUPS[m] for m in SMALL_MODULI] + [RELABELLED[m] for m in ((4,), (6,), (2, 4))]


def draw_bilinear(data, left, right, out, lifted=False):
    """A random bi-additive table left x right -> out.  The value at the
    pair of basis vectors (e_i, e_j) is killed by gcd(m_i, m_j), so the sum
    of a_i b_j times these values does not depend on representatives.
    With ``lifted`` the value is not made to be killed, and the sum is taken
    of the representatives 0 <= a_i < m_i and 0 <= b_j < m_j: such a table
    is additive wherever no coordinate of a sum wraps, so mostly only the
    closing edges of the proof can refuse it."""
    (_, cl, ml, _), (_, cr, mr, _), (K, ck, mk, label) = left, right, out
    V = np.zeros((len(ml), len(mr), len(mk)), dtype=np.int64)
    for i, j in product(range(len(ml)), range(len(mr))):
        killer = gcd(int(ml[i]), int(mr[j]))
        w = ck[data.draw(st.integers(0, K.order - 1))]
        V[i, j] = w if lifted else w * (mk // np.gcd(mk, killer))
    coords = np.einsum("ai,bj,ijk->abk", cl, cr, V) % mk
    return label[np.ravel_multi_index(tuple(np.moveaxis(coords, -1, 0)), tuple(mk))].tolist()


def relabelled_ring(moduli):
    """The ring Z_m1 x ... x Z_mk on ``RELABELLED[moduli]``, validated anew."""
    group, coords, m, label = RELABELLED[moduli]
    mul = label[np.ravel_multi_index(tuple(np.moveaxis(coords[:, None] * coords[None] % m,
                                                        -1, 0)), tuple(m))]
    return validate_ring(group.add, group.neg, mul)


def generator_check(P, G, H, K):
    """tables.biadditive on the groups' own edges, generators and addition."""
    return tables.biadditive(np.array(P), np.array(K.add), G.edges, H.edges,
                             np.array(H.generators))


class TestGeneratorKernel:
    """Tables over additive groups are accepted on generators; the kernel must
    accept exactly the tables the plain loops accept."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_biadditive_matches_reference(self, data, corpus):
        source = data.draw(st.sampled_from(("bilinear", "bilinear", "lifted", "random",
                                            "corpus")))
        if source == "corpus":
            R = data.draw(st.sampled_from([e.graded for e in corpus.graded
                                           if e.graded.products]))
            s, t = data.draw(st.sampled_from(sorted(R.products)))
            G, H, K = R.component(s), R.component(t), R.component(R.target(s, t))
            P = R.products[(s, t)]
        else:
            left, right, out = (data.draw(st.sampled_from(ALL_GROUPS)) for _ in range(3))
            G, H, K = left[0], right[0], out[0]
            P = (draw_bilinear(data, left, right, out, source == "lifted")
                 if source != "random" else
                 [[data.draw(st.integers(0, K.order - 1)) for _ in range(H.order)]
                  for _ in range(G.order)])
        if data.draw(st.booleans()):
            P = mutate_cells(data, P, K.order)
        expected = ref.biadditivity_violation(P, G.add, H.add, K.add) is None
        assert generator_check(P, G, H, K) == expected

    @pytest.mark.parametrize("name", ["Z4", "F4", "M2(Z2)", "M3(Z2)/Z2 R0*R1",
                                      "Z4 relabelled", "Z2xZ4 relabelled"])
    def test_single_cell_and_row_changes_match_reference(self, name):
        # The right law is checked on the right group's edges and the left
        # law on its generator columns only; the proof must accept exactly
        # the tables the full scan accepts, one changed cell at a time.  A
        # changed cell breaks both laws, so each row is also copied onto
        # every other, which keeps the rows additive, so that only the
        # reduced left law can refuse the table, and each column onto every
        # other, which keeps the columns additive, so that only the right
        # law on edges can.  The graded product runs from R_0 (order 32) to
        # R_1 (order 16), with sums of several terms.  The relabelled rings
        # have closing edges with nonzero sums.  A ring's products are also
        # put through Light's test with every element as g, which then
        # decides associativity in full.  Each table is proved under every
        # budget of RUN_BUDGETS, so that the mutants fall in first, middle
        # and last runs.
        if name.startswith("M3"):
            deg = ((0, 1, 1), (1, 0, 0), (1, 0, 0))
            R = good_grading(cyclic_ring(2),
                             validate_degree_map(cyclic_group(2), deg)).graded
            G, H, K, P = R.component(0), R.component(1), R.component(1), R.products[0, 1]
            assert (G.order, H.order) == (32, 16)
        else:
            if name == "M2(Z2)":
                T = matrix_ring(cyclic_ring(2), 2)
            elif name.endswith("relabelled"):
                T = relabelled_ring((4,) if name == "Z4 relabelled" else (2, 4))
            else:
                T = catalog.named_ring(name)
            G = H = K = T.additive
            P = T.mul
        every = np.arange(G.order) if G is H is K else None

        def agrees(table):
            additive = ref.biadditivity_violation(table, G.add, H.add, K.add) is None
            associative = every is None or ref.assoc_violation(table) is None
            for budget in RUN_BUDGETS:
                with cell_budget(budget):
                    if generator_check(table, G, H, K) != additive or (
                            every is not None and tables.associative_through(
                                np.array(table), every) != associative):
                        return False
            return True

        assert generator_check(P, G, H, K)
        table = P.tolist()
        assert agrees(table)
        for a, b in product(range(G.order), range(H.order)):
            for v in range(K.order):
                if v != P[a, b]:
                    table[a][b] = v
                    assert agrees(table), (a, b, v)
            table[a][b] = int(P[a, b])
        for a, a2 in product(range(G.order), repeat=2):
            table[a] = P[a2].tolist()
            assert agrees(table), (a, a2)
            table[a] = P[a].tolist()
        for b, b2 in product(range(H.order), repeat=2):
            for row, v in zip(table, P[:, b2].tolist()):
                row[b] = v
            assert agrees(table), ("column", b, b2)
            for row, v in zip(table, P[:, b].tolist()):
                row[b] = v

    def test_proof_cells(self, monkeypatch):
        # M3(Z2) has order 512 and 9 generators, so 521 edges: the right law
        # runs on 512 x 521 cells and the left law on 521 x 9, where whole
        # generator planes would take 9 x 512 x 512 and 9 x 512 x 9
        T = matrix_ring(cyclic_ring(2), 3)
        G, cells, runner = T.additive, [], tables._first_on_planes

        def counted(planes, rows, width, sides):
            cells.append(planes * rows * width)
            return runner(planes, rows, width, sides)

        monkeypatch.setattr(tables, "_first_on_planes", counted)
        assert tables.biadditive(T.mul, G.add, G.edges, G.edges, np.array(G.generators))
        assert cells == [512 * 521, 521 * 9]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_rings_on_generators(self, data):
        # random bi-additive multiplications are often not associative, so
        # the generator test for associativity decides many of these alone
        group = data.draw(st.sampled_from(ALL_GROUPS))
        G = group[0]
        add, neg = G.add.tolist(), G.neg.tolist()
        mul = draw_bilinear(data, group, group, group)
        if data.draw(st.booleans()):
            mul = mutate_cells(data, mul, G.order)
        with cell_budget(data.draw(st.sampled_from(BUDGETS))):
            got = outcome(validate_ring, add, neg, mul)
        assert got == ref.ring_violation(add, neg, mul)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_random_bilinear_gradings(self, data):
        # every stored table is bi-additive, some pairs have none, and
        # components may be trivial: graded associativity is decided on
        # generators, one-sided triples included.  With one group for every
        # grader, pairs may share one table object, so that the checks of
        # distinct tables and triples decide for many pairs at once
        S = data.draw(st.sampled_from([S for S in enumerate_semigroups(2)]
                                      + [cyclic_group(3)]))
        n = S.order
        same = data.draw(st.booleans())
        groups = [data.draw(st.sampled_from(SMALL_GROUPS))] * n if same else [
            data.draw(st.sampled_from(SMALL_GROUPS)) for _ in range(n)]
        shared = draw_bilinear(data, *groups[:1] * 3) if same else None
        products = {}
        for s, t in product(range(n), repeat=2):
            if data.draw(st.integers(0, 3)):
                products[(s, t)] = (shared if same and data.draw(st.booleans()) else
                                    draw_bilinear(data, groups[s], groups[t],
                                                  groups[S.table[s, t]]))
        if products and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(sorted(products)))
            products[key] = mutate_cells(data, products[key],
                                         groups[S.table[key]][0].order,
                                         max_cells=1)
        components = [g[0] for g in groups]
        with cell_budget(data.draw(st.sampled_from(BUDGETS))):
            got = outcome(validate_grading, S, components, products)
        assert got == ref.grading_violation(S, components, products)

    def test_trivial_factors_must_send_zero_to_zero(self):
        # R_1 is trivial and R_1 R_1 lands in R_0 = Z2; 0 * 0 = 1 breaks
        # (0 + 0) * 0 = 0 * 0 + 0 * 0, and only a generator 0 of the trivial
        # group can see it
        S = cyclic_group(2)
        components = [GROUPS[(2,)][0], GROUPS[(1,)][0]]
        products = {(1, 1): [[1]]}
        got = outcome(validate_grading, S, components, products)
        assert got == (BilinearityError, (1, 1, 0, 0, 0))
        assert got == ref.grading_violation(S, components, products)

    @pytest.mark.parametrize("P,left,right", [([[0, 1]], (1,), (2,)),
                                              ([[0], [1]], (2,), (1,))])
    def test_a_trivial_factor_sends_every_product_to_zero(self, P, left, right):
        # additive in the argument from Z2, but 0 * 1 and 1 * 0 must be 0:
        # only the edge (0, 0) of the trivial group shows it
        G, H, K = GROUPS[left][0], GROUPS[right][0], GROUPS[(2,)][0]
        assert ref.biadditivity_violation(P, G.add, H.add, K.add) is not None
        assert not generator_check(P, G, H, K)

    def test_first_violation_off_the_generators(self):
        # Z4 with 3 * 3 = 0: generator triples (1, 1, 1) still associate, the
        # generator test for distributivity fails, and the scan reports the
        # first triple (2, 3, 3), in which 1 does not occur
        Z4 = cyclic_ring(4)
        add, neg = Z4.additive.add.tolist(), Z4.additive.neg.tolist()
        mul = Z4.mul.tolist()
        mul[3][3] = 0
        assert Z4.additive.generators == (1,)
        assert outcome(validate_ring, add, neg, mul) == (NotAssociativeError, (2, 3, 3))
        assert outcome(validate_ring, add, neg, mul) == ref.ring_violation(add, neg, mul)


class TestSpanningEdges:
    """The proof of bi-additivity reads each group through the edges of its
    greedy growth; reference_rings checks them by plain loops."""

    def test_every_group(self):
        for group, *_ in ALL_GROUPS:
            assert spanning_edge_fault(group) is None, group.order

    def test_relabelled_groups_close_on_nonzero_sums(self):
        for moduli, (group, *_) in RELABELLED.items():
            assert any(closing_sums(group)), moduli
        for moduli, (group, *_) in GROUPS.items():
            assert not any(closing_sums(group)), moduli


def commutative_loops(n):
    """Every symmetric Latin square on 0..n-1 with 0 neutral, by backtracking
    over the upper triangle in row-major order."""
    t = [[None] * n for _ in range(n)]
    for x in range(n):
        t[0][x] = t[x][0] = x
    cells = [(x, y) for x in range(1, n) for y in range(x, n)]

    def fill(k):
        if k == len(cells):
            yield [list(row) for row in t]
            return
        x, y = cells[k]
        for v in range(n):
            if v not in t[x] and v not in t[y]:
                t[x][y] = t[y][x] = v
                yield from fill(k + 1)
                t[x][y] = t[y][x] = None

    yield from fill(0)


class TestAdditiveAssociativity:
    """validate_additive_group accepts addition by Light's test on the greedy
    generators and scans for the first failing triple only when it fails."""

    def test_commutative_loops(self):
        # order 6 is the first with non-associative commutative loops: each
        # has identity and inverses, so only associativity can reject it
        loops = list(commutative_loops(6))
        rejected = 0
        for add in loops:
            neg = [row.index(0) for row in add]
            got = outcome(validate_additive_group, add, neg)
            assert got == ref.additive_group_violation(add, neg)
            rejected += got is not None
        assert len(loops) == 456 and rejected == 396

    # every change of one cell, or of one cell and its mirror image
    @pytest.mark.parametrize("moduli", [(4,), (6,), (8,), (2, 2), (2, 4), (12,)])
    def test_changed_group_tables(self, moduli):
        G = GROUPS[moduli][0]
        n, seen = G.order, set()
        for x, y, v in product(range(n), range(n), range(n)):
            if v == G.add[x][y]:
                continue
            for symmetric in (False, True):
                add = G.add.tolist()
                add[x][y] = v
                if symmetric:
                    add[y][x] = v
                got = outcome(validate_additive_group, add, G.neg.tolist())
                assert got == ref.additive_group_violation(add, G.neg.tolist())
                seen.add(len(got[1]))
        assert seen == {1, 2, 3}  # zero or inverse, commutativity, associativity

    def test_light_test_needs_every_generator(self):
        # (x + 1) + y = x + (1 + y) for all x, y on this loop, yet it is not
        # associative: the sums of 1 do not reach every element
        add = np.array(next(add for add in commutative_loops(6)
                            if ref.assoc_violation(add) is not None
                            and tables.associative_through(np.array(add), np.array([1]))))
        assert not tables.associative_through(add, np.arange(6))


class TestEnumerationAndSampling:
    # labelled associative tables, OEIS A023814
    @pytest.mark.parametrize("order,count", [(1, 1), (2, 8), (3, 113)])
    def test_enumeration_matches_reference(self, order, count):
        got = [S.table.tolist() for S in enumerate_semigroups(order)]
        assert got == [[list(row) for row in t] for t in ref.enumerate_tables(order)]
        assert len(got) == count

    def test_sampling_matches_reference(self):
        got = [S.table.tolist() for S in sample_semigroups(4, 20250810)]
        assert got == [[list(row) for row in t] for t in ref.sample_tables(4, 4, 20250810)]

    # drawn by the reference sampler; flattened row-major, one digit a cell
    @pytest.mark.parametrize("seed,flat", [
        (20250810, ["1010010110300101", "0222111122223333",
                    "0100010001230133", "0000010000000023"]),
        (1, ["3123132122223123", "0103111321231113",
             "0111011101230131", "2333233333333333"]),
        (2, ["0020012322220020", "0123212221223122",
             "0323332323233323", "0123112322233323"]),
        (3, ["2322302222222222", "3333111133233333",
             "0333331331233333", "0000000000020023"]),
    ])
    def test_sampling_is_unchanged(self, seed, flat):
        got = ["".join(str(v) for row in S.table.tolist() for v in row)
               for S in sample_semigroups(4, seed)]
        assert got == flat


def relabellings(table):
    """The table carried by every permutation of its elements."""
    t, n = np.array(table), len(table)
    for perm in permutations(range(n)):
        p = np.array(perm)
        relabelled = np.empty_like(t)
        relabelled[np.ix_(p, p)] = p[t]
        yield relabelled


def one_cell_changes(table):
    t = np.array(table)
    n = len(t)
    for a, b, v in product(range(n), range(n), range(n)):
        if v != t[a, b]:
            changed = t.copy()
            changed[a, b] = v
            yield changed


class TestOrder4Mask:
    """associative_mask at order 4, the order it filters when sampling,
    against the plain triple loop."""

    @pytest.fixture(scope="class")
    def near_semigroups(self):
        """Every relabelling of sampled and named order-4 semigroups, and
        every single-cell change of each: (tables, expected mask)."""
        seeds = [S.table.tolist() for seed in (20250810, 1, 2, 3)
                 for S in sample_semigroups(4, seed)]
        named = [S.table.tolist() for S in (cyclic_group(4), chain_semilattice(4),
                                            left_zero_semigroup(4))]
        relabelled = np.unique(np.array([r for t in seeds + named for r in relabellings(t)]),
                               axis=0)
        changed = np.unique(np.array([c for t in relabelled for c in one_cell_changes(t)]),
                            axis=0)
        tabs = np.concatenate([relabelled, changed])
        expected = [ref.assoc_violation(t) is None for t in tabs.tolist()]
        return tabs, expected

    def test_relabellings_and_one_cell_changes(self, near_semigroups):
        tabs, expected = near_semigroups
        assert len(tabs) > 10_000 and 100 < sum(expected) < len(tabs)
        assert tables.associative_mask(tabs.astype(np.uint8)).tolist() == expected

    def test_cell_dtype(self, near_semigroups):
        tabs, expected = near_semigroups
        assert tables.associative_mask(tabs.astype(np.int64)).tolist() == expected

    # cells below 2 make an associative table rare instead of all but unheard of
    @pytest.mark.parametrize("seed,values", [(0, 4), (1, 4), (2, 2), (3, 2)])
    def test_random_batches(self, seed, values):
        tabs = np.random.default_rng(seed).integers(0, values, size=(4096, 4, 4),
                                                    dtype=np.uint8)
        mask = tables.associative_mask(tabs)
        assert mask.dtype == bool and mask.shape == (4096,)
        assert mask.tolist() == [ref.assoc_violation(t) is None for t in tabs.tolist()]

    def test_empty_batch(self):
        mask = tables.associative_mask(np.zeros((0, 4, 4), dtype=np.uint8))
        assert mask.dtype == bool and mask.shape == (0,)

    def test_order_5_is_refused(self):
        # and every other order: the mask reads (m, 4, 4) batches only
        for order in (3, 5):
            with pytest.raises(ValueError, match="batches"):
                tables.associative_mask(np.zeros((1, order, order), dtype=np.uint8))

    def test_import_does_not_build_the_pair_table(self):
        # the composition table and the two row-pair tables are built on the
        # first mask, so import time does not grow
        code = ("import grl.cli; from grl import tables; "
                "print(tables._compositions.cache_info().currsize, "
                "tables._row_pair_tables.cache_info().currsize)")
        src = str(Path(tables.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["0", "0"]


def unpacked(byte):
    """An order-4 row packed 2 bits a cell, cell b at bits 2b, as a list."""
    return [(byte >> 2 * b) & 3 for b in range(4)]


class TestCompositions:
    """The one law the mask reads: every pair of packed rows against the
    plain loop."""

    def test_every_pair(self):
        got = tables._compositions()
        assert got.dtype == np.uint8 and got.shape == (256, 256)
        for x, y in product(range(256), repeat=2):
            outer, inner = unpacked(x), unpacked(y)
            composed = [outer[inner[c]] for c in range(4)]
            assert unpacked(int(got[x, y])) == composed, (x, y)


class TestRowPairTables:
    """The order-4 row-pair lookups, every key against the plain loop."""

    @pytest.mark.parametrize("which,pair", [(0, (0, 1)), (1, (2, 3))])
    def test_every_key(self, which, pair):
        got = tables._row_pair_tables()[which]
        assert got.dtype == bool and got.shape == (1 << 16,)

        def row(byte):  # cell b at bits 2b
            return [(byte >> 2 * b) & 3 for b in range(4)]

        want = [ref.row_pair_holds({pair[0]: row(key & 0xFF), pair[1]: row(key >> 8)})
                for key in range(1 << 16)]
        assert got.tolist() == want
