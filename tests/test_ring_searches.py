"""Ring queries and searches against the plain-loop reference in
reference_rings.py.

The queries (s-unitality, the unity, regularity, idempotents) read the
ring's tables as arrays.  ``check_tominaga`` and ``common_unit`` work on
fixer bitmasks, and the ideal searches on principal left ideals cached per
ring, each closed once per distinct seed set {0, c} ∪ Tc; ``check_tominaga``
grows the ANDs of the distinct masks.
``check_vnr_characterization`` decides each distinct principal ideal once
in its principal scan, and each distinct sum of principal ideals once in
its finitely generated scan.  The reports, witnesses, first units and first
failing subsets must be exactly those of the element-by-element scans.
"""

import pickle
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_rings as ref
from grl import catalog, rings
from grl.constructions import good_grading, validate_degree_map
from grl.corpus import default_manifest
from grl.errors import NotAnIdealError
from grl.rings import (
    FiniteAdditiveGroup,
    FiniteRing,
    check_tominaga,
    check_vnr_characterization,
    common_unit,
    cyclic_ring,
    idempotent_generator,
    is_left_ideal,
    left_ideal,
    matrix_ring,
    multiples_ring,
    opposite_ring,
    product_ring,
    Subgroup,
    zero_multiplication_ring,
)

M2 = matrix_ring(cyclic_ring(2), 2)
# [[x, y], [0, 0]] over Z2: left s-unital but not right s-unital, so a
# search that mixes up the two sides changes its verdict here
ROWS = ref.ring_from_ops([(0, 0), (0, 1), (1, 0), (1, 1)],
                         lambda p, q: ((p[0] + q[0]) % 2, (p[1] + q[1]) % 2),
                         lambda p: p,
                         lambda p, q: (p[0] * q[0], p[0] * q[1]))
POOL = {f"corpus:{name}": catalog.named_ring(name) for name in default_manifest().rings}
POOL.update({
    "M2(Z2)": M2,
    "M2(Z2)^op": opposite_ring(M2),
    "rows": ROWS,
    "rows^op": opposite_ring(ROWS),
    "EVEN8": multiples_ring(2, 8),
    "zero3": zero_multiplication_ring(3),
})
POOL_NAMES = sorted(POOL)


# The ring queries read the tables as arrays; every verdict and witness
# must be that of the plain loops, as plain ints.
QUERIES = ("s_unitality", "is_s_unital", "unity", "is_von_neumann_regular",
           "ring_idempotents")
QUERY_RINGS = {f"corpus:{name}": catalog.named_ring(name) for name in default_manifest().rings}
QUERY_RINGS.update({f"{name}^op": opposite_ring(T) for name, T in list(QUERY_RINGS.items())})
QUERY_RINGS.update({
    "Z1": cyclic_ring(1),
    "M2(Z3)": matrix_ring(cyclic_ring(3), 2),
    "M2(Z2)xZ3": product_ring(M2, cyclic_ring(3)),
    "M2(Z2)xZ4": product_ring(M2, cyclic_ring(4)),
    "rows": ROWS,
    "rows^op": opposite_ring(ROWS),
})


def assert_queries_match_reference(T):
    for name in QUERIES:
        assert getattr(rings, name)(T) == getattr(ref, name)(T), name
    su, reg = rings.s_unitality(T), rings.is_von_neumann_regular(T)
    witnesses = (*su.left_units, *su.right_units, *reg.witness, reg.failing,
                 rings.unity(T), *rings.ring_idempotents(T))
    assert all(w is None or type(w) is int for w in witnesses)
    assert type(reg.holds) is bool and type(rings.is_s_unital(T)) is bool


@pytest.mark.parametrize("name", sorted(QUERY_RINGS))
def test_ring_queries_match_reference(name):
    T = QUERY_RINGS[name]
    assert_queries_match_reference(T)
    for I in {left_ideal(T, [c]) for c in T.elements()}:
        u = idempotent_generator(T, I)
        assert u == ref.idempotent_generator(T, I) and (u is None or type(u) is int)


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotAnIdealError as err:
        return ("NotAnIdealError", err.context)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from(POOL_NAMES), st.integers(1, 3))
def test_tominaga_matches_reference(name, bound):
    T = POOL[name]
    assert check_tominaga(T, bound) == ref.check_tominaga(T, bound)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from(POOL_NAMES), st.integers(1, 2), st.sampled_from(["left", "right"]))
def test_vnr_characterization_matches_reference(name, bound, side):
    T = POOL[name]
    assert (check_vnr_characterization(T, bound, side)
            == ref.check_vnr_characterization(T, bound, side))


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("name", POOL_NAMES)
def test_vnr_characterization_matches_reference_at_every_bound(name, bound):
    # scan (iii) finds its first failing set from masks of sum ideals, and
    # must give the set-by-set scan's report at every bound, on both sides
    T = POOL[name]
    for side in ("left", "right"):
        assert (check_vnr_characterization(T, bound, side)
                == ref.check_vnr_characterization(T, bound, side)), side


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from(POOL_NAMES), st.data())
def test_ideal_searches_match_reference(name, data):
    T = POOL[name]
    gens = data.draw(st.lists(st.integers(0, T.order - 1), max_size=3))
    I = left_ideal(T, gens)
    assert I == ref.left_ideal(T, gens)
    assert outcome(idempotent_generator, T, I) == outcome(ref.idempotent_generator, T, I)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(POOL_NAMES), st.data())
def test_left_ideal_guard_matches_reference(name, data):
    # ideals with a few elements toggled in or out, so most are not ideals
    T = POOL[name]
    elements = st.lists(st.integers(0, T.order - 1), max_size=2)
    members = set(ref.left_ideal(T, data.draw(elements)).members)
    members.symmetric_difference_update(data.draw(elements))
    sub = Subgroup(members=frozenset(members))
    assert is_left_ideal(T, sub) == ref.is_left_ideal(T, sub)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_arbitrary_tables_match_reference(data):
    # The searches only scan tables, so any multiplication table over Z_n
    # exercises them, ring or not; non-ideals must raise in both.
    n = data.draw(st.integers(1, 12))
    cells = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    mul = tuple(tuple(row) for row in data.draw(st.lists(cells, min_size=n, max_size=n)))
    Zn = cyclic_ring(n)
    T = FiniteRing(additive=Zn.additive, mul=mul)
    assert_queries_match_reference(T)
    vs = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    for side in ("left", "right"):
        assert common_unit(T, vs, side) == ref.common_unit(T, vs, side)
    I = left_ideal(T, vs)
    assert I == ref.left_ideal(T, vs)
    assert outcome(idempotent_generator, T, I) == outcome(ref.idempotent_generator, T, I)
    bound = data.draw(st.integers(1, 3))
    assert check_tominaga(T, bound) == ref.check_tominaga(T, bound)
    side = data.draw(st.sampled_from(["left", "right"]))
    assert (outcome(check_vnr_characterization, T, bound, side)
            == outcome(ref.check_vnr_characterization, T, bound, side))


@pytest.mark.parametrize("T", [M2, opposite_ring(M2)], ids=["M2(Z2)", "M2(Z2)^op"])
def test_common_unit_on_every_small_subset(T):
    for vs in ref.subsets_up_to(T.order, 2):
        for side in ("left", "right"):
            assert common_unit(T, vs, side) == ref.common_unit(T, vs, side), (vs, side)
    assert common_unit(T, []) == ref.common_unit(T, []) == 0


# The rings of the ring-ideals benchmark: M2(Z2)xZ3 is regular, so every
# scan runs to its end; M2(Z2)xZ4 is not.
def assert_vnr_characterization_matches_reference(T):
    for side in ("left", "right"):
        assert (check_vnr_characterization(T, 2, side)
                == ref.check_vnr_characterization(T, 2, side)), side


def test_order_48_ring_matches_reference():
    T = product_ring(M2, cyclic_ring(3))
    assert check_tominaga(T) == ref.check_tominaga(T)
    assert_vnr_characterization_matches_reference(T)


def test_order_64_ring_matches_reference():
    assert_vnr_characterization_matches_reference(product_ring(M2, cyclic_ring(4)))


# Left fixer masks {all}, {2, 3}, {3, 4}, {2, 4}, {all}: every pair has a
# common left unit, the triple {1, 2, 3} has none.
TRIPLE_FAILS = FiniteRing(
    additive=cyclic_ring(5).additive,
    mul=((0, 2, 3, 4, 4), (0, 2, 3, 4, 4), (0, 1, 3, 3, 4), (0, 1, 2, 4, 4), (0, 2, 2, 3, 4)))


def test_first_tominaga_failure_of_size_three():
    no_common_unit = {"s_unital": True, "common_units": False, "failing_subset": [1, 2, 3],
                      "agree": False}
    right = {"s_unital": False, "common_units": False, "failing_subset": [1], "agree": True}
    assert check_tominaga(TRIPLE_FAILS, 3) == {
        "check": "tominaga", "applicable": True, "bound": 3, "left": no_common_unit,
        "right": right, "agree": False}
    for bound in (1, 2):
        assert check_tominaga(TRIPLE_FAILS, bound)["left"]["failing_subset"] is None
    for bound in (1, 2, 3):
        assert check_tominaga(TRIPLE_FAILS, bound) == ref.check_tominaga(TRIPLE_FAILS, bound)


UNITAL_SIDE = {"s_unital": True, "common_units": True, "failing_subset": None, "agree": True}
ALL_HAVE_COMMON_UNITS = {"check": "tominaga", "applicable": True, "bound": 3,
                         "left": UNITAL_SIDE, "right": UNITAL_SIDE, "agree": True}


def count_calls(monkeypatch, name):
    """Count the calls of ``grl.rings.<name>`` from inside the module."""
    calls = []
    fn = getattr(rings, name)
    monkeypatch.setattr(rings, name, lambda *args: calls.append(args) or fn(*args))
    return calls


class TestDistinctIdealScans:
    """Each distinct ideal is decided once, and an early failure closes no
    ideal past it."""

    def test_each_ideal_set_is_decided_once(self, monkeypatch):
        T = product_ring(M2, cyclic_ring(3))
        calls = count_calls(monkeypatch, "idempotent_generator")
        report = check_vnr_characterization(T)
        # 48 generators give 10 distinct principal ideals in scan (ii), and
        # the same 10 in scan (iii): in a regular ring their sums add none
        assert report["agree"] and report["finitely_generated_ideals_idempotent"]
        assert len(calls) == 10 + 10

    def test_principal_scan_decides_each_ideal_once(self, monkeypatch):
        T = product_ring(M2, cyclic_ring(3))
        monkeypatch.setattr(rings, "_first_non_idempotent_ideal", lambda T, k: None)
        calls = count_calls(monkeypatch, "idempotent_generator")
        guards = count_calls(monkeypatch, "is_left_ideal")
        assert check_vnr_characterization(T)["principal_ideals_idempotent"]
        ideals = [I for _, I in calls]
        assert len(ideals) == len(set(ideals)) == 10
        assert [I for _, I in guards] == ideals

    @pytest.mark.parametrize("build, closures", [
        (lambda: matrix_ring(cyclic_ring(2), 3), 16),
        (lambda: product_ring(M2, cyclic_ring(3)), 10),
    ], ids=["M3(Z2)", "M2(Z2)xZ3"])
    def test_each_seed_set_is_closed_once(self, monkeypatch, build, closures):
        # in a unital ring the seed set {0, c} ∪ Tc is c's ideal, so the 512
        # and 48 generators close only their distinct principal ideals
        T = build()
        calls = count_calls(monkeypatch, "additive_closure")
        asked = count_calls(monkeypatch, "_principal_left_ideal")
        assert check_vnr_characterization(T)["agree"]
        assert {c for _, c in asked} == set(T.elements())
        assert len(calls) == len(T._closures) == len(set(T._closures.values())) == closures

    def test_early_exit_closes_three_principal_ideals(self, monkeypatch):
        T = product_ring(M2, cyclic_ring(4))
        asked = count_calls(monkeypatch, "_principal_left_ideal")
        report = check_vnr_characterization(T)
        assert report["finitely_generated_failing"]["generators"] == [2]
        assert {c for _, c in asked} == {0, 1, 2}

    def test_m2_z4_reports(self):
        # recorded with the per-tuple and per-subset scans
        T = matrix_ring(cyclic_ring(4), 2)
        for side, ideal in (("left", [0, 2, 32, 34]), ("right", [0, 2, 8, 10])):
            assert check_vnr_characterization(T, 2, side) == {
                "check": "vnr-characterization", "applicable": True, "side": side,
                "bound": 2, "vnr": False, "vnr_failing": 2,
                "principal_ideals_idempotent": False,
                "principal_failing": {"generator": 2, "ideal": ideal},
                "finitely_generated_ideals_idempotent": False,
                "finitely_generated_failing": {"generators": [2], "ideal": ideal},
                "agree": True}
        assert check_tominaga(T) == ALL_HAVE_COMMON_UNITS

    def test_m3_z2_reports(self, monkeypatch):
        # 131,328 generator sets and about 22 million subsets, but only 16
        # distinct principal left ideals and fixer masks per side
        T = matrix_ring(cyclic_ring(2), 3)
        calls = count_calls(monkeypatch, "idempotent_generator")
        assert check_vnr_characterization(T) == {
            "check": "vnr-characterization", "applicable": True, "side": "left",
            "bound": 2, "vnr": True, "vnr_failing": None,
            "principal_ideals_idempotent": True, "principal_failing": None,
            "finitely_generated_ideals_idempotent": True,
            "finitely_generated_failing": None, "agree": True}
        assert len(calls) == 16 + 16
        assert len(set(T._closures.values())) == 16
        assert len(set(T._fixers["left"])) == len(set(T._fixers["right"])) == 16
        assert check_tominaga(T) == ALL_HAVE_COMMON_UNITS


# Tables over Z2^2 and Z2^3, not rings, whose first failing generator set is
# a pair: each principal ideal is generated by an idempotent, and the sum of
# two is not.  In the first the sum is the whole table, which no idempotent
# generates; in the second the sum {0, 2, 4, 6} is not a left ideal.
PAIR_FAILS = FiniteRing(
    additive=product_ring(cyclic_ring(2), cyclic_ring(2)).additive,
    mul=((0, 0, 0, 0), (0, 1, 0, 0), (0, 1, 2, 3), (0, 1, 2, 3)))
PAIR_IS_NOT_AN_IDEAL = FiniteRing(
    additive=product_ring(cyclic_ring(2), cyclic_ring(2), cyclic_ring(2)).additive,
    mul=((0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 1, 0, 3), (0, 0, 2, 2, 0, 0, 2, 2),
         (0, 1, 2, 3, 0, 1, 2, 3), (0, 0, 0, 0, 4, 4, 4, 4), (0, 1, 0, 1, 4, 5, 4, 5),
         (0, 0, 2, 2, 4, 4, 6, 6), (0, 1, 2, 3, 4, 5, 7, 7)))


# Tables over Z4 on which a seed set {0, c} ∪ Tc is not closed under +.  In
# the zero ring the seed set of 1 is {0, 1} and its ideal is all of Z4.  The
# second is not a ring: 1 and 3 share the seed set {0, 1, 3}, so the four
# generators close three seed sets.
UNCLOSED_SEEDS = {
    "zero4": (lambda: zero_multiplication_ring(4), 4),
    "shared": (lambda: FiniteRing(additive=cyclic_ring(4).additive,
                                  mul=((0, 0, 0, 1), (0, 3, 2, 0), (0, 0, 0, 1), (0, 3, 2, 0))),
               3),
}


@pytest.mark.parametrize("name", sorted(UNCLOSED_SEEDS))
def test_unclosed_seed_sets_match_reference(monkeypatch, name):
    build, closures = UNCLOSED_SEEDS[name]
    T = build()
    calls = count_calls(monkeypatch, "additive_closure")
    for c in T.elements():
        I = left_ideal(T, [c])
        assert I == ref.left_ideal(T, [c]), c
        assert outcome(idempotent_generator, T, I) == outcome(ref.idempotent_generator, T, I)
    assert left_ideal(T, [1]).elements() == (0, 1, 2, 3)
    assert len(calls) == len(np.unique(T._seed_keys, axis=0)) == closures


@pytest.mark.parametrize("bound", [2, 3])
def test_first_failing_set_is_a_pair(bound):
    report = check_vnr_characterization(PAIR_FAILS, bound)
    assert report["principal_ideals_idempotent"] and not report["agree"]
    assert report["finitely_generated_failing"] == {"generators": [1, 2], "ideal": [0, 1, 2, 3]}
    assert report == ref.check_vnr_characterization(PAIR_FAILS, bound)
    assert check_vnr_characterization(PAIR_FAILS, 1)["finitely_generated_ideals_idempotent"]
    raised = outcome(check_vnr_characterization, PAIR_IS_NOT_AN_IDEAL, bound)
    assert raised == ("NotAnIdealError", (0, 2, 4, 6))
    assert raised == outcome(ref.check_vnr_characterization, PAIR_IS_NOT_AN_IDEAL, bound)
    at_one = check_vnr_characterization(PAIR_IS_NOT_AN_IDEAL, 1)
    assert at_one["finitely_generated_ideals_idempotent"]


def relabelled(T: FiniteRing, p: tuple[int, ...]) -> FiniteRing:
    """T with each element x renamed p[x]: a table M becomes p[M[q][:, q]],
    q the inverse of p."""
    p = np.array(p)
    q = np.argsort(p)
    additive = FiniteAdditiveGroup(order=T.order, add=p[T.additive.add[q][:, q]],
                                   neg=p[T.additive.neg[q]])
    return FiniteRing(additive=additive, mul=p[T.mul[q][:, q]])


def squared(T: FiniteRing) -> FiniteRing:
    """T x T, each table entrywise, the pair (a, b) numbered a*|T| + b."""
    n = T.order

    def pairs(M: np.ndarray) -> np.ndarray:
        return (n * M[:, None, :, None] + M[None, :, None, :]).reshape(n * n, n * n)

    neg = T.additive.neg
    return FiniteRing(additive=FiniteAdditiveGroup(order=n * n, add=pairs(T.additive.add),
                                                   neg=(n * neg[:, None] + neg).ravel()),
                      mul=pairs(T.mul))


def seeded(order: int, seed: int) -> tuple[int, ...]:
    return (0, *np.random.default_rng(seed).permutation(np.arange(1, order)).tolist())


# each relabelling that fixes 0 moves the failing pairs to other cells of
# the pair table, so a scan that reads it transposed, off the diagonal by
# one or in the wrong order reports another first pair here.  Only the
# square of PAIR_FAILS, with 78 failing pairs, has relabellings whose first
# failing pair in column order is not the first in row order
RELABELLINGS = (
    [("PAIR_FAILS", PAIR_FAILS, (0, *p)) for p in permutations(range(1, 4))]
    + [("PAIR_IS_NOT_AN_IDEAL", PAIR_IS_NOT_AN_IDEAL, seeded(8, seed)) for seed in range(20)]
    + [("PAIR_FAILS^2", squared(PAIR_FAILS), seeded(16, seed)) for seed in range(8)])


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("T, p", [(T, p) for _, T, p in RELABELLINGS],
                         ids=[f"{name}-{'.'.join(map(str, p))}" for name, _, p in RELABELLINGS])
def test_relabelled_first_failing_pair_matches_reference(T, p, side):
    R = relabelled(T, p)
    assert (outcome(check_vnr_characterization, R, 2, side)
            == outcome(ref.check_vnr_characterization, R, 2, side))


def test_m3_z2_at_bound_three_gives_the_bound_two_report():
    # about 22 million sets of at most three generators, but no set of three
    # can fail first, so the scan ends with the pairs of the 16 principal ids
    T = matrix_ring(cyclic_ring(2), 3)
    report = check_vnr_characterization(T, 3)
    assert report["bound"] == 3
    assert {**report, "bound": 2} == check_vnr_characterization(T, 2)


def test_common_unit_rejects_bad_input():
    with pytest.raises(ValueError):
        common_unit(M2, [1], side="middle")
    for v in (-1, M2.order):
        with pytest.raises(IndexError):
            common_unit(M2, [v])


def test_vnr_characterization_rejects_unknown_side():
    # any side but "left" used to run the right side and report the name given
    with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'up'"):
        check_vnr_characterization(M2, side="up")


@pytest.mark.parametrize("bound", [0, -1])
def test_vnr_characterization_rejects_bound_below_one(bound):
    # scan (iii) would visit no set and pass vacuously
    with pytest.raises(ValueError, match=f"max_generators must be at least 1, got {bound}"):
        check_vnr_characterization(M2, bound)


@pytest.mark.parametrize("bound", [0, -1])
def test_tominaga_rejects_bound_below_one(bound):
    # no subset would be scanned, so every side would have common units
    with pytest.raises(ValueError, match=f"max_subset must be at least 1, got {bound}"):
        check_tominaga(M2, bound)


class TestCacheScope:
    """Cached masks and ideals belong to one ring object and never leak."""

    def test_component_ring_is_one_object_per_graded_ring(self):
        coefficients, base, deg = catalog.good_grading_spec("M2_Z2_trivial")
        graded = good_grading(coefficients, validate_degree_map(base, deg)).graded
        e = graded.base_idempotents()[0]
        A = graded.component_ring(e)
        assert graded.component_ring(e) is A
        for c in A.elements():
            left_ideal(A, [c])
        check_tominaga(A, 1)
        # another graded ring with the same tables builds its own, uncached
        again = good_grading(coefficients, validate_degree_map(base, deg)).graded
        B = again.component_ring(e)
        assert B is not A and "_closures" not in vars(B) and "_fixers" not in vars(B)
        assert A == B and hash(A) == hash(B) and repr(A) == repr(B)
        assert graded == again and "_memo" not in repr(graded)

    def test_opposite_ring_sees_its_own_ideals(self):
        T = matrix_ring(cyclic_ring(2), 2)
        for c in T.elements():
            left_ideal(T, [c])
        check_tominaga(T, 1)
        op = opposite_ring(T)
        assert op.additive is T.additive
        for c in op.elements():
            assert left_ideal(op, [c]) == ref.left_ideal(op, [c])
        assert check_tominaga(op) == ref.check_tominaga(op)
        assert left_ideal(T, [1]) != left_ideal(op, [1])

    def test_seed_sets_belong_to_one_ring(self):
        caches = {"_seed_keys", "_closures"}
        T = matrix_ring(cyclic_ring(2), 2)
        assert not caches & set(vars(T))
        for c in T.elements():
            left_ideal(T, [c])
        assert caches <= set(vars(T))
        copy = pickle.loads(pickle.dumps(T))
        assert copy == T and not caches & set(vars(copy))
        op = opposite_ring(T)
        assert not caches & set(vars(op))
        for c in op.elements():
            assert left_ideal(op, [c]) == ref.left_ideal(op, [c])
        assert not np.array_equal(op._seed_keys, T._seed_keys)
        assert op._closures != T._closures

    def test_equal_rings_stay_equal_once_cached(self):
        a = FiniteRing(additive=FiniteAdditiveGroup(order=2, add=((0, 1), (1, 0)),
                                                    neg=(0, 1)),
                       mul=((0, 0), (0, 1)))
        b = FiniteRing(additive=a.additive, mul=a.mul)
        check_vnr_characterization(a)
        assert a == b and hash(a) == hash(b) and {a, b} == {a}
