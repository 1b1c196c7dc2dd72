import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import reference_rings as ref
from grl import catalog, rings
from grl.corpus import default_manifest
from grl.jsonio import construction_from_json

from grl.errors import (
    AdditiveGroupError,
    DistributivityError,
    NotAnIdealError,
    OutOfRangeError,
    ValidationError,
)
from grl.rings import (
    MAX_RING_ORDER,
    TRIVIAL_GROUP,
    Subgroup,
    additive_closure,
    check_tominaga,
    check_vnr_characterization,
    common_unit,
    cyclic_ring,
    field_f4,
    idempotent_generator,
    is_s_unital,
    is_von_neumann_regular,
    left_ideal,
    matrix_ring,
    multiples_ring,
    opposite_ring,
    product_ring,
    ring_idempotents,
    s_unitality,
    unity,
    validate_additive_group,
    validate_ring,
    zero_multiplication_ring,
)

Z2 = cyclic_ring(2)
Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)
F4 = field_f4()
ZERO2 = zero_multiplication_ring(2)
EVEN8 = multiples_ring(2, 8)  # {0, 2, 4, 6} inside the integers mod 8


class TestValidation:
    def test_cyclic_ring_valid(self):
        assert Z4.order == 4 and Z4.mul[3][3] == 1

    def test_zero_multiplication_valid(self):
        assert all(ZERO2.mul[x][y] == 0 for x in ZERO2.elements()
                   for y in ZERO2.elements())

    def test_distributivity_violation(self):
        # right projection x*y = y is associative but breaks (a+b)*c = a*c + b*c
        with pytest.raises(DistributivityError):
            validate_ring([[0, 1], [1, 0]], [0, 1], [[0, 1], [0, 1]])

    def test_additive_zero_must_be_index_zero(self):
        with pytest.raises(AdditiveGroupError):
            validate_additive_group([[1, 0], [0, 1]], [1, 0])

    def test_non_commutative_addition_rejected(self):
        with pytest.raises(AdditiveGroupError):
            validate_additive_group([[0, 1, 2], [2, 0, 1], [1, 2, 0]], [0, 2, 1])

    def test_out_of_range_mul(self):
        with pytest.raises(OutOfRangeError):
            validate_ring([[0, 1], [1, 0]], [0, 1], [[0, 0], [0, 9]])

    def test_field_f4_table(self):
        assert F4.mul[2][2] == 3 and F4.mul[2][3] == 1 and F4.mul[3][3] == 2

    def test_matrix_ring_m2_z2(self):
        m = matrix_ring(Z2, 2)
        assert m.order == 16
        assert unity(m) == 9  # identity matrix (1,0,0,1) encoded big-endian


def tables(T):
    """The ring's tables as nested lists: equal exactly when every table has
    the same shape and cells."""
    return T.additive.add.tolist(), T.additive.neg.tolist(), T.mul.tolist()


class TestBuildersMatchReference:
    """The integer, product and matrix rings compute whole tables by index
    arithmetic and F4 writes them out; each table must equal the per-pair
    closures' of reference_rings, element order included."""

    COEFFICIENTS = {"Z1": cyclic_ring(1), "Z2": Z2, "Z3": cyclic_ring(3), "Z4": Z4,
                    "F4": F4, "2Z8": EVEN8, "zero3": zero_multiplication_ring(3)}

    def test_field_f4(self):
        # the literal tables against the closures over the multiplicative group
        assert tables(F4) == tables(ref.field_f4())

    @pytest.mark.parametrize("name", sorted(COEFFICIENTS))
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_matrix_ring(self, name, k):
        T = self.COEFFICIENTS[name]
        assert tables(matrix_ring(T, k)) == tables(ref.matrix_ring(T, k))

    def test_matrix_ring_over_the_zero_ring(self):
        assert tables(matrix_ring(cyclic_ring(1), 3)) == tables(ref.matrix_ring(cyclic_ring(1), 3))

    def test_matrix_ring_proves_only_its_product(self, monkeypatch):
        # the direct power of a validated group is one, so only mul is proved
        built, expected = matrix_ring(Z4, 2), tables(ref.matrix_ring(Z4, 2))
        prove = rings._ring_on
        proved = []
        monkeypatch.setattr(rings, "validate_additive_group", None)  # any call fails
        monkeypatch.setattr(rings, "_ring_on",
                            lambda grp, mul: proved.append(grp) or prove(grp, mul))
        again = matrix_ring(Z4, 2)
        assert again == built and tables(again) == expected
        assert [again.additive] == proved

    @pytest.mark.parametrize("mul", [[[0, 1], [0, 1]], [[0, 0], [0, 9]], [[0, 0], [0, 1.0]],
                                     [[0, 0]], [[1, 1], [1, 1]]])
    def test_a_product_on_a_valid_group_fails_as_in_validate_ring(self, mul):
        with pytest.raises(ValidationError) as whole:
            validate_ring(Z2.additive.add, Z2.additive.neg, mul)
        with pytest.raises(ValidationError) as product_only:
            rings._ring_on(Z2.additive, mul)
        assert ((type(product_only.value), str(product_only.value), product_only.value.context)
                == (type(whole.value), str(whole.value), whole.value.context))

    def test_m3_z2_on_sampled_pairs(self):
        # the full reference build takes seconds: every negative, and sums
        # and products on a seeded sample of pairs
        M = matrix_ring(Z2, 3)
        elems, plus, neg, times = ref.matrix_ops(Z2, 3)
        index = {e: i for i, e in enumerate(elems)}
        assert M.additive.neg.tolist() == [index[neg(a)] for a in elems]
        rng = random.Random(3)
        for _ in range(4096):
            x, y = rng.randrange(512), rng.randrange(512)
            assert M.additive.add[x][y] == index[plus(elems[x], elems[y])]
            assert M.mul[x][y] == index[times(elems[x], elems[y])]

    @pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (1, 6), (1, 9), (2, 8), (3, 9),
                                     (2, 12), (4, 8), (6, 12), (5, 5), (10**17, 4 * 10**17)])
    def test_integer_rings(self, k, n):
        assert tables(multiples_ring(k, n)) == tables(ref.multiples_ring(k, n))
        if k == 1:
            assert tables(cyclic_ring(n)) == tables(ref.multiples_ring(1, n))
            assert tables(zero_multiplication_ring(n)) == \
                tables(ref.multiples_ring(1, n, zero_product=True))

    @pytest.mark.parametrize("names", [
        ("Z2",), ("Z2", "Z2"), ("Z2", "Z3"), ("F4", "Z4"), ("2Z8", "zero3", "Z1"),
        ("Z2", "Z2", "Z2", "Z2"), ("M2(Z2)", "Z3"), ("Z1",) * 40 + ("Z2", "Z1")],
        ids=lambda names: "x".join(names) if len(names) < 8 else "40 Z1 factors")
    def test_product_ring(self, names):
        factors = [catalog.named_ring(name) if name == "M2(Z2)" else self.COEFFICIENTS[name]
                   for name in names]
        assert tables(product_ring(*factors)) == tables(ref.product_ring(*factors))

    @pytest.mark.parametrize("T", [Z4, EVEN8, product_ring(Z2, Z2), matrix_ring(Z2, 2)])
    def test_opposite_ring_transposes(self, T):
        op = opposite_ring(T)
        assert op.additive == T.additive
        assert op.mul.tolist() == [[T.mul[b][a] for b in T.elements()] for a in T.elements()]


class TestOrderBound:
    """Constructors refuse rings above MAX_RING_ORDER before building tables.
    Every size here would also build in seconds without the bound, so a
    missing check fails the test instead of exhausting memory."""

    @pytest.mark.parametrize("build", [
        lambda: cyclic_ring(1025), lambda: zero_multiplication_ring(1025),
        lambda: multiples_ring(1, 1025), lambda: matrix_ring(Z6, 2),
        lambda: product_ring(*[Z2] * 11)],
        ids=["Z1025", "zero1025", "1Z1025", "M2(Z6)", "Z2^11"])
    def test_above_the_bound(self, build):
        with pytest.raises(ValueError, match="MAX_RING_ORDER = 1024"):
            build()

    def test_at_the_bound(self):
        assert MAX_RING_ORDER == 1024
        assert product_ring(*[Z2] * 10).order == 1024

    def test_negative_matrix_size(self):
        with pytest.raises(ValueError, match="matrix size"):
            matrix_ring(Z2, -1)

    def test_catalog_names(self):
        assert catalog.ring_factory("Z1024") and catalog.ring_factory("zero1024")
        for name in ("Z1025", "zero1025"):
            with pytest.raises(KeyError, match="MAX_RING_ORDER"):
                catalog.ring_factory(name)


class TestUnitality:
    def test_cyclic_is_s_unital(self):
        su = s_unitality(Z4)
        assert su.holds and all(u is not None for u in su.left_units)

    def test_zero_ring_not_left_s_unital(self):
        su = s_unitality(ZERO2)
        assert not su.is_left and su.first_left_failure() == 1

    def test_even_subring_not_s_unital(self):
        # the products T*2 = {0, 4} miss 2
        assert {EVEN8.mul[t][1] for t in EVEN8.elements()} == {0, 2}
        assert not is_s_unital(EVEN8)

    def test_unity_values(self):
        assert unity(Z6) == 1
        assert unity(ZERO2) is None
        assert unity(product_ring(Z2, Z2)) == 3  # the pair (1, 1)
        # 2x2 matrices with zero bottom row over F2: (a,b)*(c,d) = (ac, ad);
        # (1,0) and (1,1) are left unities, and there is no right unity
        rows = ref.ring_from_ops(
            [(0, 0), (0, 1), (1, 0), (1, 1)],
            lambda x, y: (x[0] ^ y[0], x[1] ^ y[1]),
            lambda x: x,
            lambda x, y: (x[0] & y[0], x[0] & y[1]))
        assert unity(rows) is None

    def test_zero_ring_of_order_one_is_unital(self):
        one = cyclic_ring(1)
        assert unity(one) == 0

    def test_common_unit_z6(self):
        assert common_unit(Z6, [2, 3]) == 1

    def test_common_unit_unital_ring(self):
        u = unity(F4)
        for vs in ([1], [2, 3], [1, 2, 3]):
            got = common_unit(F4, vs)
            assert got is not None and all(F4.mul[got][v] == v for v in vs)
        assert common_unit(ZERO2, [1]) is None


class TestIdeals:
    def test_additive_closure(self):
        assert additive_closure(Z4.additive, [2]).elements() == (0, 2)
        assert additive_closure(Z6.additive, [4]).elements() == (0, 2, 4)
        assert additive_closure(Z6.additive, []).elements() == (0,)
        assert additive_closure(Z4.additive, [1]).elements() == (0, 1, 2, 3)
        assert additive_closure(Z6.additive, [3, 4]).elements() == (0, 1, 2, 3, 4, 5)

    def test_left_ideal(self):
        assert left_ideal(Z4, [2]).elements() == (0, 2)
        assert left_ideal(Z6, [2, 3]).elements() == (0, 1, 2, 3, 4, 5)
        assert left_ideal(Z6, [0]).elements() == (0,)

    def test_left_ideal_equals_closure_of_products_when_s_unital(self):
        for T in (Z2, Z4, Z6, F4, product_ring(Z2, Z2)):
            for c in T.elements():
                via_products = additive_closure(
                    T.additive, [T.mul[t][c] for t in T.elements()])
                assert left_ideal(T, [c]).members == via_products.members

    def test_left_ideal_keeps_generator_without_units(self):
        # in the zero ring T*c = {0}, so the generator itself matters
        assert left_ideal(ZERO2, [1]).elements() == (0, 1)

    def test_idempotent_generator_z6(self):
        I = additive_closure(Z6.additive, [2])
        assert idempotent_generator(Z6, I) == 4

    def test_idempotent_generator_missing(self):
        I = additive_closure(Z4.additive, [2])
        assert idempotent_generator(Z4, I) is None
        assert ring_idempotents(Z4) == (0, 1)

    def test_idempotent_generator_zero_ideal(self):
        I = Subgroup(members=frozenset({0}))
        assert idempotent_generator(Z6, I) == 0

    def test_not_an_ideal_raises(self):
        bad = Subgroup(members=frozenset({0, 1}))
        with pytest.raises(NotAnIdealError):
            idempotent_generator(Z4, bad)


class TestRegularity:
    def test_z6_regular_with_verified_witnesses(self):
        w = is_von_neumann_regular(Z6)
        assert w.holds
        for r, y in enumerate(w.witness):
            assert Z6.mul[Z6.mul[r][y]][r] == r

    def test_z4_failing_element(self):
        w = is_von_neumann_regular(Z4)
        assert not w.holds and w.failing == 2

    def test_fields_are_regular(self):
        assert is_von_neumann_regular(Z2).holds
        assert is_von_neumann_regular(F4).holds

    def test_regular_implies_s_unital(self, corpus):
        for entry in corpus.rings:
            T = entry.structure
            if is_von_neumann_regular(T).holds:
                assert is_s_unital(T)


class TestVnrCharacterization:
    @pytest.mark.parametrize("ring,expected", [
        (Z6, True), (Z4, False), (F4, True), (Z2, True),
        (product_ring(Z2, Z2), True), (cyclic_ring(8), False), (cyclic_ring(9), False),
    ])
    def test_three_way_agreement(self, ring, expected):
        rep = check_vnr_characterization(ring)
        assert rep["applicable"] and rep["agree"]
        assert rep["vnr"] is expected

    def test_z4_counterexample_ideal(self):
        rep = check_vnr_characterization(Z4)
        assert rep["vnr_failing"] == 2
        assert rep["principal_failing"]["ideal"] == [0, 2]

    def test_not_applicable_without_s_unitality(self):
        rep = check_vnr_characterization(EVEN8)
        assert not rep["applicable"]
        assert rep["left_failing"] is not None

    def test_right_side_on_noncommutative_ring(self):
        m = matrix_ring(Z2, 2)
        left = check_vnr_characterization(m, side="left")
        right = check_vnr_characterization(m, side="right")
        assert left["agree"] and right["agree"]
        assert left["vnr"] is True and right["vnr"] is True

    def test_opposite_ring_reverses_products(self):
        m = matrix_ring(Z2, 2)
        op = opposite_ring(m)
        assert all(op.mul[a][b] == m.mul[b][a]
                   for a in m.elements() for b in m.elements())


class TestTominaga:
    @pytest.mark.parametrize("ring", [Z2, Z4, Z6, F4, ZERO2, EVEN8,
                                      product_ring(Z2, Z2)])
    def test_equivalence(self, ring):
        rep = check_tominaga(ring)
        assert rep["agree"], rep

    @settings(max_examples=150, derandomize=True)
    @given(st.data())
    def test_random_subsets_have_common_units(self, data):
        T = data.draw(st.sampled_from([Z2, Z4, Z6, F4, cyclic_ring(8), cyclic_ring(9)]))
        size = data.draw(st.integers(1, 3))
        vs = data.draw(st.lists(st.integers(0, T.order - 1),
                                min_size=size, max_size=size))
        for side in ("left", "right"):
            u = common_unit(T, vs, side)
            assert u is not None
            for v in vs:
                assert (T.mul[u][v] if side == "left" else T.mul[v][u]) == v


def plain_span(group, gens):
    """Every sum of elements of ``gens``, by closing {0} under adding them."""
    span, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.add[x][g]
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


# the three inputs of the large-gradings benchmark workload
LARGE_GRADING_SPECS = [
    {"construct": "good_grading", "A": "Z9", "base": "Z2", "deg": [[0, 1], [1, 0]]},
    {"construct": "good_grading", "A": "Z3", "base": "trivial", "deg": [[0, 0], [0, 0]]},
    {"construct": "good_grading", "A": "Z3", "base": "Z3",
     "deg": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]},
]


def catalog_groups():
    names = sorted(set(catalog._RINGS) | set(default_manifest().rings))
    return [catalog.named_ring(name).additive for name in names]


class TestGenerators:
    """Validators accept tables on ``generators``, so they must span the
    group, and the greedy choice keeps each one outside the earlier span.
    ``tables.biadditive`` proves additivity on the spanning edges of the
    same growth, so they must be the edges of that presentation."""

    def check(self, group):
        assert ref.spanning_edge_fault(group) is None
        gens = group.generators
        assert plain_span(group, gens) == set(group.elements())
        assert list(gens) == sorted(gens)
        if group.order == 1:
            assert gens == (0,)
            return
        for i, g in enumerate(gens):
            assert g not in plain_span(group, gens[:i])

    def test_catalog_rings(self):
        for group in catalog_groups():
            self.check(group)

    def test_corpus_components(self, corpus):
        for entry in corpus.graded:
            for group in entry.graded.components:
                self.check(group)

    @pytest.mark.parametrize("spec", LARGE_GRADING_SPECS)
    def test_large_grading_components(self, spec):
        graded, _ = construction_from_json(spec)
        for group in graded.components:
            self.check(group)

    def test_cyclic_and_power_groups(self):
        assert cyclic_ring(12).additive.generators == (1,)
        assert product_ring(Z2, Z2).additive.generators == (1, 2)
        assert matrix_ring(Z2, 3).additive.generators == (1, 2, 4, 8, 16, 32, 64, 128, 256)


class TestAdditiveClosure:
    """``additive_closure`` grows {0} by cosets of the seeds; it must equal
    the breadth-first closure of reference_rings on any seed list."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_random_seed_lists(self, corpus, data):
        corpus_groups = [g for entry in corpus.graded for g in entry.graded.components]
        group = data.draw(st.sampled_from(closure_groups() + corpus_groups))
        seeds = data.draw(st.lists(st.integers(0, group.order - 1), max_size=6))
        assert additive_closure(group, seeds) == ref.additive_closure(group, seeds)

    @pytest.mark.parametrize("seeds", [[], [0], [0, 0], [1], [1, 1], [3, 1], [2, 0, 2],
                                       [5, 4, 3, 2, 1]])
    def test_edge_seed_lists(self, seeds):
        for group in (TRIVIAL_GROUP, Z4.additive, Z6.additive, product_ring(Z2, Z2).additive):
            inside = [x for x in seeds if x < group.order]
            assert additive_closure(group, inside) == ref.additive_closure(group, inside)


@cache
def closure_groups():
    """The trivial group, the catalog rings' groups and the large-gradings
    components."""
    return [TRIVIAL_GROUP, *catalog_groups(),
            *(g for spec in LARGE_GRADING_SPECS
              for g in construction_from_json(spec)[0].components)]
