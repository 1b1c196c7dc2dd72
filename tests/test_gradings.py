import numpy as np
import pytest

from grl import catalog, gradings
from grl.constructions import (
    bn_index,
    good_grading,
    groupoid_ring,
    matrix_bn_grading,
    matrix_units_semigroup,
    semigroup_ring,
    validate_degree_map,
)
from grl.errors import (
    BilinearityError,
    CodomainError,
    GradedAssociativityError,
    NonComposableProductError,
)
from grl.gradings import (
    base_components_vnr,
    check_corollaries,
    check_eps_characterizations,
    check_lemma_technical,
    check_prop_switch,
    check_theorem_groupoid,
    check_theorem_inverse_semigroup,
    check_theorem_main,
    is_epsilon_strong,
    is_graded_vnr,
    is_nearly_epsilon_strong,
    is_strong,
    is_symmetric,
    regrade_groupoid_to_semigroup,
    structurally_equal,
    validate_grading,
)
from grl.groupoids import group_groupoid, pair_groupoid
from grl.rings import TRIVIAL_GROUP, cyclic_ring, zero_multiplication_ring
from grl.semigroups import (
    chain_semilattice,
    cyclic_group,
    left_zero_semigroup,
    monogenic_semigroup,
    validate_semigroup,
)
import reference_tables
from reference_gradings import product
from reference_semigroups import mul

Z2 = cyclic_ring(2)
Z3 = cyclic_ring(3)
Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)
TRIVIAL_SG = validate_semigroup([[0]])

BN_Z2 = matrix_bn_grading(Z2, 3)
BN_Z4 = matrix_bn_grading(Z4, 3)
GROUP_RING_Z2 = semigroup_ring(Z2, cyclic_group(2))


def zero_mult_trivial_grading(n):
    """The additive group of the integers mod n graded by the one-element
    semigroup, with all products zero."""
    A = zero_multiplication_ring(n)
    return semigroup_ring(A, TRIVIAL_SG)


def all_zero_grading(base):
    return validate_grading(base, [TRIVIAL_GROUP] * base.order, {})


class TestValidation:
    def test_semigroup_ring_over_left_zero_is_valid(self):
        R = semigroup_ring(Z2, left_zero_semigroup(2))
        assert R.n_graders == 2
        assert all(R.component(s).order == 2 for s in R.graders())

    def test_matrix_unit_grading_is_valid(self):
        assert BN_Z2.n_graders == 10
        assert BN_Z2.component(0).order == 1

    def test_corrupted_product_breaks_associativity(self):
        R = semigroup_ring(Z2, left_zero_semigroup(2))
        products = {k: v.tolist() for k, v in R.products.items()}
        products[(0, 0)][1][1] = 0
        with pytest.raises(GradedAssociativityError):
            validate_grading(R.base, R.components, products)

    def test_codomain_violation(self):
        R = semigroup_ring(Z2, TRIVIAL_SG)
        products = {(0, 0): [[0, 0], [0, 5]]}
        with pytest.raises(CodomainError):
            validate_grading(R.base, R.components, products)

    def test_bilinearity_violation(self):
        base = TRIVIAL_SG
        comp = Z4.additive
        constant_one = [[1] * 4 for _ in range(4)]
        with pytest.raises(BilinearityError):
            validate_grading(base, [comp], {(0, 0): constant_one})

    def test_non_composable_product_rejected(self):
        G = pair_groupoid(2)
        R = groupoid_ring(Z2, G)
        products = dict(R.products)
        products[(1, 1)] = Z2.mul  # (0,1) cannot follow (0,1)
        with pytest.raises(NonComposableProductError):
            validate_grading(G, R.components, products)


def full_scan_triples(R):
    """Every grader triple with st and tu defined where (ab)c or a(bc) has
    both of its tables stored, by a plain walk over all triples."""
    target, stored = R.base.relations.targets, R.products
    return [(s, t, u) for (s, t) in R.base_pairs() for u in R.graders()
            if target[t][u] is not None
            and ((s, t) in stored and (target[s][t], u) in stored
                 or (t, u) in stored and (s, target[t][u]) in stored)]


class TestAssociativityTriples:
    def test_matrix_units_give_n_to_the_fourth_triples(self):
        # B_3 has 10 graders, 1,000 triples; only e_ij e_jl e_lm have a side
        assert BN_Z2.n_graders ** 3 == 1000
        assert len(gradings._associativity_triples(BN_Z2)) == 3 ** 4

    def test_the_corpus_gets_the_triples_of_the_full_scan(self, corpus):
        rings = [entry.graded for entry in corpus.graded]
        rings += [regrade_groupoid_to_semigroup(R) for R in rings
                  if R.base_kind == "groupoid"]
        assert any(R.base_kind == "groupoid" for R in rings)
        for R in rings:
            assert gradings._associativity_triples(R) == full_scan_triples(R)

    @pytest.mark.parametrize("dropped", [0, 1, 2])
    def test_a_side_of_its_own_is_enough(self, corpus, dropped):
        # the corpus stores (ab)c whenever it stores a(bc); a third of the
        # tables left out, unvalidated, gives triples with one side only
        sides = {"left": 0, "right": 0}
        for entry in corpus.graded:
            R = entry.graded
            products = {key: R.products[key] for i, key in enumerate(sorted(R.products))
                        if i % 3 != dropped}
            thinned = gradings.GradedRing(base=R.base, components=R.components,
                                          products=products)
            triples = gradings._associativity_triples(thinned)
            assert triples == full_scan_triples(thinned)
            for (s, t, u) in triples:
                sides["left"] += (s, t) not in products
                sides["right"] += (t, u) not in products
        assert sides["left"] and sides["right"]


def outcome(base, components, products):
    try:
        validate_grading(base, components, products)
    except (BilinearityError, GradedAssociativityError) as err:
        return (type(err), err.context)
    return None


class TestDistinctChecks:
    """validate_grading runs each check once per distinct table, components
    and triple of tables, and still finds every violation."""

    @pytest.mark.parametrize("make,tables,checks", [
        (lambda: semigroup_ring(Z2, catalog.named_semigroup("B2")), 1, (1, 1)),
        (lambda: semigroup_ring(Z4, catalog.named_semigroup("monogenic22")), 1, (1, 1)),
        (lambda: matrix_bn_grading(Z6, 3), 1, (1, 1)),
        (lambda: groupoid_ring(Z2, catalog.named_groupoid("pair3")), 1, (1, 1)),
        (lambda: good_grading(Z3, validate_degree_map(
            catalog.named_semigroup("Z3"), [[0, 1, 2], [2, 0, 1], [1, 2, 0]])).graded,
         3, (3, 9)),
    ], ids=["Z2[B2]", "Z4[monogenic22]", "M3(Z6)/B3", "Z2[pair3]", "M3(Z3)/Z3"])
    def test_each_distinct_check_runs_once(self, make, tables, checks, monkeypatch):
        # in the first four every stored table is A's multiplication over A's
        # additive group; the good grading has three tables over one A^3.  A
        # check per pair and per triple runs 25/125, 4/8, 27/81, 27/81 and
        # 9/27 times here
        calls = {"biadditive": 0, "agree_on_generators": 0}
        for name in calls:
            def counted(*args, _name=name, _check=getattr(gradings, name)):
                calls[_name] += 1
                return _check(*args)
            monkeypatch.setattr(gradings, name, counted)
        R = make()
        assert (calls["biadditive"], calls["agree_on_generators"]) == checks
        assert len({id(table) for table in R.products.values()}) == tables

    def test_equal_tables_are_one_object_and_one_array(self):
        products = {key: Z2.mul.tolist() for key in GROUP_RING_Z2.products}
        R = validate_grading(GROUP_RING_Z2.base, GROUP_RING_Z2.components, products)
        assert len({id(table) for table in R.products.values()}) == 1
        assert len({id(R.table(s, t)) for (s, t) in R.products}) == 1

    def test_one_table_object_is_checked_against_each_pair_it_fills(self):
        # Z4's multiplication fits R_0 R_0 -> R_0 = Z4, not R_1 R_1 -> R_0
        # with R_1 = Z2: the same object passes for (0, 0) and fails for (1, 1)
        components = [Z4.additive, Z2.additive]
        with pytest.raises(CodomainError, match=r"product \(1, 1\) has 4 rows, expected 2"):
            validate_grading(cyclic_group(2), components, {(0, 0): Z4.mul, (1, 1): Z4.mul})

    def test_shared_arrays_are_read_only(self):
        P = BN_Z2.table(bn_index(3, 1, 2), bn_index(3, 2, 1))
        with pytest.raises(ValueError):
            P[1, 1] = 0
        assert P[1, 1] == 1

    def test_one_changed_table_among_shared_ones(self):
        # Z2[chain3] with the table of (0, 1) zeroed: still bi-additive, and
        # (0, 1, 0) is the one triple it breaks, (ab)c = 0 against a(bc) = 1;
        # the other 26 triples share the tables of Z2
        S = catalog.named_semigroup("chain3")
        R = semigroup_ring(Z2, S)
        products = dict(R.products)
        products[(0, 1)] = [[0, 0], [0, 0]]
        expected = reference_tables.grading_violation(S, R.components, products)
        assert expected == (GradedAssociativityError, (0, 1, 0, 1, 1, 1))
        assert outcome(S, R.components, products) == expected

    def test_the_components_are_part_of_the_key(self):
        # one table object for (1, 1) over Z4 and for (2, 2) over Z2xZ2, both
        # into R_0 = Z4 of a null semigroup, where no triple has a side with
        # both tables stored: Z4's product is bi-additive over Z4 only
        null = validate_semigroup([[0] * 3] * 3)
        components = [Z4.additive, Z4.additive, catalog.named_ring("Z2xZ2").additive]
        assert components[2].order == components[1].order
        products = {(1, 1): Z4.mul, (2, 2): Z4.mul}
        expected = reference_tables.grading_violation(null, components, products)
        assert expected[0] is BilinearityError and expected[1][:2] == (2, 2)
        assert outcome(null, components, products) == expected
        assert outcome(null, components, {(1, 1): Z4.mul}) is None


class TestProductSubgroups:
    def test_matrix_units_product(self):
        e12, e21, e11 = bn_index(3, 1, 2), bn_index(3, 2, 1), bn_index(3, 1, 1)
        span = BN_Z2.span(e12, e21)
        assert span.elements() == (0, 1)
        assert BN_Z2.target(e12, e21) == e11

    def test_zero_multiplication_product(self):
        R = zero_mult_trivial_grading(4)
        assert R.span(0, 0).elements() == (0,)

    def test_group_ring_product(self):
        span = GROUP_RING_Z2.span(1, 1)
        assert span.elements() == (0, 1)


class TestGradingClasses:
    def test_matrix_unit_grading_is_symmetric(self):
        assert is_symmetric(BN_Z2).holds

    def test_zero_multiplication_not_symmetric(self):
        v = is_symmetric(zero_mult_trivial_grading(2))
        assert not v.holds and v.failing == (0, 0)

    def test_all_zero_components_symmetric(self):
        assert is_symmetric(all_zero_grading(matrix_units_semigroup(2))).holds

    def test_semigroup_ring_strong_for_unital_coefficients(self):
        for base in (left_zero_semigroup(2), chain_semilattice(2), cyclic_group(2)):
            assert is_strong(semigroup_ring(Z6, base)).holds

    def test_semigroup_ring_not_strong_for_zero_coefficients(self):
        R = semigroup_ring(zero_multiplication_ring(2), left_zero_semigroup(2))
        assert not is_strong(R).holds

    def test_matrix_unit_grading_strong_verdict_matches_pair_scan(self):
        # independent oracle: direct pair scan without the subgroup machinery
        R = BN_Z2
        expected = True
        for s in R.graders():
            for t in R.graders():
                st = mul(R.base, s, t)
                hit = {product(R, s, t, a, b)
                       for a in range(R.component(s).order)
                       for b in range(R.component(t).order)}
                reachable = set(hit)
                changed = True
                while changed:
                    changed = False
                    for x in list(reachable):
                        for y in list(reachable):
                            z = R.component(st).add[x][y]
                            if z not in reachable:
                                reachable.add(z)
                                changed = True
                if reachable != set(range(R.component(st).order)):
                    expected = False
        assert is_strong(R).holds == expected == True  # noqa: E712

    def test_all_zero_grading_strong(self):
        assert is_strong(all_zero_grading(matrix_units_semigroup(2))).holds

    def test_epsilon_strong_with_witness(self):
        v = is_epsilon_strong(BN_Z2)
        assert v.holds
        e12, e21 = bn_index(3, 1, 2), bn_index(3, 2, 1)
        assert v.witness[(e12, e21)] == (1, 1)  # the unit coefficient

    def test_group_ring_epsilon_strong(self):
        v = is_epsilon_strong(GROUP_RING_Z2)
        assert v.holds and v.witness[(1, 1)] == (1, 1)

    def test_zero_multiplication_not_epsilon_strong(self):
        assert not is_epsilon_strong(zero_mult_trivial_grading(2)).holds

    def test_epsilon_witness_fixes_components(self):
        for R in (BN_Z2, GROUP_RING_Z2, matrix_bn_grading(Z6, 2)):
            v = is_epsilon_strong(R)
            assert v.holds
            for (s, t), (eps, eps_prime) in v.witness.items():
                st, ts = R.target(s, t), R.target(t, s)
                for r in R.component(s).elements():
                    assert product(R, st, s, eps, r) == r
                    assert product(R, s, ts, r, eps_prime) == r

    def test_nearly_epsilon_strong(self):
        assert is_nearly_epsilon_strong(BN_Z2).holds
        assert is_nearly_epsilon_strong(semigroup_ring(Z6, chain_semilattice(2))).holds
        assert not is_nearly_epsilon_strong(zero_mult_trivial_grading(2)).holds

    def test_per_element_witness_verifies(self):
        v = is_nearly_epsilon_strong(semigroup_ring(Z6, chain_semilattice(2)))
        assert v.holds and v.witness is not None
        R = semigroup_ring(Z6, chain_semilattice(2))
        for (s, t, r), (eps, eps_prime) in v.witness.items():
            st, ts = R.target(s, t), R.target(t, s)
            assert product(R, st, s, eps, r) == r
            assert product(R, s, ts, r, eps_prime) == r


class TestEpsCharacterizations:
    @pytest.mark.parametrize("make,expected", [
        (lambda: BN_Z2, True),
        (lambda: GROUP_RING_Z2, True),
        (lambda: zero_mult_trivial_grading(2), False),
    ])
    def test_sides_agree(self, make, expected):
        rep = check_eps_characterizations(make())
        assert rep["agree"]
        assert rep["epsilon_strong"]["definition"] is expected
        assert rep["nearly_epsilon_strong"]["definition"] is expected

    def test_unit_components_include_zero_component(self):
        rep = check_eps_characterizations(BN_Z2)
        assert rep["unit_components"]["checked"] and rep["unit_components"]["holds"]
        # the zero grader carries the one-element ring, whose unity is 0
        assert rep["unit_components"]["unities"]["0"] == 0


class TestGradedRegularity:
    def test_matrix_unit_grading_over_field(self):
        v = is_graded_vnr(BN_Z2)
        assert v.holds and not v.vacuous

    def test_matrix_unit_grading_over_z4_failing_triple(self):
        v = is_graded_vnr(BN_Z4)
        e11 = bn_index(3, 1, 1)
        assert not v.holds and v.failing == (e11, 2, e11)

    def test_witnesses_verify(self):
        R = BN_Z2
        v = is_graded_vnr(R)
        for (s, r, t), y in v.witness.items():
            st = R.target(s, t)
            assert product(R, st, s, product(R, s, t, r, y), r) == r

    def test_vacuous_when_inverse_free_graders_carry_everything(self):
        # base {a, a^2} with a^3 = a^2: V(a) is empty, so putting the only
        # nontrivial component at a makes the quantifier vacuous
        base = monogenic_semigroup(2, 1)
        components = [Z2.additive, TRIVIAL_GROUP]
        R = validate_grading(base, components, {})
        v = is_graded_vnr(R)
        assert v.holds and v.vacuous

    def test_all_zero_components_vacuously_regular(self):
        v = is_graded_vnr(all_zero_grading(matrix_units_semigroup(2)))
        assert v.holds and v.vacuous

    def test_base_components(self):
        assert base_components_vnr(BN_Z2).holds
        v = base_components_vnr(BN_Z4)
        assert not v.holds and v.failing == (bn_index(3, 1, 1), 2)
        assert base_components_vnr(GROUP_RING_Z2).holds


class TestTheoremMain:
    @pytest.mark.parametrize("make,expected", [
        (lambda: BN_Z2, True),
        (lambda: BN_Z4, False),
        (lambda: semigroup_ring(Z6, chain_semilattice(2)), True),
        (lambda: semigroup_ring(Z4, chain_semilattice(2)), False),
        (lambda: zero_mult_trivial_grading(4), False),
    ])
    def test_agreement(self, make, expected):
        rep = check_theorem_main(make())
        assert rep["applicable"] and rep["agree"]
        assert rep["graded_vnr"] is expected and rep["rhs"] is expected

    def test_not_applicable_for_groupoid_base(self):
        rep = check_theorem_main(groupoid_ring(Z2, pair_groupoid(2)))
        assert not rep["applicable"]


class TestLemmaTechnical:
    def test_matrix_unit_witness(self):
        rep = check_lemma_technical(BN_Z2)
        assert rep["applicable"] and rep["holds"]
        e12, e21 = bn_index(3, 1, 2), bn_index(3, 2, 1)
        w = [x for x in rep["witnesses"] if (x["s"], x["t"], x["r"]) == (e12, e21, 1)]
        # the subgroup R_{e21} * e12 is all of the component at e22,
        # generated by the idempotent e22 (coefficient 1)
        assert w == [{"s": e12, "t": e21, "r": 1, "idempotent": 1, "ideal": [0, 1]}]

    def test_group_ring_witness(self):
        rep = check_lemma_technical(GROUP_RING_Z2)
        w = [x for x in rep["witnesses"] if (x["s"], x["r"]) == (1, 1)]
        assert w and w[0]["idempotent"] == 1  # the identity coefficient delta_e

    def test_zero_element_uses_zero_idempotent(self):
        rep = check_lemma_technical(GROUP_RING_Z2)
        w = [x for x in rep["witnesses"] if x["r"] == 0]
        assert w and all(x["idempotent"] == 0 and x["ideal"] == [0] for x in w)

    def test_precondition_failure_reported(self):
        rep = check_lemma_technical(BN_Z4)
        assert not rep["applicable"]
        assert rep["base_components_vnr"] is False


class TestTheoremInverseSemigroup:
    def test_matrix_unit_grading(self):
        rep = check_theorem_inverse_semigroup(BN_Z2)
        assert rep["applicable"] and rep["agree"]
        assert rep["all_inverses_form"] and rep["some_inverse_form"] \
            and rep["structural_form"]

    def test_failing_grading(self):
        rep = check_theorem_inverse_semigroup(semigroup_ring(Z4, chain_semilattice(2)))
        assert rep["applicable"] and rep["agree"]
        assert not rep["all_inverses_form"]

    def test_all_zero_components_over_matrix_units(self):
        rep = check_theorem_inverse_semigroup(all_zero_grading(matrix_units_semigroup(2)))
        assert rep["applicable"] and rep["agree"] and rep["all_inverses_form"]

    def test_non_inverse_base_is_skipped(self):
        rep = check_theorem_inverse_semigroup(semigroup_ring(Z2, left_zero_semigroup(2)))
        assert not rep["applicable"]


class TestCorollaries:
    def test_epsilon_strong_case(self):
        rep = check_corollaries(matrix_bn_grading(Z6, 3))
        assert rep["epsilon_strong_case"]["applicable"]
        assert rep["epsilon_strong_case"]["graded_vnr"] is True
        assert rep["agree"]

    def test_strong_case(self):
        rep = check_corollaries(semigroup_ring(Z4, chain_semilattice(2)))
        assert rep["strong_case"]["applicable"]
        assert rep["strong_case"]["regularity"]["graded_vnr"] is False
        assert rep["agree"]

    def test_skipped_when_neither_applies(self):
        rep = check_corollaries(zero_mult_trivial_grading(2))
        assert not rep["epsilon_strong_case"]["applicable"]
        assert not rep["strong_case"]["applicable"]
        assert rep["agree"]


class TestGroupoidGradings:
    def test_regrade_group_ring(self):
        R = groupoid_ring(Z2, group_groupoid(cyclic_group(2)))
        regraded = regrade_groupoid_to_semigroup(R)
        assert regraded.base_kind == "semigroup"
        assert regraded.base.order == 3
        assert regraded.component(0).order == 1
        assert regraded.component(1).order == 2

    def test_regrade_trivial_groupoid(self):
        R = groupoid_ring(Z2, pair_groupoid(1))
        regraded = regrade_groupoid_to_semigroup(R)
        assert np.array_equal(regraded.base.table, chain_semilattice(2).table)
        assert regraded.component(0).order == 1

    def test_regrade_pair_groupoid_matches_matrix_units(self):
        R = groupoid_ring(Z2, pair_groupoid(2))
        assert structurally_equal(regrade_groupoid_to_semigroup(R),
                                  matrix_bn_grading(Z2, 2))

    def test_switch_agreement(self):
        for A, G in ((Z2, pair_groupoid(2)),
                     (Z2, group_groupoid(cyclic_group(2))),
                     (zero_multiplication_ring(2), group_groupoid(cyclic_group(2)))):
            rep = check_prop_switch(groupoid_ring(A, G))
            assert rep["applicable"] and rep["agree"]

    def test_theorem_groupoid_pinned(self):
        good = check_theorem_groupoid(groupoid_ring(Z2, pair_groupoid(2)))
        assert good["agree"] and good["span_membership_form"]
        bad = check_theorem_groupoid(groupoid_ring(Z4, pair_groupoid(2)))
        assert bad["agree"] and not bad["span_membership_form"]

    def test_theorem_groupoid_all_zero_components(self):
        G = pair_groupoid(2)
        R = validate_grading(G, [TRIVIAL_GROUP] * 4, {})
        rep = check_theorem_groupoid(R)
        assert rep["agree"] and rep["span_membership_form"]

    def test_groupoid_theorem_matches_regraded_inverse_theorem(self):
        for A in (Z2, Z4, Z6):
            R = groupoid_ring(A, pair_groupoid(2))
            direct = check_theorem_groupoid(R)
            via_semigroup = check_theorem_inverse_semigroup(
                regrade_groupoid_to_semigroup(R))
            assert direct["applicable"] and via_semigroup["applicable"]
            assert direct["span_membership_form"] == via_semigroup["all_inverses_form"]
