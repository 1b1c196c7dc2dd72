import numpy as np
import pytest

from grl.constructions import bn_index, matrix_units_semigroup
from grl.errors import (
    IdentityViolationError,
    InverseViolationError,
    NotAssociativeError,
    NotComposableClosedError,
    OutOfRangeError,
)
from grl.groupoids import (
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    to_inverse_semigroup,
    validate_groupoid,
)
from grl.semigroups import (
    chain_semilattice,
    classify_semigroup,
    cyclic_group,
    idempotents,
    inverses,
    isomorphic_under,
)
from reference_semigroups import mul


class TestValidation:
    def test_one_object_group_is_a_groupoid(self):
        G = group_groupoid(cyclic_group(2))
        assert G.n_objects == 1 and G.n_morphisms == 2
        assert G.identity == (0,)

    def test_pair_groupoid(self):
        G = pair_groupoid(2)
        assert G.n_morphisms == 4
        # identities are (0,0) and (1,1)
        assert G.identity == (0, 3)
        # (0,1)(1,0) = (0,0)
        assert G.compose(1, 2) == 0

    def test_inverse_set_to_identity_map_fails(self):
        G = pair_groupoid(2)
        compose = {(g, h): G.compose(g, h) for (g, h) in G.composable_pairs()}
        with pytest.raises(InverseViolationError):
            validate_groupoid(2, G.dom, G.cod, list(range(4)), compose)

    def test_missing_composite(self):
        G = pair_groupoid(2)
        compose = {(g, h): G.compose(g, h) for (g, h) in G.composable_pairs()}
        del compose[(1, 2)]
        with pytest.raises(NotComposableClosedError):
            validate_groupoid(2, G.dom, G.cod, G.inv, compose)

    def test_extra_composite_at_non_composable_pair(self):
        G = pair_groupoid(2)
        compose = {(g, h): G.compose(g, h) for (g, h) in G.composable_pairs()}
        compose[(1, 1)] = 0  # (0,1) cannot follow (0,1)
        with pytest.raises(NotComposableClosedError):
            validate_groupoid(2, G.dom, G.cod, G.inv, compose)

    def test_object_without_identity(self):
        with pytest.raises(IdentityViolationError):
            validate_groupoid(2, [0], [0], [0], {(0, 0): 0})

    def test_broken_associativity(self):
        z4 = cyclic_group(4)
        compose = {(a, b): mul(z4, a, b) for a in range(4) for b in range(4)}
        compose[(1, 1)] = 3  # identity and inverse laws still hold
        with pytest.raises(NotAssociativeError):
            validate_groupoid(1, [0] * 4, [0] * 4, [0, 3, 2, 1], compose)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            validate_groupoid(1, [0, 5], [0, 0], [0, 1], {})

    @pytest.mark.parametrize("labels", [["a", "b", "c"], []])
    def test_object_labels_must_number_the_objects(self, labels):
        with pytest.raises(OutOfRangeError, match=f"expected 1 object labels, got {len(labels)}"):
            validate_groupoid(1, [0], [0], [0], {(0, 0): 0}, object_labels=labels)
        G = validate_groupoid(1, [0], [0], [0], {(0, 0): 0}, object_labels=["a"])
        assert G.object_labels == ("a",)

    @pytest.mark.parametrize("field", ["object_labels", "morphism_labels"])
    def test_a_string_is_not_a_list_of_labels(self, field):
        with pytest.raises(OutOfRangeError, match="labels must be a list"):
            validate_groupoid(1, [0], [0], [0], {(0, 0): 0}, **{field: "a"})

    def test_compose_is_a_plain_int_and_refuses_non_composable_pairs(self):
        G = disjoint_union(pair_groupoid(2), group_groupoid(cyclic_group(2)))
        pairs = set(G.composable_pairs())
        for g in G.morphisms():
            for h in G.morphisms():
                if (g, h) in pairs:
                    assert type(G.compose(g, h)) is int
                else:
                    with pytest.raises(ValueError, match="not composable"):
                        G.compose(g, h)


class TestAdjoinedZeroSemigroup:
    def test_group_gains_absorbing_zero(self):
        S, embedding = to_inverse_semigroup(group_groupoid(cyclic_group(2)))
        assert S.order == 3 and embedding == (1, 2)
        assert all(mul(S, 0, x) == 0 == mul(S, x, 0) for x in S.elements())
        assert classify_semigroup(S).is_inverse

    def test_pair_groupoid_matches_matrix_units(self):
        for n in (1, 2, 3):
            G = pair_groupoid(n)
            S, embedding = to_inverse_semigroup(G)
            B = matrix_units_semigroup(n)
            perm = [0] * S.order
            for g in G.morphisms():
                i, j = G.cod[g], G.dom[g]
                perm[embedding[g]] = bn_index(n, i + 1, j + 1)
            assert isomorphic_under(S, B, perm)

    def test_trivial_groupoid_gives_two_element_semilattice(self):
        S, _ = to_inverse_semigroup(pair_groupoid(1))
        assert np.array_equal(S.table, chain_semilattice(2).table)

    def test_inverse_sets_in_adjoined_semigroup(self):
        G = pair_groupoid(2)
        S, embedding = to_inverse_semigroup(G)
        assert inverses(S, 0) == (0,)
        for g in G.morphisms():
            assert inverses(S, embedding[g]) == (embedding[G.inv[g]],)

    def test_idempotents_are_zero_plus_identities(self):
        G = disjoint_union(pair_groupoid(2), group_groupoid(cyclic_group(2)))
        S, embedding = to_inverse_semigroup(G)
        expected = (0,) + tuple(sorted(embedding[i] for i in G.identity))
        assert idempotents(S) == expected

    def test_disjoint_union_is_inverse(self):
        G = disjoint_union(pair_groupoid(2), group_groupoid(cyclic_group(3)))
        S, _ = to_inverse_semigroup(G)
        assert classify_semigroup(S).is_inverse
