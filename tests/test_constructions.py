from itertools import product

import numpy as np
import pytest

from grl.constructions import (
    bn_index,
    check_good_grading_prop,
    good_grading,
    groupoid_ring,
    matrix_bn_grading,
    matrix_units_semigroup,
    semigroup_ring,
    validate_degree_map,
)
from grl.errors import (
    DiagonalNotIdempotentError,
    IncompatibleDegreesError,
    OppositeDegreeError,
    OutOfRangeError,
)
from grl.gradings import (
    is_epsilon_strong,
    is_graded_vnr,
    is_strong,
    structurally_equal,
)
from grl.groupoids import group_groupoid, pair_groupoid
from grl.rings import cyclic_ring, field_f4, is_von_neumann_regular, unity
from grl.semigroups import (
    chain_semilattice,
    classify_semigroup,
    cyclic_group,
    idempotents,
    inverses,
    left_zero_semigroup,
    validate_semigroup,
)
from reference_semigroups import mul

Z2 = cyclic_ring(2)
Z4 = cyclic_ring(4)
Z6 = cyclic_ring(6)


class TestSemigroupRing:
    def test_components_copy_the_coefficients(self):
        R = semigroup_ring(Z2, left_zero_semigroup(2))
        assert [R.component(s).order for s in R.graders()] == [2, 2]
        assert is_strong(R).holds

    def test_graded_regularity_tracks_coefficients(self):
        assert is_graded_vnr(semigroup_ring(Z6, chain_semilattice(2))).holds
        assert not is_graded_vnr(semigroup_ring(Z4, chain_semilattice(2))).holds


class TestMatrixUnitsSemigroup:
    def test_b2(self):
        B = matrix_units_semigroup(2)
        assert B.order == 5
        assert idempotents(B) == (0, bn_index(2, 1, 1), bn_index(2, 2, 2))
        assert inverses(B, bn_index(2, 1, 2)) == (bn_index(2, 2, 1),)
        assert classify_semigroup(B).is_inverse

    def test_b1_is_the_two_element_semilattice(self):
        assert np.array_equal(matrix_units_semigroup(1).table, chain_semilattice(2).table)

    def test_b3_listing(self):
        B = matrix_units_semigroup(3)
        assert B.order == 10
        assert set(B.labels) == {"0"} | {f"e{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)}
        e12, e23, e13, e21 = (bn_index(3, 1, 2), bn_index(3, 2, 3),
                              bn_index(3, 1, 3), bn_index(3, 2, 1))
        assert mul(B, e12, e23) == e13
        assert mul(B, e12, e21) == bn_index(3, 1, 1)
        assert mul(B, e12, e13) == 0

    def test_inverses_transpose(self):
        for n in (2, 3):
            B = matrix_units_semigroup(n)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert inverses(B, bn_index(n, i, j)) == (bn_index(n, j, i),)


class TestMatrixBnGrading:
    @pytest.mark.parametrize("ring", [Z2, Z4, Z6, field_f4()])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_always_epsilon_strong(self, ring, n):
        assert is_epsilon_strong(matrix_bn_grading(ring, n)).holds

    def test_graded_regularity_tracks_coefficients(self):
        assert is_graded_vnr(matrix_bn_grading(Z2, 3)).holds
        assert not is_graded_vnr(matrix_bn_grading(Z4, 3)).holds

    def test_n1_shape(self):
        R = matrix_bn_grading(Z2, 1)
        assert [R.component(s).order for s in R.graders()] == [1, 2]

    def test_needs_unital_coefficients(self):
        from grl.rings import zero_multiplication_ring
        with pytest.raises(ValueError):
            matrix_bn_grading(zero_multiplication_ring(2), 2)


class TestDegreeMaps:
    def test_group_degree_map(self):
        dm = validate_degree_map(cyclic_group(2), [[0, 1], [1, 0]])
        assert dm.degree(1, 2) == 1

    def test_opposite_degree_violation(self):
        with pytest.raises(OppositeDegreeError) as exc:
            validate_degree_map(matrix_units_semigroup(2),
                                [[1, 2], [2, 4]])
        assert exc.value.context == (1, 2, 2, 2)
        assert str(exc.value) == "deg(2,1) = 2 but the inverse of deg(1,2) is 3"

    def test_diagonal_not_idempotent(self):
        with pytest.raises(DiagonalNotIdempotentError) as exc:
            validate_degree_map(cyclic_group(2), [[1, 1], [1, 1]])
        assert exc.value.context == (1, 1, 1)
        assert str(exc.value) == "deg(1,1) = 1 is not idempotent"
        with pytest.raises(DiagonalNotIdempotentError) as exc:
            validate_degree_map(cyclic_group(2), [[0, 1], [1, 1]])
        assert exc.value.context == (2, 2, 1)

    def test_incompatible_degrees(self):
        # diagonal and opposite laws hold, but deg(1,2)*deg(2,3) != deg(1,3)
        z2 = cyclic_group(2)
        with pytest.raises(IncompatibleDegreesError) as exc:
            validate_degree_map(z2, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert exc.value.context == (1, 2, 3)
        assert str(exc.value) == "deg(1,2)*deg(2,3) != deg(1,3)"

    @pytest.mark.parametrize("k", [2, 3])
    def test_first_incompatible_triple_in_scan_order(self, k):
        # every degree map over Z_k on a 4x4 grid that passes the diagonal
        # and opposite laws: zero diagonal, deg(j,i) = -deg(i,j)
        base = cyclic_group(k)
        upper = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        raised = 0
        for values in product(range(k), repeat=len(upper)):
            deg = [[0] * 4 for _ in range(4)]
            for (i, j), v in zip(upper, values):
                deg[i][j], deg[j][i] = v, (-v) % k
            expected = next(((i + 1, j + 1, l + 1)
                             for i, j, l in product(range(4), repeat=3)
                             if (deg[i][j] + deg[j][l]) % k != deg[i][l]), None)
            if expected is None:
                assert validate_degree_map(base, deg).deg == tuple(map(tuple, deg))
                continue
            with pytest.raises(IncompatibleDegreesError) as exc:
                validate_degree_map(base, deg)
            assert exc.value.context == expected
            raised += 1
        assert raised > 0

    def test_out_of_range_degree(self):
        with pytest.raises(OutOfRangeError):
            validate_degree_map(cyclic_group(2), [[0, 7], [7, 0]])

    def test_non_inverse_base_rejected(self):
        with pytest.raises(ValueError):
            validate_degree_map(left_zero_semigroup(2), [[0, 0], [0, 0]])


class TestGoodGrading:
    def test_group_grading_of_m2(self):
        dm = validate_degree_map(cyclic_group(2), [[0, 1], [1, 0]])
        gg = good_grading(Z2, dm)
        # identity component is the diagonal A e11 + A e22
        assert gg.graded.component(0).order == 4
        assert gg.cells[0] == ((1, 1), (2, 2))
        assert is_graded_vnr(gg.graded).holds

    def test_group_grading_over_z4_not_regular(self):
        dm = validate_degree_map(cyclic_group(2), [[0, 1], [1, 0]])
        gg = good_grading(Z4, dm)
        assert not is_graded_vnr(gg.graded).holds

    def test_unit_degree_map_reproduces_matrix_grading(self):
        dm = validate_degree_map(matrix_units_semigroup(2), [[1, 2], [3, 4]])
        gg = good_grading(Z2, dm)
        assert structurally_equal(gg.graded, matrix_bn_grading(Z2, 2))

    def test_report_pinned_verdicts(self):
        dm = validate_degree_map(cyclic_group(2), [[0, 1], [1, 0]])
        for A, expected in ((Z2, True), (Z4, False)):
            rep = check_good_grading_prop(good_grading(A, dm))
            assert rep["hypothesis_diagonal"] and rep["epsilon_strong"]
            assert rep["graded_vnr"] is expected
            assert rep["coefficient_vnr"] is expected
            assert rep["agree"]

    def test_trivial_grading_fails_hypothesis_but_stays_epsilon_strong(self):
        dm = validate_degree_map(validate_semigroup([[0]]), [[0, 0], [0, 0]])
        rep = check_good_grading_prop(good_grading(Z2, dm))
        assert not rep["hypothesis_diagonal"]
        assert rep["epsilon_strong"] and rep["agree"]
        assert not rep["equivalence"]["applicable"]
        # the lone component is the full matrix ring, which is regular over a field
        assert rep["graded_vnr"] and is_von_neumann_regular(
            good_grading(Z2, dm).graded.component_ring(0)).holds

    def test_components_above_the_order_bound(self):
        # the lone component of the trivial grading of M2(Z6) has order 6^4 = 1296
        dm = validate_degree_map(validate_semigroup([[0]]), [[0, 0], [0, 0]])
        with pytest.raises(ValueError, match=r"order 6\^4 is above MAX_RING_ORDER = 1024"):
            good_grading(Z6, dm)
        assert good_grading(Z4, dm).graded.component(0).order == 256


class TestGroupoidRing:
    def test_pair_groupoid_matches_matrix_grading_after_regrade(self):
        from grl.gradings import regrade_groupoid_to_semigroup
        R = groupoid_ring(Z2, pair_groupoid(2))
        assert structurally_equal(regrade_groupoid_to_semigroup(R),
                                  matrix_bn_grading(Z2, 2))

    def test_one_object_groupoid_gives_the_group_ring(self):
        R = groupoid_ring(Z4, group_groupoid(cyclic_group(2)))
        S = semigroup_ring(Z4, cyclic_group(2))
        assert ({key: P.tolist() for key, P in R.products.items()}
                == {key: P.tolist() for key, P in S.products.items()})
        assert [R.component(g).order for g in R.graders()] == [4, 4]

    def test_trivial_groupoid(self):
        R = groupoid_ring(Z2, pair_groupoid(1))
        assert R.n_graders == 1 and R.component(0).order == 2

    def test_unity_of_coefficients_survives(self):
        R = groupoid_ring(Z6, pair_groupoid(2))
        for e in R.base_idempotents():
            assert unity(R.component_ring(e)) == unity(Z6)
