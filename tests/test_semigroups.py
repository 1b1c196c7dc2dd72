import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grl import semigroups
from grl.errors import NotAssociativeError, OutOfRangeError
from grl.semigroups import (
    chain_semilattice,
    classify_semigroup,
    cyclic_group,
    draw_order4_tables,
    enumerate_semigroups,
    idempotents,
    identity_element,
    inverses,
    isomorphic_under,
    left_zero_semigroup,
    monogenic_semigroup,
    sample_semigroups,
    validate_semigroup,
    weak_inverses,
)
from grl.constructions import matrix_units_semigroup


L2 = left_zero_semigroup(2)
B2 = matrix_units_semigroup(2)
Z2 = cyclic_group(2)
MONO = monogenic_semigroup(2, 1)  # {a, a^2} with a^3 = a^2


class TestValidation:
    def test_left_zero_table_is_valid(self):
        S = validate_semigroup([[0, 0], [1, 1]])
        assert S.order == 2

    def test_trivial_table_is_valid(self):
        assert validate_semigroup([[0]]).order == 1

    def test_non_associative_table_carries_witness(self):
        with pytest.raises(NotAssociativeError) as exc:
            validate_semigroup([[1, 0], [0, 0]])
        a, b, c = exc.value.context
        # re-check the reported triple against the raw table
        t = [[1, 0], [0, 0]]
        assert t[t[a][b]][c] != t[a][t[b][c]]

    def test_out_of_range_entry(self):
        with pytest.raises(OutOfRangeError):
            validate_semigroup([[0, 2], [1, 1]])

    def test_ragged_table(self):
        with pytest.raises(OutOfRangeError):
            validate_semigroup([[0, 0], [1]])


class TestElementSets:
    def test_idempotents_left_zero(self):
        assert idempotents(L2) == (0, 1)

    def test_idempotents_group(self):
        assert idempotents(Z2) == (0,)

    def test_idempotents_matrix_units(self):
        # 0, e11 and e22 at indices 0, 1, 4
        assert idempotents(B2) == (0, 1, 4)

    def test_weak_inverses_left_zero(self):
        assert weak_inverses(L2, 0) == (0, 1)

    def test_weak_inverses_monogenic_empty(self):
        assert weak_inverses(MONO, 0) == ()

    def test_weak_inverses_group(self):
        assert weak_inverses(Z2, 1) == (1,)

    def test_inverses_matrix_units(self):
        e12, e21 = 2, 3
        assert inverses(B2, e12) == (e21,)

    def test_inverses_left_zero(self):
        assert inverses(L2, 0) == (0, 1)

    def test_inverses_group(self):
        z3 = cyclic_group(3)
        assert all(inverses(z3, s) == ((-s) % 3,) for s in z3.elements())


class TestClassification:
    def test_matrix_units(self):
        cls = classify_semigroup(B2)
        assert cls.is_regular and cls.is_inverse and not cls.is_group

    def test_left_zero(self):
        cls = classify_semigroup(L2)
        assert cls.is_regular and not cls.is_inverse
        assert len(cls.inverse_sets[0]) == 2

    def test_monogenic_not_regular(self):
        cls = classify_semigroup(MONO)
        assert not cls.is_regular and weak_inverses(MONO, 0) == ()

    def test_group(self):
        cls = classify_semigroup(cyclic_group(4))
        assert cls.is_group and cls.is_inverse and cls.is_regular

    def test_semilattice_is_inverse(self):
        cls = classify_semigroup(chain_semilattice(3))
        assert cls.is_inverse and not cls.is_group
        assert cls.idempotents == (0, 1, 2)

    def test_identity_element(self):
        assert identity_element(Z2) == 0
        assert identity_element(L2) is None


class TestEnumeration:
    # associative-table counts computed once by the exhaustive filter and frozen
    @pytest.mark.parametrize("order,count", [(1, 1), (2, 8), (3, 113)])
    def test_associative_table_counts(self, order, count):
        assert sum(1 for _ in enumerate_semigroups(order)) == count

    def test_enumeration_is_lexicographic(self):
        tables = [S.table for S in enumerate_semigroups(2)]
        assert tables == sorted(tables)

    def test_sampling_is_deterministic_and_valid(self):
        a = sample_semigroups(4, 3, seed=11)
        b = sample_semigroups(4, 3, seed=11)
        assert [s.table for s in a] == [s.table for s in b]
        for s in a:
            validate_semigroup([list(row) for row in s.table])

    def test_sampling_respects_seed(self):
        a = sample_semigroups(4, 2, seed=1)
        b = sample_semigroups(4, 2, seed=2)
        assert [s.table for s in a] != [s.table for s in b]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 11, 20250810])
    def test_raw_word_draws_match_generator_integers(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        bits = np.random.PCG64(seed)
        for count in (1, 7, 65536, 3):
            got = draw_order4_tables(bits, count)
            assert got.dtype == np.uint8 and got.shape == (count, 4, 4)
            want = rng.integers(0, 4, size=(count, 4, 4), dtype=np.int64)
            assert np.array_equal(got, want)

    def test_sampling_does_not_depend_on_the_batch(self, monkeypatch):
        want = [S.table for S in sample_semigroups(4, 4, 20250810)]
        monkeypatch.setattr(semigroups, "SAMPLE_BATCH", 8192)
        assert [S.table for S in sample_semigroups(4, 4, 20250810)] == want

    @pytest.mark.parametrize("order", [3, 5])
    def test_sampling_draws_order_4_only(self, order):
        with pytest.raises(ValueError):
            sample_semigroups(order, 1, seed=0)

    @pytest.mark.parametrize("count", [0, -1])
    def test_sampling_nothing(self, count):
        assert sample_semigroups(4, count, seed=0) == []


ALL_ORDER3 = list(enumerate_semigroups(3))


class TestInvariants:
    @settings(max_examples=200, derandomize=True)
    @given(st.data())
    def test_inverse_relation_is_symmetric(self, data):
        S = data.draw(st.sampled_from(ALL_ORDER3))
        s = data.draw(st.integers(0, S.order - 1))
        x = data.draw(st.integers(0, S.order - 1))
        assert (x in inverses(S, s)) == (s in inverses(S, x))

    @settings(max_examples=200, derandomize=True)
    @given(st.data())
    def test_products_with_inverses_are_idempotent(self, data):
        S = data.draw(st.sampled_from(ALL_ORDER3))
        s = data.draw(st.integers(0, S.order - 1))
        for t in inverses(S, s):
            assert S.mul(S.mul(s, t), S.mul(s, t)) == S.mul(s, t)
            assert S.mul(S.mul(t, s), S.mul(t, s)) == S.mul(t, s)

    @settings(max_examples=100, derandomize=True)
    @given(st.data())
    def test_inverse_implies_regular(self, data):
        S = data.draw(st.sampled_from(ALL_ORDER3))
        cls = classify_semigroup(S)
        if cls.is_inverse:
            assert cls.is_regular

    def test_inverse_sets_inside_weak_inverse_sets(self):
        for S in ALL_ORDER3[:40]:
            for s in S.elements():
                assert set(inverses(S, s)) <= set(weak_inverses(S, s))


class TestIsomorphism:
    def test_identity_permutation(self):
        assert isomorphic_under(B2, B2, list(range(B2.order)))

    def test_swap_on_left_zero(self):
        assert isomorphic_under(L2, L2, [1, 0])

    def test_non_isomorphism(self):
        assert not isomorphic_under(L2, chain_semilattice(2), [0, 1])
