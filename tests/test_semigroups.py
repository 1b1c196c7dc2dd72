import sys
import threading
import time

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
    inverses,
    isomorphic_under,
    left_zero_semigroup,
    monogenic_semigroup,
    sample_semigroups,
    validate_semigroup,
    weak_inverses,
)
from grl.constructions import matrix_units_semigroup
from reference_semigroups import mul


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

    def test_labels_must_number_the_elements(self):
        assert validate_semigroup([[0, 1], [1, 0]], labels=["e", "a"]).labels == ("e", "a")
        with pytest.raises(OutOfRangeError, match="expected 2 labels, got 3"):
            validate_semigroup([[0, 1], [1, 0]], labels=["e", "a", "b"])

    def test_a_string_is_not_a_list_of_labels(self):
        # it would be read one character a label, as ("a", "b")
        with pytest.raises(OutOfRangeError, match="labels must be a list"):
            validate_semigroup([[0, 1], [1, 0]], labels="ab")


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
        assert Z2.relations.identity == 0
        assert L2.relations.identity is None


class TestEnumeration:
    # associative-table counts computed once by the exhaustive filter and frozen
    @pytest.mark.parametrize("order,count", [(1, 1), (2, 8), (3, 113)])
    def test_associative_table_counts(self, order, count):
        assert sum(1 for _ in enumerate_semigroups(order)) == count

    @pytest.mark.parametrize("order", [0, -1, -5])
    def test_no_semigroup_below_order_one(self, order):
        # order 0 would otherwise give one empty table, which validation refuses
        assert list(enumerate_semigroups(order)) == []

    def test_enumeration_is_lexicographic(self):
        tables = [S.table.tolist() for S in enumerate_semigroups(2)]
        assert tables == sorted(tables)

    def test_sampling_is_deterministic_and_valid(self):
        a = sample_semigroups(3, seed=11)
        b = sample_semigroups(3, seed=11)
        assert [s.table.tolist() for s in a] == [s.table.tolist() for s in b]
        for s in a:
            validate_semigroup(s.table.tolist())

    def test_sampling_respects_seed(self):
        a = sample_semigroups(2, seed=1)
        b = sample_semigroups(2, seed=2)
        assert [s.table.tolist() for s in a] != [s.table.tolist() for s in b]

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
        want = [S.table.tolist() for S in sample_semigroups(4, 20250810)]
        monkeypatch.setattr(semigroups, "SAMPLE_BATCH", 8192)
        assert [S.table.tolist() for S in sample_semigroups(4, 20250810)] == want

    @pytest.mark.parametrize("batch", [8192, 65_536])
    def test_tables_scanned_is_the_stream_position(self, monkeypatch, batch):
        monkeypatch.setattr(semigroups, "SAMPLE_BATCH", batch)
        work = {}
        last = sample_semigroups(2, 20250810, work)[-1]
        scanned = work["order4_tables_scanned"]
        bits = np.random.PCG64(20250810)
        bits.advance(8 * (scanned - 1))  # a table takes 8 raw words
        assert draw_order4_tables(bits, 1)[0].tolist() == last.table.tolist()

    def test_nothing_scanned_for_no_samples(self):
        work = {}
        assert sample_semigroups(0, 1, work) == [] and work == {"order4_tables_scanned": 0}

    @pytest.mark.parametrize("count", [0, -1])
    def test_sampling_nothing(self, monkeypatch, count):
        # builds no stream and starts no thread
        def refused(*args, **kwargs):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(np.random, "PCG64", refused)
        before = threading.active_count()
        assert sample_semigroups(count, seed=0) == []
        assert threading.active_count() == before


class TestStreamOrder:
    """One batch at a time, read in stream order on the calling thread."""

    def test_sampling_starts_no_thread(self, monkeypatch):
        def refused(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refused)
        work = {}
        assert len(sample_semigroups(4, 20250810, work)) == 4
        assert work["order4_tables_scanned"] > 0

    @pytest.mark.parametrize("batch", [8192, 65_536])
    def test_no_batch_is_drawn_after_the_last_kept_table(self, monkeypatch, batch):
        drawn = []

        def counted(bits, count):
            drawn.append(count)
            return draw_order4_tables(bits, count)

        monkeypatch.setattr(semigroups, "SAMPLE_BATCH", batch)
        monkeypatch.setattr(semigroups, "draw_order4_tables", counted)
        work = {}
        sample_semigroups(4, 20250810, work)
        assert drawn == [batch] * -(-work["order4_tables_scanned"] // batch)

    def test_a_failing_screen_stops_the_draws(self, monkeypatch):
        batches = []

        def failing_on_the_third(tabs):
            batches.append(len(tabs))
            if len(batches) == 3:
                raise RuntimeError("screen failed")
            return np.zeros(len(tabs), dtype=bool)

        monkeypatch.setattr(semigroups, "associative_mask", failing_on_the_third)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="screen failed"):
            sample_semigroups(1, seed=1)
        assert threading.active_count() == before and len(batches) == 3

    def test_small_batches_with_frequent_switches(self, monkeypatch):
        # 1,306 batches sampled off the main thread with the GIL switched
        # every microsecond; the stream must still be read in order
        monkeypatch.setattr(semigroups, "SAMPLE_BATCH", 4096)
        work, result = {}, []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: result.extend(sample_semigroups(4, 2, work)), daemon=True)
            start = time.perf_counter()
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), f"still sampling after {time.perf_counter() - start:.0f} s"
        got = ["".join(str(v) for row in S.table.tolist() for v in row) for S in result]
        assert got == ["0020012322220020", "0123212221223122",
                       "0323332323233323", "0123112322233323"]
        assert work == {"order4_tables_scanned": 5_349_300}


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
            assert mul(S, mul(S, s, t), mul(S, s, t)) == mul(S, s, t)
            assert mul(S, mul(S, t, s), mul(S, t, s)) == mul(S, t, s)

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
