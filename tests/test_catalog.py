"""The catalog builds each name once per process and hands out instances.

Every call gives a new instance made through the constructor from the
stored read-only tables: equal to the last one, sharing its table arrays,
and starting with no cache a check filled on another instance.  The memos
keep at most a fixed number of table cells; a name past that is built on
every call.  Names whose structures would pass MAX_RING_ORDER elements are
refused while the name is resolved, so these tests never build them.
"""

import json
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from grl import catalog, constructions
from grl.corpus import CorpusManifest, default_manifest
from grl.rings import MAX_RING_ORDER, check_tominaga, check_vnr_characterization
from grl.tables import Memo

from test_cli import run_cli

MANIFEST = default_manifest()
SEMIGROUP_NAMES = sorted(catalog._SEMIGROUPS)
RING_NAMES = sorted(set(catalog._RINGS) | set(MANIFEST.rings)
                    | set(MANIFEST.semigroup_ring_coefficients))
GROUPOID_NAMES = sorted(set(MANIFEST.groupoids) | {g for _, g in MANIFEST.groupoid_ring_pairs})


def field_names(structure) -> set[str]:
    return {f.name for f in fields(structure)}


def assert_shared_read_only(a, b) -> None:
    assert a.flags.writeable is False and a is b


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh catalog memo with the process memo's bound."""
    memo = Memo(cells=catalog._NAMED.cells)
    monkeypatch.setattr(catalog, "_NAMED", memo)
    return memo


@pytest.mark.usefixtures("empty_memo")
class TestInstances:
    @pytest.mark.parametrize("name", RING_NAMES)
    def test_rings(self, name):
        T = catalog.named_ring(name)
        check_tominaga(T, 1)
        check_vnr_characterization(T, 1)
        assert "_fixers" in vars(T)  # a search cache that every ring fills
        U = catalog.named_ring(name)
        assert set(vars(U)) == field_names(U) == {"additive", "mul"}
        assert U is not T and U == T
        assert_shared_read_only(U.mul, T.mul)
        assert_shared_read_only(U.additive.add, T.additive.add)
        assert_shared_read_only(U.additive.neg, T.additive.neg)

    @pytest.mark.parametrize("name", SEMIGROUP_NAMES)
    def test_semigroups(self, name):
        S = catalog.named_semigroup(name)
        S.relations
        S2 = catalog.named_semigroup(name)
        assert "relations" in vars(S) and set(vars(S2)) == field_names(S2)
        assert S2 is not S and S2 == S and S2.labels == S.labels
        assert_shared_read_only(S2.table, S.table)

    @pytest.mark.parametrize("name", GROUPOID_NAMES)
    def test_groupoids(self, name):
        G = catalog.named_groupoid(name)
        G.relations
        G2 = catalog.named_groupoid(name)
        assert "relations" in vars(G) and set(vars(G2)) == field_names(G2)
        assert G2 is not G and G2 == G
        assert_shared_read_only(G2.table, G.table)

    def test_each_name_is_built_once(self, monkeypatch):
        T = catalog.named_ring("F4")
        monkeypatch.setitem(catalog._RINGS, "F4", lambda: pytest.fail("F4 was built again"))
        assert catalog.named_ring("F4") == T


class TestMemoBound:
    """What the memos keep is bounded by table cells, not by entries."""

    def test_values_are_kept_until_the_cells_are_spent(self):
        memo, builds = Memo(cells=10), []

        def build(n):
            return lambda: builds.append(n) or np.zeros(n, dtype=np.intp)

        for n in (4, 5, 3, 1, 4, 5):
            memo.get((n,), build(n))
        assert builds == [4, 5, 3, 1] and (len(memo), memo.held) == (3, 10)
        memo.get((3,), build(3))
        memo.get((3,), build(3))
        assert builds == [4, 5, 3, 1, 3, 3]

    def test_threads_that_build_one_key_at_once_keep_it_once(self):
        memo, workers = Memo(cells=100), 8
        inside = threading.Barrier(workers)

        def build():
            inside.wait(timeout=30)  # every thread has missed the key
            return np.zeros(5, dtype=np.intp)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=memo.get, args=((0,), build))
                       for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (len(memo), memo.held) == (1, 5)

    def test_a_name_past_the_bound_is_built_on_every_call(self, empty_memo):
        # Z200 holds 2 * 200^2 + 200 = 80,200 cells, more than 2^16
        T, U = catalog.named_ring("Z200"), catalog.named_ring("Z200")
        assert T == U and T.mul is not U.mul
        assert len(empty_memo) == 0 and empty_memo.held == 0
        catalog.named_ring("Z128")  # 32,896 cells fit
        assert (len(empty_memo), empty_memo.held) == (1, 32896)

    def test_the_process_memos_stay_within_their_bounds(self):
        for memo in (catalog._NAMED, constructions._TABLES):
            assert 0 <= memo.held <= memo.cells


class TestNameBounds:
    """A name whose structure passes MAX_RING_ORDER elements is refused
    while it is resolved, as Z<n> names are."""

    @pytest.mark.parametrize("name, size", [
        ("pair100000", 10 ** 10), ("pair33", 1089), ("group_Z1025", 1025),
        ("group_Z1000000", 10 ** 6), ("pair32+pair1", 1025), ("pair30+pair30", 1800)])
    def test_groupoids_above_the_bound(self, name, size):
        with pytest.raises(KeyError) as err:
            catalog.groupoid_factory(name)
        assert err.value.args[0] == (f"groupoid name {name!r} has {size} morphisms, "
                                     f"above MAX_RING_ORDER = {MAX_RING_ORDER}")

    @pytest.mark.parametrize("name", ["pair32", "group_Z1024", "pair31+group_Z63"])
    def test_groupoids_at_the_bound_resolve(self, name):
        assert callable(catalog.groupoid_factory(name))  # resolved, not built

    def test_groupoid_name_in_a_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"construct": "groupoid_ring", "A": "Z2",
                                    "G": "pair100000"}))
        assert run_cli("validate", str(path)) == (1, {
            "valid": False, "error": "KeyError",
            "message": "groupoid name 'pair100000' has 10000000000 morphisms, "
                       "above MAX_RING_ORDER = 1024"})

    @pytest.mark.parametrize("n", [32, 10 ** 6])
    def test_matrix_units_spec(self, tmp_path, n):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"construct": "matrix_bn", "A": "Z2", "n": n}))
        assert run_cli("validate", str(path)) == (1, {
            "valid": False, "error": "ValueError",
            "message": f"order {n}^2 + 1 is above MAX_RING_ORDER = 1024"})

    @pytest.mark.parametrize("key, entry", [
        ("groupoids", "pair100000"), ("groupoids", "group_Z1025"),
        ("groupoid_ring_pairs", ["Z2", "pair30+pair30"]),
        ("matrix_gradings", ["Z2", 32]), ("matrix_gradings", ["Z2", 10 ** 6])])
    def test_manifest_entries(self, tmp_path, key, entry):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({key: [entry]}))
        code, out = run_cli("corpus-run", "--suite", "none", "--manifest", str(path))
        assert code == 1 and out["error"] == "ValueError"
        assert out["message"].startswith(f"manifest {key} has an unknown or malformed entry")

    def test_manifest_sizes_at_the_bound_are_accepted(self):
        m = CorpusManifest(groupoids=("pair32", "group_Z1024"), matrix_gradings=(("Z2", 31),))
        assert m.matrix_gradings == (("Z2", 31),)
