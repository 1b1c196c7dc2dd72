"""Named small structures used by the corpus, the CLI and the test suites."""

from __future__ import annotations

import re
from functools import partial, reduce
from typing import Callable

from .constructions import matrix_units_semigroup
from .groupoids import (
    FiniteGroupoid,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
)
from .rings import (
    MAX_RING_ORDER,
    FiniteRing,
    cyclic_ring,
    field_f4,
    matrix_ring,
    multiples_ring,
    product_ring,
    zero_multiplication_ring,
)
from .semigroups import (
    FiniteSemigroup,
    chain_semilattice,
    cyclic_group,
    left_zero_semigroup,
    monogenic_semigroup,
    trivial_semigroup,
)

_SEMIGROUPS = {
    "trivial": trivial_semigroup,
    "L2": lambda: left_zero_semigroup(2),
    "chain2": lambda: chain_semilattice(2),
    "chain3": lambda: chain_semilattice(3),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "B1": lambda: matrix_units_semigroup(1),
    "B2": lambda: matrix_units_semigroup(2),
    "B3": lambda: matrix_units_semigroup(3),
    "monogenic22": lambda: monogenic_semigroup(2, 1),
}

_RINGS = {
    "F4": field_f4,
    "Z2xZ2": lambda: product_ring(cyclic_ring(2), cyclic_ring(2)),
    "2Z8": lambda: multiples_ring(2, 8),
    "M2(Z2)": lambda: matrix_ring(cyclic_ring(2), 2),
}


# The *_factory functions resolve a name without building anything, so a
# manifest can be checked before the corpus is generated.

def semigroup_factory(name: str) -> Callable[[], FiniteSemigroup]:
    if name in _SEMIGROUPS:
        return _SEMIGROUPS[name]
    raise KeyError(f"unknown semigroup name: {name!r}")


def ring_factory(name: str) -> Callable[[], FiniteRing]:
    """Resolve Z<n> or zero<n> with 1 <= n <= MAX_RING_ORDER, or an explicit entry."""
    if name in _RINGS:
        return _RINGS[name]
    m = re.fullmatch(r"(Z|zero)([1-9]\d*)", name)
    if m:
        n = int(m.group(2))
        if n > MAX_RING_ORDER:
            raise KeyError(f"ring name {name!r} is above MAX_RING_ORDER = {MAX_RING_ORDER}")
        return partial(cyclic_ring if m.group(1) == "Z" else zero_multiplication_ring, n)
    raise KeyError(f"unknown ring name: {name!r}")


def groupoid_factory(name: str) -> Callable[[], FiniteGroupoid]:
    """Resolve a groupoid name: pair<n> or group_Z<n> with n >= 1, or a
    "+"-joined union."""
    if "+" in name:
        parts = [groupoid_factory(p) for p in name.split("+")]
        return lambda: reduce(disjoint_union, (part() for part in parts))
    m = re.fullmatch(r"pair([1-9]\d*)", name)
    if m:
        return partial(pair_groupoid, int(m.group(1)))
    m = re.fullmatch(r"group_Z([1-9]\d*)", name)
    if m:
        return lambda: group_groupoid(cyclic_group(int(m.group(1))))
    raise KeyError(f"unknown groupoid name: {name!r}")


def named_semigroup(name: str) -> FiniteSemigroup:
    return semigroup_factory(name)()


def named_ring(name: str) -> FiniteRing:
    return ring_factory(name)()


def named_groupoid(name: str) -> FiniteGroupoid:
    return groupoid_factory(name)()


# degree maps for the named good gradings; entries are (ring, base name, deg rows)
GOOD_GRADING_SPECS: dict[str, tuple[str, str, tuple[tuple[int, ...], ...]]] = {
    # M_2(A) graded by the 2-element group: diagonal units at the identity
    "M2_Z2_group": ("Z2", "Z2", ((0, 1), (1, 0))),
    "M2_Z4_group": ("Z4", "Z2", ((0, 1), (1, 0))),
    "M2_F4_group": ("F4", "Z2", ((0, 1), (1, 0))),
    # deg(i,j) = e_{i,j}: reproduces the matrix-unit grading
    "M2_Z2_bn": ("Z2", "B2", ((1, 2), (3, 4))),
    # everything in one component: the trivial grading of M_2(A)
    "M2_Z2_trivial": ("Z2", "trivial", ((0, 0), (0, 0))),
}


def good_grading_spec(name: str) -> tuple[FiniteRing, FiniteSemigroup, tuple[tuple[int, ...], ...]]:
    ring_name, base_name, deg = GOOD_GRADING_SPECS[name]
    return named_ring(ring_name), named_semigroup(base_name), deg
