"""Finite groupoids: objects, invertible morphisms, partial composition.

A morphism g runs dom(g) -> cod(g); the pair (g, h) is composable exactly
when dom(g) = cod(h), and compose(g, h) means "g after h".  Objects and
morphisms keep separate id spaces; the identity morphism of each object is
derived (and checked) during validation.  ``table[g, h]`` is compose(g, h)
in a read-only intp array, and n_morphisms, the "undefined" index, off G^(2);
``relations.targets`` has it as plain ints with None there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    IdentityViolationError,
    InverseViolationError,
    NotAssociativeError,
    NotComposableClosedError,
    OutOfRangeError,
)
from .semigroups import (
    FiniteSemigroup,
    TableRelations,
    checked_labels,
    classify_semigroup,
    validate_semigroup,
)
from .tables import ComparedByTables, first_assoc_violation, first_bad_index


@dataclass(frozen=True, eq=False)
class FiniteGroupoid(ComparedByTables):
    n_objects: int
    dom: tuple[int, ...]
    cod: tuple[int, ...]
    inv: tuple[int, ...]
    identity: tuple[int, ...]  # identity morphism per object
    table: np.ndarray  # compose(g, h), n_morphisms off G^(2)
    object_labels: Optional[tuple[str, ...]] = None
    morphism_labels: Optional[tuple[str, ...]] = None

    @property
    def n_morphisms(self) -> int:
        return len(self.dom)

    def morphisms(self) -> range:
        return range(self.n_morphisms)

    def composable(self, g: int, h: int) -> bool:
        return self.dom[g] == self.cod[h]

    def compose(self, g: int, h: int) -> int:
        gh = self.relations.targets[g][h]
        if gh is None:
            raise ValueError(f"morphisms {g} and {h} are not composable")
        return gh

    def composable_pairs(self) -> Iterator[tuple[int, int]]:
        return iter(self.relations.pairs)

    def morphism_label(self, g: int) -> str:
        return self.morphism_labels[g] if self.morphism_labels is not None else str(g)

    @cached_property
    def relations(self) -> TableRelations:
        return TableRelations(self.table)


def validate_groupoid(n_objects: int,
                      dom: Sequence[int],
                      cod: Sequence[int],
                      inv: Sequence[int],
                      compose: Mapping[tuple[int, int], int],
                      object_labels: Optional[Sequence[str]] = None,
                      morphism_labels: Optional[Sequence[str]] = None) -> FiniteGroupoid:
    """Exhaustively verify the category-with-inverses axioms; first violation wins."""
    m = len(dom)
    if n_objects <= 0 or m <= 0:
        raise OutOfRangeError("need at least one object and one morphism")
    if len(cod) != m or len(inv) != m:
        raise OutOfRangeError("dom, cod and inv must have equal lengths")
    # each vector and each compose entry is checked as a one-row table
    for name, seq, bound in (("dom", dom, n_objects), ("cod", cod, n_objects),
                             ("inv", inv, m)):
        bad = first_bad_index((seq,), 1, m, bound)
        if bad is not None:
            _, g, v = bad
            raise OutOfRangeError(f"{name}[{g}] = {v!r} is not an index in [0, {bound})",
                                  (g, v))

    # the composition table with m where composition is undefined
    T = np.full((m, m), m, dtype=np.intp)
    for (g, h), gh in compose.items():
        if first_bad_index(((g, h, gh),), 1, 3, m) is not None:
            raise OutOfRangeError(f"compose entry ({g}, {h}) -> {gh} out of range",
                                  (g, h, gh))
        if dom[g] != cod[h]:
            raise NotComposableClosedError(
                f"compose defined at non-composable pair ({g}, {h})", (g, h))
        T[g, h] = gh
    # [g, h]: (g, h) is composable but its composite is missing (m, whose
    # dom and cod read -1) or has the wrong domain or codomain
    D, C = np.array(dom), np.array(cod)
    D_of, C_of = np.append(D, -1)[T], np.append(C, -1)[T]
    bad = np.argwhere((D[:, None] == C) & ((D_of != D) | (C_of != C[:, None])))
    if bad.size:
        g, h = bad[0].tolist()
        if T[g, h] == m:
            raise NotComposableClosedError(f"composable pair ({g}, {h}) has no composite", (g, h))
        raise NotComposableClosedError(
            f"composite of ({g}, {h}) has wrong domain or codomain", (g, h, int(T[g, h])))

    # loops_at[i]: the object i is a loop at, or -1; units: i g = g and g i = g
    # wherever defined
    idx, loops_at = np.arange(m), np.where(D == C, D, -1)
    units = ((T == idx) | (T == m)).all(axis=1) & ((T.T == idx) | (T.T == m)).all(axis=1)
    identity: list[int] = []
    for e in range(n_objects):
        found = np.flatnonzero(units & (loops_at == e))
        if found.size == 0:
            raise IdentityViolationError(f"object {e} has no identity morphism", (e,))
        identity.append(int(found[0]))

    for g in range(m):
        gi = inv[g]
        if dom[g] != cod[gi] or cod[g] != dom[gi]:
            raise InverseViolationError(
                f"inv[{g}] = {gi} does not reverse domain and codomain", (g, gi))
        if T[g, gi] != identity[cod[g]] or T[gi, g] != identity[dom[g]]:
            raise InverseViolationError(
                f"morphism {g} composed with inv[{g}] = {gi} is not an identity", (g, gi))

    # With index m for "undefined", the extended table is associative exactly
    # when composition is: the domain checks above make every triple that is
    # not composable undefined on both sides.
    ext = np.pad(T, (0, 1), constant_values=m)
    bad = first_assoc_violation(ext, ext, ext, ext)
    if bad is not None:
        raise NotAssociativeError(f"(g h) k != g (h k) at (g, h, k) = {bad}", bad)
    return FiniteGroupoid(
        n_objects=n_objects,
        dom=tuple(dom), cod=tuple(cod), inv=tuple(inv),
        identity=tuple(identity),
        table=T,
        object_labels=checked_labels(object_labels, n_objects, "object labels"),
        morphism_labels=checked_labels(morphism_labels, m, "morphism labels"),
    )


# ---------------------------------------------------------------------------
# named builders


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Morphisms are pairs (i, j): j -> i with (i, j)(j, k) = (i, k)."""
    def idx(i: int, j: int) -> int:
        return i * n + j

    dom = [j for i in range(n) for j in range(n)]
    cod = [i for i in range(n) for _ in range(n)]
    inv = [idx(j, i) for i in range(n) for j in range(n)]
    compose = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                compose[(idx(i, j), idx(j, k))] = idx(i, k)
    labels = [f"({i},{j})" for i in range(n) for j in range(n)]
    return validate_groupoid(n, dom, cod, inv, compose, morphism_labels=labels)


def group_groupoid(S: FiniteSemigroup) -> FiniteGroupoid:
    """One-object groupoid whose morphisms are the elements of a finite group."""
    if not classify_semigroup(S).is_group:
        raise ValueError("group_groupoid needs a group table")
    inv = [v[0] for v in S.relations.inverse_sets]  # a group: V(a) = {a^-1}
    compose = {(a, b): S.relations.targets[a][b] for a, b in S.relations.pairs}
    return validate_groupoid(1, [0] * S.order, [0] * S.order, inv, compose,
                             morphism_labels=[S.label(a) for a in S.elements()])


def disjoint_union(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    """Place two groupoids side by side; no morphisms between the parts."""
    po, pm = G1.n_objects, G1.n_morphisms
    dom = list(G1.dom) + [d + po for d in G2.dom]
    cod = list(G1.cod) + [c + po for c in G2.cod]
    inv = list(G1.inv) + [i + pm for i in G2.inv]
    compose = {(g, h): G1.compose(g, h) for g, h in G1.composable_pairs()}
    compose.update(((g + pm, h + pm), G2.compose(g, h) + pm) for g, h in G2.composable_pairs())
    labels = ([G1.morphism_label(g) for g in G1.morphisms()] +
              [G2.morphism_label(g) + "'" for g in G2.morphisms()])
    return validate_groupoid(G1.n_objects + G2.n_objects, dom, cod, inv, compose,
                             morphism_labels=labels)


# ---------------------------------------------------------------------------
# the adjoined-zero inverse semigroup


def to_inverse_semigroup(G: FiniteGroupoid) -> tuple[FiniteSemigroup, tuple[int, ...]]:
    """Adjoin an absorbing zero and declare non-composable products zero.

    Returns the semigroup (index 0 is the zero) and the embedding that sends
    morphism g to its semigroup index.
    """
    m = G.n_morphisms
    table = np.zeros((m + 1, m + 1), dtype=np.intp)
    table[1:, 1:] = (G.table + 1) % (m + 1)  # undefined m -> zero 0
    labels = ["0"] + [G.morphism_label(g) for g in G.morphisms()]
    S = validate_semigroup(table, labels=labels)
    return S, tuple(g + 1 for g in range(m))
