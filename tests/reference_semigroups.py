"""Per-element reference for the semigroup queries and the base queries of
``GradedRing``, for checking grl.semigroups and grl.gradings against.

These are the element-by-element scans that the base relations replace
with arrays derived once per base.  Every product goes through ``mul``,
which reads the base's stored table as nested lists, taken once per base;
each function scans in the same order and returns the same values as the
array version.
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Sequence

from grl.gradings import GradedRing
from grl.semigroups import FiniteSemigroup, SemigroupClassification


@cache
def _rows(base) -> list[list[int]]:
    return base.table.tolist()


def mul(S, a: int, b: int) -> int:
    """a*b in a semigroup; for a groupoid, n_morphisms off G^(2)."""
    return _rows(S)[a][b]


def idempotents(S: FiniteSemigroup) -> tuple[int, ...]:
    return tuple(e for e in S.elements() if mul(S, e, e) == e)


def weak_inverses(S: FiniteSemigroup, s: int) -> tuple[int, ...]:
    return tuple(x for x in S.elements() if mul(S, mul(S, s, x), s) == s)


def inverses(S: FiniteSemigroup, s: int) -> tuple[int, ...]:
    out = []
    for x in S.elements():
        if mul(S, mul(S, s, x), s) == s and mul(S, mul(S, x, s), x) == x:
            out.append(x)
    return tuple(out)


def identity_element(S: FiniteSemigroup) -> Optional[int]:
    for e in S.elements():
        if all(mul(S, e, x) == x == mul(S, x, e) for x in S.elements()):
            return e
    return None


def classify_semigroup(S: FiniteSemigroup) -> SemigroupClassification:
    qs = tuple(weak_inverses(S, s) for s in S.elements())
    vs = tuple(inverses(S, s) for s in S.elements())
    e = identity_element(S)
    is_group = e is not None and all(
        any(mul(S, a, b) == e == mul(S, b, a) for b in S.elements()) for a in S.elements()
    )
    return SemigroupClassification(
        idempotents=idempotents(S),
        weak_inverse_sets=qs,
        inverse_sets=vs,
        is_regular=all(len(q) > 0 for q in qs),
        is_inverse=all(len(v) == 1 for v in vs),
        is_group=is_group,
    )


def isomorphic_under(S1: FiniteSemigroup, S2: FiniteSemigroup,
                     perm: Sequence[int]) -> bool:
    if S1.order != S2.order or sorted(perm) != list(range(S1.order)):
        return False
    return all(
        perm[mul(S1, a, b)] == mul(S2, perm[a], perm[b])
        for a in S1.elements() for b in S1.elements()
    )


# ---------------------------------------------------------------------------
# the base queries of a graded ring


def target(R: GradedRing, s: int, t: int) -> Optional[int]:
    if R.base_kind == "semigroup":
        return mul(R.base, s, t)
    if R.base.composable(s, t):
        return mul(R.base, s, t)
    return None


def base_pairs(R: GradedRing) -> list[tuple[int, int]]:
    if R.base_kind == "semigroup":
        return [(s, t) for s in R.graders() for t in R.graders()]
    return [(g, h) for g in R.graders() for h in R.graders() if R.base.composable(g, h)]


def inverse_pairs(R: GradedRing) -> list[tuple[int, int]]:
    if R.base_kind == "semigroup":
        return [(s, t) for s in R.graders() for t in inverses(R.base, s)]
    return [(g, R.base.inv[g]) for g in R.base.morphisms()]


def base_idempotents(R: GradedRing) -> tuple[int, ...]:
    if R.base_kind == "semigroup":
        return idempotents(R.base)
    return tuple(g for g in R.base.morphisms()
                 if R.base.composable(g, g) and mul(R.base, g, g) == g)
