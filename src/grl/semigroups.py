"""Finite semigroups as dense Cayley tables.

Elements are the indices 0..order-1; ``table[a][b]`` is the product a*b.
Labels are presentation-only and never affect any verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import NotAssociativeError, OutOfRangeError
from .tables import associative_mask, first_assoc_violation, is_associative_flat

SAMPLE_BATCH = 65_536  # order-4 tables a draw; their uint8 cells take 1 MiB


@dataclass(frozen=True)
class FiniteSemigroup:
    order: int
    table: tuple[tuple[int, ...], ...]
    labels: Optional[tuple[str, ...]] = None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.order)

    def label(self, s: int) -> str:
        return self.labels[s] if self.labels is not None else str(s)

    @cached_property
    def relations(self) -> TableRelations:
        return TableRelations(self.table)


class TableRelations:
    """Everything the semigroup queries read, derived at once from one table.

    ``table[s, t]`` is s*t, or n, the "undefined" index, off a groupoid's
    composable pairs.  It absorbs, like an adjoined zero, and is left out of
    every relation.  Each base keeps one in ``relations``, which is not a
    dataclass field, so ``==``, ``hash`` and ``repr`` ignore it.
    """

    def __init__(self, table) -> None:
        P = self.table = np.asarray(table, dtype=np.intp)
        n = len(P)
        idx = np.arange(n)
        padded = np.full((n + 1, n + 1), n, dtype=np.intp)
        padded[:n, :n] = P
        weak = padded[P, idx[:, None]] == idx[:, None]  # [s, x]: (s x) s = s
        inverse = weak & weak.T  # ... and (x s) x = x
        self.idempotents = tuple(np.flatnonzero(P[idx, idx] == idx).tolist())
        # row s of each relation as the ascending tuple of the x it holds
        self.weak_inverse_sets, self.inverse_sets, defined = (
            tuple(tuple(compress(idx.tolist(), row)) for row in rel.tolist())
            for rel in (weak, inverse, P < n))
        self.pairs = tuple((s, t) for s, ts in enumerate(defined) for t in ts)
        self.inverse_pairs = tuple((s, t) for s, ts in enumerate(self.inverse_sets) for t in ts)
        units = (P == idx).all(axis=1) & (P.T == idx).all(axis=1)  # e x = x = x e
        self.identity = int(units.argmax()) if units.any() else None
        self.is_group = self.identity is not None and bool(
            ((P == self.identity) & (P.T == self.identity)).any(axis=1).all())


def validate_semigroup(table: Sequence[Sequence[int]],
                       labels: Optional[Sequence[str]] = None) -> FiniteSemigroup:
    """Check closure and associativity; the first violating entry/triple wins."""
    n = len(table)
    if n == 0:
        raise OutOfRangeError("empty table")
    rows = []
    for a, row in enumerate(table):
        if len(row) != n:
            raise OutOfRangeError(f"row {a} has length {len(row)}, expected {n}", (a,))
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise OutOfRangeError(f"table[{a}][{b}] = {v!r} is not an index in [0, {n})",
                                      (a, b, v))
        rows.append(tuple(row))
    T = np.array(rows, dtype=np.intp)
    bad = first_assoc_violation(T, T, T, T)
    if bad is not None:
        raise NotAssociativeError(f"(a*b)*c != a*(b*c) at (a, b, c) = {bad}", bad)
    lab = None
    if labels is not None:
        lab = tuple(str(x) for x in labels)
        if len(lab) != n:
            raise OutOfRangeError(f"expected {n} labels, got {len(lab)}")
    return FiniteSemigroup(order=n, table=tuple(rows), labels=lab)


def idempotents(S: FiniteSemigroup) -> tuple[int, ...]:
    """Fixed points of squaring, in ascending index order."""
    return S.relations.idempotents


def weak_inverses(S: FiniteSemigroup, s: int) -> tuple[int, ...]:
    """All x with s = s*x*s."""
    return S.relations.weak_inverse_sets[s]


def inverses(S: FiniteSemigroup, s: int) -> tuple[int, ...]:
    """All x with s = s*x*s and x = x*s*x."""
    return S.relations.inverse_sets[s]


def identity_element(S: FiniteSemigroup) -> Optional[int]:
    return S.relations.identity


@dataclass(frozen=True)
class SemigroupClassification:
    idempotents: tuple[int, ...]
    weak_inverse_sets: tuple[tuple[int, ...], ...]
    inverse_sets: tuple[tuple[int, ...], ...]
    is_regular: bool
    is_inverse: bool
    is_group: bool


def classify_semigroup(S: FiniteSemigroup) -> SemigroupClassification:
    """Regular: every weak-inverse set nonempty. Inverse: every inverse set a singleton."""
    qs, vs = S.relations.weak_inverse_sets, S.relations.inverse_sets
    return SemigroupClassification(
        idempotents=idempotents(S),
        weak_inverse_sets=qs,
        inverse_sets=vs,
        is_regular=all(len(q) > 0 for q in qs),
        is_inverse=all(len(v) == 1 for v in vs),
        is_group=S.relations.is_group,
    )


# ---------------------------------------------------------------------------
# named builders


def left_zero_semigroup(n: int) -> FiniteSemigroup:
    """x*y = x for all x, y."""
    return validate_semigroup([[a] * n for a in range(n)])


def cyclic_group(n: int) -> FiniteSemigroup:
    return validate_semigroup([[(a + b) % n for b in range(n)] for a in range(n)])


def chain_semilattice(n: int) -> FiniteSemigroup:
    """Total order 0 < 1 < ... < n-1 under meet (min)."""
    return validate_semigroup([[min(a, b) for b in range(n)] for a in range(n)])


def trivial_semigroup() -> FiniteSemigroup:
    return chain_semilattice(1)


def monogenic_semigroup(index: int, period: int) -> FiniteSemigroup:
    """Single generator a with a^(index+period) = a^index.

    Elements are a^1 .. a^(index+period-1); element i represents a^(i+1).
    """
    if index < 1 or period < 1:
        raise ValueError("index and period must be >= 1")
    n = index + period - 1

    def power(k: int) -> int:
        while k > n:
            k -= period
        return k - 1

    return validate_semigroup([[power(a + b + 2) for b in range(n)] for a in range(n)])


# ---------------------------------------------------------------------------
# exhaustive enumeration and seeded sampling


def enumerate_semigroups(order: int) -> Iterator[FiniteSemigroup]:
    """All associative tables on 0..order-1, lexicographic by flattened table.

    Walks the order^(order^2) candidate tables lazily with itertools.product
    and yields those that pass ``is_associative_flat``.  No isomorphism
    reduction is performed, so order 3 (19683 candidates) is the practical
    limit: order 4 has 4^16, about 4.3e9, and takes hours.
    """
    for flat in product(range(order), repeat=order * order):
        if is_associative_flat(flat, order):
            table = tuple(flat[i * order:(i + 1) * order] for i in range(order))
            yield FiniteSemigroup(order=order, table=table)


def draw_order4_tables(bits: np.random.PCG64, count: int) -> np.ndarray:
    """The next ``count`` raw order-4 tables of the stream, (count, 4, 4) uint8.

    A table takes 8 words; each cell is the top two bits of one 32-bit half,
    low half first, read little-endian whatever the host byte order.
    """
    halves = bits.random_raw(count * 8).astype("<u8", copy=False).view("<u4")
    cells = np.empty(count * 16, dtype=np.uint8)  # shift straight into uint8: no wide temporary
    return np.right_shift(halves, 30, out=cells, casting="unsafe").reshape(count, 4, 4)


def sample_semigroups(order: int, count: int, seed: int) -> list[FiniteSemigroup]:
    """Uniform rejection sampling of order-4 tables: keep the associative ones.

    Deterministic for a fixed seed: the first ``count`` associative tables of
    one PCG64 stream, in draw order.  The cells are exactly what
    ``Generator.integers(0, 4)`` draws from the same stream, since Lemire's
    method never rejects a power-of-two range.  Batches use whole words, so
    ``SAMPLE_BATCH`` does not change the output.  Orders up to 3 are
    enumerated exhaustively, and at order 5 only about 6e-13 of tables are
    associative, so only order 4 is sampled.
    """
    if order != 4:
        raise ValueError(f"sampling draws order-4 tables only, not order {order}")
    if count <= 0:
        return []
    bits = np.random.PCG64(seed)
    found: list[FiniteSemigroup] = []
    while len(found) < count:
        tabs = draw_order4_tables(bits, SAMPLE_BATCH)
        tabs = tabs[associative_mask(tabs)]
        found.extend(FiniteSemigroup(order=4, table=tuple(tuple(row) for row in t))
                     for t in tabs.tolist())
    return found[:count]


def isomorphic_under(S1: FiniteSemigroup, S2: FiniteSemigroup,
                     perm: Sequence[int]) -> bool:
    """Does the bijection perm: S1 -> S2 carry the first table onto the second?"""
    if S1.order != S2.order or sorted(perm) != list(range(S1.order)):
        return False
    p = np.asarray(perm)
    return bool((p[S1.relations.table] == S2.relations.table[np.ix_(p, p)]).all())
