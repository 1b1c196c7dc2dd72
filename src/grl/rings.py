"""Finite additive groups and finite, possibly non-unital, rings.

Everything is given by dense index tables over elements 0..order-1 with the
additive zero fixed at index 0.  Each table is stored once, as a read-only
intp array (``tables.frozen``): the builders compute whole tables with numpy
index arithmetic and pass them on as they are, and every query indexes the
stored arrays.  Lists appear only in the members and witnesses a search
returns.  All searches scan ascending and return the first hit, so every
witness is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, combinations_with_replacement
from math import prod
from operator import and_
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    AdditiveGroupError,
    DistributivityError,
    NotAnIdealError,
    NotAssociativeError,
    OutOfRangeError,
)
from .tables import (
    CELL_BUDGET,
    ComparedByTables,
    agree_on_generators,
    associative_through,
    biadditive,
    first_assoc_violation,
    first_bad_index,
    first_biadditivity_violation,
    frozen,
)


@dataclass(frozen=True, eq=False)
class FiniteAdditiveGroup(ComparedByTables):
    """Finite abelian group; ``add[x, y]`` is x+y, ``neg[x]`` is -x, zero is 0.

    Both tables are read-only intp arrays, whatever the constructor is given.
    ``==`` and ``hash`` compare the tables' bytes."""

    order: int
    add: np.ndarray
    neg: np.ndarray

    def elements(self) -> range:
        return range(self.order)

    @property
    def generators(self) -> tuple[int, ...]:
        """Greedy generators: the ascending elements outside the span of the
        earlier ones; (0,) for the trivial group.  Not a dataclass field."""
        return self._growth[0]

    @property
    def edges(self) -> np.ndarray:
        """The spanning edges of the greedy growth, a read-only (3, m) array
        of columns (y, b, y + b): (0, 0); for each x != 0 the (g, p) that
        added it; for each generator g the closing (g, x), x the first
        element of the last coset of g, whose sum lies in the span of the
        earlier generators.  ``tables.biadditive`` proves additivity on them."""
        return self._growth[1]

    @cached_property
    def _growth(self) -> tuple[tuple[int, ...], np.ndarray]:
        """``generators`` and ``edges`` from one growth of {0}."""
        ys, bs, sums = edges = [0], [0], [0]  # the edge (0, 0) first
        generators = tuple(_grow(self.add, {0}, range(1, self.order), edges)) or (0,)
        return generators, frozen(ys + bs + sums).reshape(3, -1)


@dataclass(frozen=True, eq=False)
class FiniteRing(ComparedByTables):
    """Additive group with an associative, bi-additive multiplication table.

    ``mul`` is a read-only intp array, like the group's tables; ``==`` and
    ``hash`` compare the tables' bytes.  Searches that run many times over
    one ring keep what they derive from the tables on the instance: the
    idempotents, fixer bitmasks, the packed seed set of each principal left
    ideal, and the principal left ideals by generator and by seed set.
    These caches are not dataclass fields, so they take no part in ``==``,
    ``hash``, ``repr`` or pickling, and every new instance starts empty.
    """

    additive: FiniteAdditiveGroup
    mul: np.ndarray

    @property
    def order(self) -> int:
        return self.additive.order

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def _fixers(self) -> dict[str, tuple[int, ...]]:
        """Per side, ``cols[v]`` is the bitmask of every u with u*v = v
        ("left") or v*u = v ("right"); bit u stands for element u."""
        M = self.mul
        idx = np.arange(self.order)
        return {"left": _column_masks(M == idx[None, :]),
                "right": _column_masks((M == idx[:, None]).T)}

    @cached_property
    def _idempotents(self) -> frozenset[int]:
        """Every u with u*u = u."""
        squares = self.mul.diagonal()
        return frozenset(np.flatnonzero(squares == np.arange(self.order)).tolist())

    @cached_property
    def _seed_keys(self) -> np.ndarray:
        """Row c packs the bits of c's seed set {0, c} ∪ Tc, whose additive
        closure is c's principal left ideal, so generators with equal rows
        share an ideal.  One scatter of ``mul`` in row blocks of at most
        ``CELL_BUDGET`` cells; the n x n bools are packed to n x n/8 bytes."""
        n = self.order
        rows = np.arange(n) * n
        seeds = np.zeros(n * n, dtype=bool)  # cell c*n + x: x is in c's seed set
        step = max(1, CELL_BUDGET // n)
        for t in range(0, n, step):
            seeds[(self.mul[t:t + step] + rows).ravel()] = True  # t*c for each c
        seeds[rows] = seeds[rows + np.arange(n)] = True  # 0 and c
        return np.packbits(seeds.reshape(n, n), axis=1)

    @cached_property
    def _closures(self) -> dict[bytes, frozenset[int]]:
        """Principal left ideals by the bytes of a ``_seed_keys`` row, each
        closed once, filled in as they are asked for."""
        return {}


def _column_masks(fixes: np.ndarray) -> tuple[int, ...]:
    """Column v of a boolean (u, v) matrix as the int with bit u set where true."""
    packed = np.packbits(fixes, axis=0, bitorder="little").T
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


TRIVIAL_GROUP = FiniteAdditiveGroup(order=1, add=[[0]], neg=[0])


def _check_index_table(table: Sequence[Sequence[int]], n: int, what: str) -> None:
    match first_bad_index(table, n, n, n):
        case (length,):
            raise OutOfRangeError(f"{what} has {length} rows, expected {n}")
        case (a, length):
            raise OutOfRangeError(f"{what} row {a} has length {length}, expected {n}", (a,))
        case (a, b, v):
            raise OutOfRangeError(f"{what}[{a}][{b}] = {v!r} is not an index in [0, {n})",
                                  (a, b, v))


def validate_additive_group(add: Sequence[Sequence[int]],
                            neg: Sequence[int]) -> FiniteAdditiveGroup:
    """Abelian-group axioms: commutative, 0 neutral, neg inverse, associative.
    The tables may be nested sequences or int arrays."""
    n = len(add)
    if n == 0:
        raise OutOfRangeError("empty addition table")
    _check_index_table(add, n, "add")
    # neg as a one-row table
    match first_bad_index(neg[None] if isinstance(neg, np.ndarray) else (neg,), 1, n, n):
        case (_, length):
            raise OutOfRangeError(f"neg has length {length}, expected {n}")
        case (_, x, v):
            raise OutOfRangeError(f"neg[{x}] = {v!r} is not an index in [0, {n})", (x, v))
    A, N = frozen(add), frozen(neg)
    if not np.array_equal(A, A.T):
        x, y = np.argwhere(A != A.T)[0]
        raise AdditiveGroupError(f"addition is not commutative at ({x}, {y})",
                                 (int(x), int(y)))
    if not np.array_equal(A[0], np.arange(n)):
        x = int(np.argwhere(A[0] != np.arange(n))[0][0])
        raise AdditiveGroupError(f"index 0 is not an additive zero: 0+{x} != {x}", (x,))
    if A[np.arange(n), N].any():
        x = int(np.argwhere(A[np.arange(n), N] != 0)[0][0])
        raise AdditiveGroupError(f"x + neg[x] != 0 at x = {x}", (x,))
    grp = FiniteAdditiveGroup(order=n, add=A, neg=N)
    # Every nonzero element is g + m for a greedy generator g and an element
    # m added before it, along the spanning edge that added it (see _grow),
    # so the generators generate the table under + and Light's test on them
    # is a proof.  The growth ends on any table; only ``biadditive`` reads
    # its closing edges, once the group is valid.  Rows that are not
    # permutations, as no group's are, go straight to the scan, which finds
    # the first failing triple.
    if not ((np.sort(A, axis=1) == np.arange(n)).all()
            and associative_through(A, np.asarray(grp.generators))):
        bad = first_assoc_violation(A, A, A, A)
        if bad is not None:
            raise AdditiveGroupError(f"addition is not associative at {bad}", bad)
    return grp


def validate_ring(add: Sequence[Sequence[int]], neg: Sequence[int],
                  mul: Sequence[Sequence[int]]) -> FiniteRing:
    """Additive axioms plus multiplicative associativity and two-sided distributivity.
    The tables may be nested sequences or int arrays."""
    return _ring_on(validate_additive_group(add, neg), mul)


def _ring_on(grp: FiniteAdditiveGroup, mul: Sequence[Sequence[int]]) -> FiniteRing:
    """The ring with a validated additive group and a product table that is
    checked here: indices, then distributivity and associativity."""
    _check_index_table(mul, grp.order, "mul")
    A, M = grp.add, frozen(mul)
    g = np.asarray(grp.generators)
    if not (biadditive(M, A, grp.edges, grp.edges, g)
            and agree_on_generators(g, g, g, (M, M), (M, M))):
        _raise_first_ring_violation(A, M)
    return FiniteRing(additive=grp, mul=M)


def _raise_first_ring_violation(A: np.ndarray, M: np.ndarray) -> None:
    """Report the first failing law, associativity before distributivity."""
    bad = first_assoc_violation(M, M, M, M)
    if bad is not None:
        raise NotAssociativeError(f"(a*b)*c != a*(b*c) at (a, b, c) = {bad}", bad)
    # both laws are scanned in (a, b, c) order; the earlier a wins, left first on a tie
    left, right = first_biadditivity_violation(M, A, A, A)
    if left is not None and (right is None or left[0] <= right[0]):
        a, b, c = left
        raise DistributivityError(
            f"(a+b)*c != a*c + b*c at (a, b, c) = ({a}, {b}, {c})", left)
    if right is not None:
        a, b, c = right
        raise DistributivityError(
            f"a*(b+c) != a*b + a*c at (a, b, c) = ({a}, {b}, {c})", right)


# ---------------------------------------------------------------------------
# named constructors

# Larger rings and powers are refused before any table is built; M4(Z2) has 2^32 cells.
MAX_RING_ORDER = 1024

_Cells = Sequence[tuple[int, int]]


def _check_order(order: int, size: str) -> None:
    if order > MAX_RING_ORDER:
        raise ValueError(f"order {size} is above MAX_RING_ORDER = {MAX_RING_ORDER}")


def _tuple_table(operands: Sequence[Sequence[int]],
                 entries: Sequence[tuple[int, np.ndarray, Sequence[int]]]) -> np.ndarray:
    """Table of a map on lexicographic tuples, one output entry at a time.

    ``operands[o]`` lists the coordinate sizes of operand o: one operand
    gives a 1-D table, two a 2-D one, and a cell holds the lexicographic
    index of the output tuple.  Output entry (size, small, axes)
    takes ``size`` values and is ``small`` read at the input coordinates
    ``axes``, numbered across the operands and ascending.  Each small table,
    times its entry's stride, is broadcast over the whole table, so no index
    array the size of the table is built.  A coordinate with one value is
    always 0 and gets no axis, which keeps many order-1 entries within
    numpy's 64 dimensions.  The table comes back read-only, so that
    ``frozen`` keeps it without a copy."""
    sizes = [n for op in operands for n in op]
    kept = [a for a, n in enumerate(sizes) if n > 1]
    out = np.zeros([sizes[a] for a in kept], dtype=np.intp)
    stride = 1
    for size, small, axes in reversed(entries):
        if small.any():
            out += stride * small.reshape([sizes[a] if a in axes else 1 for a in kept])
        stride *= size
    table = out.reshape([prod(op) for op in operands])
    table.flags.writeable = False
    return table


def _product_group(groups: Sequence[FiniteAdditiveGroup]) -> FiniteAdditiveGroup:
    """Direct product of validated groups, which is one; tuples encoded
    lexicographically.  The caller checks the order."""
    # entry i of a sum or negative is that of entry i of the operands
    sizes, m = [G.order for G in groups], len(groups)
    return FiniteAdditiveGroup(
        order=prod(sizes),
        add=_tuple_table((sizes,) * 2, [(G.order, G.add, (i, m + i))
                                        for i, G in enumerate(groups)]),
        neg=_tuple_table((sizes,), [(G.order, G.neg, (i,)) for i, G in enumerate(groups)]))


def _power_group(G: FiniteAdditiveGroup, k: int) -> FiniteAdditiveGroup:
    """Direct power G^k; tuples encoded big-endian in base |G|."""
    if k == 1:
        return G
    if k == 0 or G.order == 1:
        return TRIVIAL_GROUP
    # G.order >= 2, so the power capped at the bound's bit length still passes it
    _check_order(G.order ** min(k, MAX_RING_ORDER.bit_length()), f"{G.order}^{k}")
    return _product_group([G] * k)


_Pattern = tuple[int, int, tuple[tuple[tuple[int, int], ...], ...]]


def _term_pattern(left: _Cells, right: _Cells, out: _Cells) -> _Pattern:
    """What the product of matrices supported on the (i, j) cells ``left``
    and ``right``, read on the cells ``out``, depends on: the two list
    lengths and, for each output cell (i, l), the (left, right) positions
    of its terms x_ij y_jl.  Each list is in row-major order."""
    place = {cell: p for p, cell in enumerate(right)}
    return len(left), len(right), tuple(
        tuple((p, place[j, l]) for p, (row, j) in enumerate(left)
              if row == i and (j, l) in place)
        for i, l in out)


def _matrix_product(A: FiniteRing, pattern: _Pattern) -> np.ndarray:
    """Product table over A of a ``_term_pattern``.  A matrix is the tuple
    of its entries in cell order, indexed lexicographically.

    Output entry e is the sum of its terms x_p y_r: with k terms, a table
    of q^(2k) cells over those entries of x and y, built by broadcasting
    one term at a time."""
    q, add, mul = A.order, A.additive.add, A.mul
    n_left, n_right, terms = pattern
    entries = []
    for pairs in terms:
        k = len(pairs)
        small = np.zeros((), dtype=np.intp)
        for t in range(k):  # mul on axes t (x) and k + t (y) of 2k
            small = add[small, mul.reshape([q if a in (t, k + t) else 1 for a in range(2 * k)])]
        entries.append((q, small, [p for p, _ in pairs] + [n_left + r for _, r in pairs]))
    return _tuple_table(((q,) * n_left, (q,) * n_right), entries)


def _integers(m: int, c: int) -> FiniteRing:
    """Integers mod m with the product x*y = c*x*y."""
    _check_order(m, str(m))
    x = np.arange(m)
    c %= max(m, 1)  # so that c*x*y stays far inside int64
    return validate_ring((x[:, None] + x) % m, -x % m, c * x[:, None] * x % m)


def cyclic_ring(n: int) -> FiniteRing:
    """Integers mod n."""
    return _integers(n, 1)


def field_f4() -> FiniteRing:
    """The four-element field; elements 0, 1, a, a+1 with a^2 = a + 1.
    Addition is XOR of the indices, so every element is its own negative."""
    return validate_ring([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                         [0, 1, 2, 3],
                         [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])


def zero_multiplication_ring(n: int) -> FiniteRing:
    """Additive group of integers mod n with xy = 0 for all x, y."""
    return _integers(n, 0)


def multiples_ring(k: int, n: int) -> FiniteRing:
    """The subring {0, k, 2k, ...} of the integers mod n (n divisible by k).

    Element i stands for k*i, and (k*i)(k*j) = k*(k*i*j), so it is the
    integers mod n/k with x*y = k*x*y."""
    if n % k != 0:
        raise ValueError("k must divide n")
    return _integers(n // k, k)


def product_ring(*factors: FiniteRing) -> FiniteRing:
    """Componentwise operations; elements enumerated lexicographically."""
    if not factors:
        raise ValueError("need at least one factor")
    _check_order(prod(T.order for T in factors), "*".join(str(T.order) for T in factors))
    # entry i of a product is that of entry i of the operands; only it is proved
    sizes, m = [T.order for T in factors], len(factors)
    return _ring_on(_product_group([T.additive for T in factors]),
                    _tuple_table((sizes,) * 2, [(T.order, T.mul, (i, m + i))
                                                for i, T in enumerate(factors)]))


def matrix_ring(T: FiniteRing, k: int) -> FiniteRing:
    """k-by-k matrices over T; elements enumerated row-major by entry, lexicographic."""
    if k < 0:
        raise ValueError(f"matrix size must be >= 0, got {k}")
    if T.order == 1:
        k = 0  # the zero matrix is the only element
    G = _power_group(T.additive, k * k)  # checks the order first
    cells = [(i, j) for i in range(k) for j in range(k)]
    # a direct power of a validated group is one; only the product is proved
    return _ring_on(G, _matrix_product(T, _term_pattern(cells, cells, cells)))


def opposite_ring(T: FiniteRing) -> FiniteRing:
    """Same additive group, multiplication reversed."""
    return FiniteRing(additive=T.additive, mul=T.mul.T)


# ---------------------------------------------------------------------------
# unitality


@dataclass(frozen=True)
class SUnitalityWitness:
    """Per-element one-sided units: ``left_units[x]`` is the first u with u*x = x."""

    left_units: tuple[Optional[int], ...]
    right_units: tuple[Optional[int], ...]

    @property
    def is_left(self) -> bool:
        return all(u is not None for u in self.left_units)

    @property
    def is_right(self) -> bool:
        return all(u is not None for u in self.right_units)

    @property
    def holds(self) -> bool:
        return self.is_left and self.is_right

    def first_left_failure(self) -> Optional[int]:
        return next((x for x, u in enumerate(self.left_units) if u is None), None)

    def first_right_failure(self) -> Optional[int]:
        return next((x for x, u in enumerate(self.right_units) if u is None), None)


def s_unitality(T: FiniteRing) -> SUnitalityWitness:
    """For each x, the first u with u*x = x and the first v with x*v = x."""
    M = T.mul
    idx = np.arange(T.order)
    hits = np.stack((M == idx, M.T == idx))  # [0, u, x]: u*x == x; [1, v, x]: x*v == x
    first, found = hits.argmax(axis=1).tolist(), hits.any(axis=1).tolist()
    left, right = (tuple(u if ok else None for u, ok in zip(us, oks))
                   for us, oks in zip(first, found))
    return SUnitalityWitness(left_units=left, right_units=right)


def _first(flags: np.ndarray) -> Optional[int]:
    """Index of the first true flag, or None."""
    return int(flags.argmax()) if flags.any() else None


def is_s_unital(T: FiniteRing) -> bool:
    return s_unitality(T).holds


def unity(T: FiniteRing) -> Optional[int]:
    """Two-sided unity, or None.  Note the one-element zero ring is unital (u = 0)."""
    return subring_unity(T.mul, range(T.order))


def subring_unity(M: np.ndarray, members: Sequence[int]) -> Optional[int]:
    """First two-sided unity of a subgroup, ascending members, viewed as a
    ring under the table M, or None.  This is grl's one unity search, so
    {0} is unital with u = 0 wherever a unity is asked for."""
    idx = np.asarray(members, dtype=np.intp)
    sub = M[idx[:, None], idx]  # sub[i, j] = members[i] * members[j]
    u = _first(((sub == idx) & (sub.T == idx)).all(axis=1))
    return None if u is None else int(idx[u])


def common_unit(T: FiniteRing, V: Iterable[int], side: str = "left") -> Optional[int]:
    """First u with u*v = v for all v in V (or v*u = v for side="right")."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    vs = set(V)
    bad = next((v for v in vs if not 0 <= v < T.order), None)
    if bad is not None:
        raise IndexError(f"{bad!r} is not an element of a ring of order {T.order}")
    mask = _common_fixers(T._fixers[side], vs)
    return (mask & -mask).bit_length() - 1 if mask else None  # the lowest set bit


def _common_fixers(cols: Sequence[int], vs: Iterable[int]) -> int:
    """AND of the fixer masks ``cols[v]`` over vs: the bitmask of every common
    unit of vs, so vs has one iff it is nonzero.  All bits are set for empty vs."""
    return reduce(and_, map(cols.__getitem__, vs), -1)


# ---------------------------------------------------------------------------
# subgroups and ideals


@dataclass(frozen=True)
class Subgroup:
    """Additive subgroup of a parent group, stored as a member set."""

    members: frozenset[int]

    def elements(self) -> tuple[int, ...]:
        return self._elements

    @cached_property
    def _elements(self) -> tuple[int, ...]:
        """The members in ascending order, sorted once per subgroup."""
        return tuple(sorted(self.members))

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)


def _grow(add, members: set[int], seeds: Iterable[int],
          edges: Optional[tuple[list, list, list]] = None) -> list[int]:
    """Grow the subgroup ``members`` in place by each seed in turn and return
    the seeds that enlarged it.

    A seed g outside the span H adds the cosets g + H, 2g + H, ... up to the
    first that is H again.  Cosets of H are equal or disjoint, so testing the
    first element of each next coset is enough and none is built twice.
    ``members`` must be a subgroup on entry; it is one again on return.

    Each coset is g plus the one before it, element by element.  Given
    three lists ``edges``, the growth appends to them the columns y, b and
    y + b of its spanning edges (see ``FiniteAdditiveGroup.edges``).
    """
    enlarged = []
    for g in seeds:
        if g in members:
            continue
        enlarged.append(g)
        row = add[g].tolist()  # plain ints: a numpy call per coset step costs more
        parents = members if edges is None else list(members)
        coset = [row[h] for h in parents]
        while coset[0] not in members:
            members.update(coset)
            if edges is not None:
                edges[0].extend([g] * len(coset))
                edges[1].extend(parents)
                edges[2].extend(coset)
            parents, coset = coset, [row[x] for x in coset]
        if edges is not None:  # the closing edge
            edges[0].append(g)
            edges[1].append(parents[0])
            edges[2].append(coset[0])
    return enlarged


def additive_closure(group: FiniteAdditiveGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seeds."""
    members = {0}
    _grow(group.add, members, seeds)
    return Subgroup(members=frozenset(members))


def _principal_left_ideal(T: FiniteRing, c: int) -> frozenset[int]:
    """Members of the left ideal generated by c, closed once per distinct
    seed set {0, c} ∪ Tc of the ring."""
    key = T._seed_keys[c].tobytes()
    members = T._closures.get(key)
    if members is None:
        seeds = {c, *T.mul[:, c].tolist()}
        members = T._closures[key] = additive_closure(T.additive, seeds).members
    return members


def left_ideal(T: FiniteRing, generators: Iterable[int]) -> Subgroup:
    """Left ideal generated by the given elements.

    The generators themselves are included so the result is the ideal
    generated by them even when T has no one-sided units.  It is the sum
    I + J = {i + j} of the principal left ideals of the generators.
    """
    first, *rest = [_principal_left_ideal(T, c) for c in set(generators)] or [frozenset((0,))]
    if rest:
        members = set(first)
        _grow(T.additive.add, members, chain.from_iterable(rest))
        first = frozenset(members)
    return Subgroup(members=first)


def is_left_ideal(T: FiniteRing, sub: Subgroup) -> bool:
    """Additive subgroup closed under left multiplication by every element of T."""
    add, neg, mul = T.additive.add, T.additive.neg, T.mul
    idx = np.fromiter(sub.members, dtype=np.int64, count=len(sub.members))
    inside = np.zeros(T.order, dtype=bool)
    inside[idx] = True
    return bool(inside[0] and inside[neg[idx]].all()
                and inside[add[idx[:, None], idx]].all() and inside[mul[:, idx]].all())


def idempotent_generator(T: FiniteRing, I: Subgroup) -> Optional[int]:
    """First u in I with u*u = u whose generated left ideal is exactly I."""
    if not is_left_ideal(T, I):
        raise NotAnIdealError("the given subgroup is not a left ideal",
                              tuple(I.elements()))
    for u in I.elements():
        if u in T._idempotents and _principal_left_ideal(T, u) == I.members:
            return u
    return None


# ---------------------------------------------------------------------------
# von Neumann regularity


@dataclass(frozen=True)
class RegularityWitness:
    """First quasi-inverse per element (r = r*y*r), or the first failing element."""

    holds: bool
    quasi_inverses: tuple[Optional[int], ...]
    failing: Optional[int]


def is_von_neumann_regular(T: FiniteRing) -> RegularityWitness:
    """The first quasi-inverse of each r before the first r that has none."""
    M = T.mul
    rs = np.arange(T.order)[:, None]
    regular = M[M, rs] == rs  # [r, y]: (r*y)*r == r
    failing = _first(~regular.any(axis=1))
    ys = regular.argmax(axis=1).tolist()[:failing]
    return RegularityWitness(holds=failing is None,
                             quasi_inverses=tuple(ys) + (None,) * (T.order - len(ys)),
                             failing=failing)


def ring_idempotents(T: FiniteRing) -> tuple[int, ...]:
    return tuple(sorted(T._idempotents))


def _first_non_idempotent_ideal(T: FiniteRing, max_generators: int) -> Optional[dict]:
    """First generator set, by size and then in ``combinations`` order, of at
    most ``max_generators`` elements whose left ideal has no idempotent
    generator, as {"generators", "ideal"}; None if there is none.  If the
    first failing set's ideal is not a left ideal, its ``NotAnIdealError``
    is raised.

    The ideal of a set is the sum of its generators' principal ideals, so
    each distinct sum gets an id and is decided once.  Singletons are scanned
    one by one, so a scan that stops early closes only the principal ideals
    it reached.  No set of three or more can fail first, on any table: an
    ideal that passes is the principal ideal of its idempotent generator u,
    so once every pair passes, the ideal of {a, b, c} is that of {u, c}, and
    so on up (the argument of Goodearl, Thm 1.1).  Pairs are not visited one
    by one: the sum of each two of the k distinct principal ideals is decided
    into a k x k table, and the generator pairs read it through their ids.
    """
    if max_generators < 1:
        return None
    index: dict[frozenset[int], int] = {}  # ideal -> id; ids count up, so ideal i is list(index)[i]
    verdicts: list = []  # per id: True, False (no idempotent generator) or the error

    def ideal_id(members: frozenset[int]) -> int:
        i = index.get(members)
        if i is None:
            i = index[members] = len(verdicts)
            try:
                verdicts.append(idempotent_generator(T, Subgroup(members=members)) is not None)
            except NotAnIdealError as err:
                verdicts.append(err)
        return i

    def found(gens: list[int], i: int) -> dict:
        if isinstance(verdicts[i], NotAnIdealError):
            raise verdicts[i]
        return {"generators": gens, "ideal": sorted(list(index)[i])}

    ids = []
    for c in T.elements():
        i = ideal_id(_principal_left_ideal(T, c))
        if verdicts[i] is not True:
            return found([c], i)
        ids.append(i)
    if max_generators < 2:
        return None

    principal = list(index)  # the k principal ideals, by id
    sums = np.empty((len(principal),) * 2, dtype=np.intp)  # [i, j]: the id of ideal i + ideal j
    for i, j in combinations_with_replacement(range(len(principal)), 2):
        members = set(principal[i])
        _grow(T.additive.add, members, principal[j])
        sums[i, j] = sums[j, i] = ideal_id(frozenset(members))
    fail = np.array([v is not True for v in verdicts])[sums]
    if not fail.any():  # else a cell off the diagonal is true, and some pair fails
        return None
    pairs = np.triu(fail[np.ix_(ids, ids)], 1)  # [c, d]: c < d and {c, d} fails
    c, d = divmod(int(pairs.argmax()), T.order)
    return found([c, d], int(sums[ids[c], ids[d]]))


def _first_subset_without_common_unit(cols: Sequence[int], max_subset: int
                                      ) -> Optional[list[int]]:
    """First subset of at most ``max_subset`` elements, by size and then in
    ``combinations`` order, whose fixer masks ``cols[v]`` AND to 0, or None.

    Only the distinct masks matter.  ``level`` holds every AND of at most
    ``size`` of them, so the first level that holds 0 gives the size of the
    smallest failing subset: a subset has at most as many distinct masks as
    elements, and one element per mask realises a failing AND.  Only the
    subsets of that size are scanned.
    """
    distinct = set(cols)
    level: set[int] = set()
    for size in range(1, max_subset + 1):
        grown = distinct | {x & d for x in level for d in distinct}
        if 0 in grown:
            return next(list(vs) for vs in combinations(range(len(cols)), size)
                        if not _common_fixers(cols, vs))
        if grown == level:
            return None
        level = grown
    return None


def check_vnr_characterization(T: FiniteRing, max_generators: int = 2,
                               side: str = "left") -> dict:
    """Three independent regularity verdicts that must coincide on s-unital rings.

    (i) brute-force r = r*y*r for every r; (ii) every principal one-sided
    ideal is generated by an idempotent; (iii) every ideal on at most
    ``max_generators`` generators is generated by an idempotent.

    Scan (ii) decides each distinct principal ideal once, ideal guard
    included, and stops at the first c whose ideal fails; scan (iii) decides
    each sum of two principal ideals once, in one table, and reads its first
    failing generator set from it, not by visiting the sets.  No set of more
    than two generators can fail first, so any bound finishes in the time of
    bound 2, at most linear in bound x order.  Neither reads the other's
    record, and (i) reads neither.
    """
    su = s_unitality(T)
    if not su.holds:
        return {
            "check": "vnr-characterization",
            "applicable": False,
            "reason": "ring is not s-unital",
            "left_failing": su.first_left_failure(),
            "right_failing": su.first_right_failure(),
        }
    work = T if side == "left" else opposite_ring(T)
    reg = is_von_neumann_regular(work)

    principal = True
    principal_failing = None
    decided: set[frozenset[int]] = set()
    for c in work.elements():
        I = left_ideal(work, [c])
        if I.members in decided:
            continue
        if idempotent_generator(work, I) is None:
            principal = False
            principal_failing = {"generator": c, "ideal": list(I.elements())}
            break
        decided.add(I.members)

    fg_failing = _first_non_idempotent_ideal(work, max_generators)
    finitely_generated = fg_failing is None

    return {
        "check": "vnr-characterization",
        "applicable": True,
        "side": side,
        "bound": max_generators,
        "vnr": reg.holds,
        "vnr_failing": reg.failing,
        "principal_ideals_idempotent": principal,
        "principal_failing": principal_failing,
        "finitely_generated_ideals_idempotent": finitely_generated,
        "finitely_generated_failing": fg_failing,
        "agree": reg.holds == principal == finitely_generated,
    }


def check_tominaga(T: FiniteRing, max_subset: int = 3) -> dict:
    """One-sided s-unitality must coincide with common units for small subsets."""
    su = s_unitality(T)
    out: dict = {"check": "tominaga", "applicable": True, "bound": max_subset}
    agree = True
    for side, unital in (("left", su.is_left), ("right", su.is_right)):
        failing = _first_subset_without_common_unit(T._fixers[side], max_subset)
        ok = failing is None
        out[side] = {"s_unital": unital, "common_units": ok, "failing_subset": failing,
                     "agree": unital == ok}
        agree = agree and unital == ok
    out["agree"] = agree
    return out
