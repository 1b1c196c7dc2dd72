"""The table axioms, associativity and bi-additivity, checked on integer arrays.

Every validator in grl calls this module; nothing else checks a table axiom.
A product table P has ``P[a, b]`` = index of a*b.  ``frozen`` gives the
read-only intp array in which grl stores every table, and
``ComparedByTables`` compares the structures that store them by value.
``Memo`` keeps structures and tables built from a key for the life of the
process, within a bound on the table cells it holds, and ``bare`` copies a
structure without its caches.
Tables over additive groups are first accepted on generators: ``biadditive``,
``agree_on_generators`` and ``associative_through`` are complete proofs that
answer yes or no.  ``biadditive`` compares both sides of each law along the
spanning edges of the groups' greedy growth, a polycyclic presentation:
one edge per element and one closing edge per generator.
``associative_through`` compares whole generator planes, both sides of a
law for one generator and every pair of elements, each side one gather.
Only when a proof answers no do the validators run the ``first_*`` scans,
which return the lexicographically first violating tuple, so error contexts
do not depend on table size or on the generators; their planes are the
first element of a tuple.  Proofs and scans share one loop,
``_first_on_planes``, which runs whole planes, or row blocks of a larger
plane, in at most ``CELL_BUDGET`` cells and never builds the whole cube of
triples, so memory stays flat as tables grow.
``is_associative_flat`` is the one plain loop: it tests a single tiny
candidate table, as exhaustive enumeration produces them.
``associative_mask`` filters batches of order-4 tables by one law: a table
is associative exactly when, for every a and b, the row of ab is row a
composed with row b, since (ab)c = a(bc) for every c.  ``_compositions``
tabulates that composition for all pairs of packed rows.  Two screens, the
law restricted to rows 0-1 and to rows 2-3, pass the whole batch through
one lookup each, and only the few tables that pass both check all 16 pairs.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache, cached_property
from itertools import product
from threading import Lock
from typing import Callable, Optional, Sequence

import numpy as np

# cells per run of _first_on_planes: whole planes, as many as fit, or row
# blocks of a larger plane; 64 KiB per int64 array
CELL_BUDGET = 8192


def frozen(table) -> np.ndarray:
    """``table`` as a read-only intp array, the one form grl stores a table
    in.  A read-only intp array is returned as it is; anything else is
    copied, so the caller's own array is never frozen under it."""
    if isinstance(table, np.ndarray) and table.dtype == np.intp and not table.flags.writeable:
        return table
    out = np.array(table, dtype=np.intp)
    out.flags.writeable = False
    return out


class ComparedByTables:
    """Base of the frozen dataclasses that store tables.  A field annotated
    ``np.ndarray`` is stored ``frozen``.  ``==`` and ``hash`` compare the
    fields, arrays (also those in a dict field) by shape and bytes, so equal
    tables built on different paths compare equal.  Pickling rebuilds
    through the constructor from the fields alone, so a copy stores
    read-only tables and starts with empty caches."""

    def __post_init__(self):
        for f in fields(self):
            if f.type in ("np.ndarray", np.ndarray):
                object.__setattr__(self, f.name, frozen(getattr(self, f.name)))

    @cached_property
    def _key(self) -> tuple:
        return tuple(_by_value(getattr(self, f.name)) for f in fields(self))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def bare(value):
    """A structure made anew through its constructor from its fields, each
    structure field bare too: it shares the read-only tables and starts with
    no cache.  Any other value is returned as it is."""
    if not isinstance(value, ComparedByTables):
        return value
    return type(value)(*(bare(getattr(value, f.name)) for f in fields(value)))


def _table_cells(value) -> int:
    """Cells of the arrays held in ``value``: in a structure's fields, a
    tuple's items and a dict's values."""
    if isinstance(value, np.ndarray):
        return value.size
    if isinstance(value, ComparedByTables):
        return sum(_table_cells(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, tuple):
        return sum(map(_table_cells, value))
    if isinstance(value, dict):
        return sum(map(_table_cells, value.values()))
    return 0


class Memo:
    """Values built once per key and kept for the life of the process while
    the arrays of everything kept, keys included, hold at most ``cells``
    cells.  Once that is spent, a new key's value is built on every call and
    not kept; nothing is ever evicted, so what is kept does not depend on
    the order of later calls.  A key is a tuple, and the structures in it
    are kept ``bare``, without the caches of the caller's instances.  Two
    threads may both build a missing value; one of them is kept."""

    def __init__(self, cells: int):
        self.cells = cells
        self.held = 0
        self._kept: dict = {}
        self._lock = Lock()

    def get(self, key: tuple, build: Callable[[], object]):
        try:
            return self._kept[key]
        except KeyError:
            pass
        value = build()
        size = _table_cells(key) + _table_cells(value)
        with self._lock:
            if key not in self._kept and self.held + size <= self.cells:
                self._kept[tuple(map(bare, key))] = value
                self.held += size
        return value

    def __len__(self) -> int:
        return len(self._kept)


def _by_value(value):
    """A field value in a hashable form that compares arrays by value."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, dict):
        return tuple(sorted((key, _by_value(v)) for key, v in value.items()))
    return value


def first_bad_index(table: Sequence[Sequence[int]], rows: int, cols: int,
                    bound: int) -> Optional[tuple]:
    """None if ``table`` has ``rows`` rows of ``cols`` ints (bools excluded)
    in [0, bound).  Otherwise the first fault in row order, each row's length
    before its cells: ``(len(table),)`` for the row count, ``(a, len(row))``
    for a row length, ``(a, b, v)`` for a cell.

    A 2-D integer array is checked by its shape and its least and greatest
    cell, and a faulty cell is reported as a plain int.  Any other array is
    checked as its ``tolist()``, so bool and float cells are refused as they
    are in lists.  A list is scanned cell by cell.
    """
    if len(table) != rows:
        return (len(table),)
    if isinstance(table, np.ndarray):
        if table.ndim != 2 or table.dtype.kind not in "iu":
            return first_bad_index(table.tolist(), rows, cols, bound)
        if rows and table.shape[1] != cols:
            return (0, table.shape[1])
        if table.size == 0 or (table.min() >= 0 and table.max() < bound):
            return None
        a, b = np.argwhere((table < 0) | (table >= bound))[0].tolist()
        return (a, b, int(table[a, b]))
    for a, row in enumerate(table):
        if len(row) != cols:
            return (a, len(row))
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < bound:
                return (a, b, v)
    return None  # every cell is an int subclass other than bool


def _first_on_planes(planes: int, rows: int, width: int, sides) -> Optional[tuple]:
    """First (plane, row, column) where two sides differ on ``planes`` planes
    of ``rows`` x ``width`` cells, in that order, or None if they agree.

    ``sides(p, r)`` maps a slice of planes and a slice of rows to two arrays
    of shape (planes, rows, width), or broadcasting to it, that hold both
    sides on those cells.  Each run holds at most ``CELL_BUDGET`` cells:
    whole planes, as many as fit, or row blocks of one plane that does not
    fit.  Runs go in plane order, then row order, and the first cell of a run
    is found in C order, so the result is the lexicographically first.
    """
    cells = rows * width
    if cells <= CELL_BUDGET:
        per_run, per_block = max(1, CELL_BUDGET // max(1, cells)), rows
    else:
        per_run, per_block = 1, max(1, CELL_BUDGET // width)
    for p in range(0, planes, per_run):
        for r in range(0, rows, per_block):
            lhs, rhs = sides(slice(p, p + per_run), slice(r, r + per_block))
            differ = lhs != rhs
            if differ.any():
                q, s, k = np.unravel_index(differ.argmax(), differ.shape)
                return (p + int(q), r + int(s), int(k))
    return None


def first_assoc_violation(p_ab, p_ab_c, p_bc, p_a_bc) -> Optional[tuple[int, int, int]]:
    """First (a, b, c) where (ab)c = p_ab_c[p_ab[a, b], c] differs from
    a(bc) = p_a_bc[a, p_bc[b, c]].  For one table T: (T, T, T, T)."""
    return _first_on_planes(*p_ab.shape, p_bc.shape[1], lambda a, b: (
        p_ab_c[p_ab[a, b]], p_a_bc[a][:, p_bc[b]]))


def first_biadditivity_violation(P, add_left, add_right, add_out) -> tuple:
    """(first (a, a', b) with (a+a')b != ab + a'b, first (a, b, b') with
    a(b+b') != ab + ab'), each None if its law holds.  A ring's two-sided
    distributivity is (M, A, A, A)."""
    rows, cols = P.shape
    left = _first_on_planes(rows, rows, cols, lambda a, a2: (
        P[add_left[a, a2]], add_out[P[a, None], P[None, a2]]))
    right = _first_on_planes(rows, cols, cols, lambda a, b: (
        P[a][:, add_right[b]], add_out[P[a, b, None], P[a, None]]))
    return left, right


def associative_through(T, gens) -> bool:
    """Does (xg)y = x(gy) hold for g in the array ``gens`` and every x, y?

    Light's test (Clifford and Preston 1961, §1.2): the g that pass are
    closed under the product, since (x(gh))y = ((xg)h)y = (xg)(hy) =
    x(g(hy)) = x((gh)y).  So once every element is a product of the given
    g, passing proves T associative in n^2 steps per g instead of n^3.
    The plane of g holds both sides for every x, y: (xg)y gathers the rows
    xg of T, and x(gy) the columns gy.
    """
    n = len(T)
    return _first_on_planes(len(gens), n, n, lambda p, r: (
        T.take(T[r, gens[p]], axis=0).swapaxes(0, 1),           # (xg)y
        T[r].take(T[gens[p]], axis=1).swapaxes(0, 1))) is None  # x(gy)


def biadditive(P, add_out, edges_left, edges_right, gens_right) -> bool:
    """Is P bi-additive?  Checks the right law a(y+b) = ay + ab for every a
    and every edge (y, b) of the right group, and the left law
    (x+a)b = xb + ab for every edge (x, a) of the left group and b in
    ``gens_right``.  Edges are (3, m) arrays of columns (y, b, y + b), as
    ``FiniteAdditiveGroup.edges``; the right group and ``add_out`` must be
    groups.

    Greedy growth is a polycyclic presentation (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005): H_i = <g_1, ..., g_i> is
    H_{i-1} + {0, g_i, ..., (k-1)g_i} with k g_i in H_{i-1}.  So a map f
    that respects every edge is additive.  Edge (0, 0) gives f(0) = 0.  If
    f is a homomorphism on H_{i-1}, the edge g + ((j-1)g + h) of each new
    element gives f(jg + h) = j f(g) + f(h), and the closing edge gives
    f(kg + h_0) = k f(g) + f(h_0), so f(kg) = k f(g), the one relation of
    g: f is a homomorphism on H_i.

    So the right law, on |R_s|(|R_t| + r_t) cells, makes every map b -> ab
    additive.  Then (x+a)b - xb - ab is additive in b and vanishes once it
    does on generators b, and a -> ab for a generator b is additive once it
    is on the edges of R_s: (|R_s| + r_s) r_t cells.  Generator pairs alone
    prove nothing: on Z4 they never reach 3*b.  Each term is one gather of
    P, and the sums are one ``take`` on the flattened ``add_out``.
    """
    y, b, yb = edges_right
    x, a, xa = edges_left
    w = add_out.shape[1]
    Ph = P[None, :, gens_right]  # the generator columns

    def right(_, r):
        rows = P[None, r]
        return (rows.take(yb, axis=2),                                           # a(y+b)
                add_out.take(rows.take(y, axis=2) * w + rows.take(b, axis=2)))  # ay + ab

    def left(_, r):
        return (Ph.take(xa[r], axis=1),                                         # (x+a)b
                add_out.take(Ph.take(x[r], axis=1) * w + Ph.take(a[r], axis=1)))  # xb + ab

    return (_first_on_planes(1, len(P), len(yb), right) is None
            and _first_on_planes(1, len(xa), len(gens_right), left) is None)


def agree_on_generators(gens_a, gens_b, gens_c, left, right) -> bool:
    """Do (ab)c and a(bc) agree for a, b, c in the given generator arrays?

    ``left`` is (p_ab, p_ab_c) and ``right`` is (p_bc, p_a_bc), or None for
    a side that is the zero map.  Once every table is bi-additive both sides
    are tri-additive, so agreeing on generators is agreeing everywhere.
    """
    a, b, c = gens_a[:, None, None], gens_b[None, :, None], gens_c
    lhs = 0 if left is None else left[1][left[0][a, b], c]
    rhs = 0 if right is None else right[1][a, right[0][b, c]]
    return np.count_nonzero(lhs != rhs) == 0


def first_nonzero(P, rows) -> Optional[tuple[int, int]]:
    """First (x, k) with P[x, k] != 0, x running over ``rows`` in order: graded
    associativity where one side is the zero map, on the image feeding the other."""
    found = _first_on_planes(1, len(rows), P.shape[1], lambda _, r: (P[None, rows[r]], 0))
    return None if found is None else (int(rows[found[1]]), found[2])


def is_associative_flat(flat, n: int) -> bool:
    """Is the n x n table with row-major cells ``flat`` associative?"""
    for a in range(n):
        an = a * n
        for b in range(n):
            abn = flat[an + b] * n
            bn = b * n
            for c in range(n):
                if flat[abn + c] != flat[an + flat[bn + c]]:
                    return False
    return True


_SPREAD = np.uint32(0x01041040)  # moves the low 2 bits of byte b to bits 24 + 2b


@cache
def _compositions() -> np.ndarray:
    """comp[x, y]: the packed row c -> x[y[c]], for rows x and y of an
    order-4 table packed 2 bits a cell, cell c at bits 2c.  comp[row a,
    row b] is the row c -> a(bc), which the row of ab must equal.  Built on
    first use, not at import: 64 KiB.
    """
    r = np.arange(256, dtype=np.uint8)
    comp = np.zeros((256, 256), dtype=np.uint8)
    for c in range(4):
        comp |= ((r[:, None] >> (((r >> 2 * c) & 3) << 1)) & 3) << 2 * c
    comp.flags.writeable = False
    return comp


@cache
def _row_pair_tables() -> tuple[np.ndarray, np.ndarray]:
    """(low, high): ok[row p | row p+1 << 8] for the pairs p = 0 and p = 2
    of an order-4 table: is the row of ab row a composed with row b, for
    every a, b in the pair whose product ab is in the pair too?

    The law on those pairs reads only the pair's two rows.  Built on first
    use, not at import, from ``_compositions``, every step a 64 KiB array.
    """
    comp = _compositions()
    r = np.arange(256, dtype=np.uint8)
    rows = (r[None, :], r[:, None])  # over all keys in order, indexed [row p+1, row p]

    def table(p: int) -> np.ndarray:
        ok = np.ones((256, 256), dtype=bool)
        for i, j, k in product(range(2), repeat=3):  # a = p+i, b = p+j, ab = p+k
            ab = (rows[i] >> 2 * (p + j)) & 3
            ok &= (ab != p + k) | (rows[k] == comp[rows[i], rows[j]])
        return ok.reshape(-1)

    return table(0), table(2)


def _packed_rows(tabs: np.ndarray) -> np.ndarray:
    """(m, 4) uint8: each row of a batch (m, 4, 4) packed into 8 bits, cell b
    at bits 2b."""
    cells = np.ascontiguousarray(tabs, dtype=np.uint8)
    words = np.multiply(cells.view("<u4")[..., 0], _SPREAD)  # row a as one word
    return np.right_shift(words, 24, out=np.empty(words.shape, dtype=np.uint8),
                          casting="unsafe")


def associative_mask(tabs: np.ndarray) -> np.ndarray:
    """One bool per Cayley table of a batch (m, 4, 4), in batch order.

    A table is associative when, for every a and b, the row of ab is row a
    composed with row b, read from ``_compositions``.  The two
    ``_row_pair_tables`` lookups, that law on rows 0-1 and then rows 2-3,
    first screen the whole batch; the few tables that pass both settle all
    16 pairs (a, b) in one gather.
    """
    if tabs.shape[1:] != (4, 4):
        raise ValueError(f"associative_mask takes (m, 4, 4) batches, not {tabs.shape}")
    rows = _packed_rows(tabs)
    low, high = _row_pair_tables()
    pairs = rows.view("<u2")  # (m, 2): rows 0-1 and rows 2-3 of each table
    live = np.flatnonzero(low.take(pairs[:, 0]))
    live = live[high.take(pairs[live, 1])]
    kept = rows[live]  # (k, 4); below, (k, 16) arrays over the pairs (a, b)
    ab = kept.take(tabs[live].reshape(-1, 16) + np.arange(0, kept.size, 4)[:, None])  # row ab
    a_b = (kept[:, :, None].astype(np.uint16) << 8) | kept[:, None, :]  # row a, row b
    mask = np.zeros(len(tabs), dtype=bool)
    mask[live] = (ab == _compositions().take(a_b.reshape(-1, 16))).all(axis=1)
    return mask
