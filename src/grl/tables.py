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
answer yes or no.  ``biadditive`` and ``associative_through`` compare whole
generator planes, both sides of a law for one generator and every pair of
elements, each side one gather.  Only when a proof answers no do the
validators run the ``first_*`` scans, which return the lexicographically
first violating tuple, so error contexts do not depend on table size or on
the generators; their planes are the first element of a tuple.  Proofs and
scans share one loop, ``_first_on_planes``, which runs whole planes, or row
blocks of a larger plane, in at most ``CELL_BUDGET`` cells and never builds
the whole cube of triples, so memory stays flat as tables grow.
``is_associative_flat`` is the one plain loop: it tests a single tiny
candidate table, as exhaustive enumeration produces them.
``associative_mask`` filters batches of tables of order at most 4 by
row/column lookup: (ab)c and a(bc) depend only on row a and column c, so
one lookup settles every b for a pair (a, c).
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache, cached_property
from itertools import chain, product
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
    are in lists.  A list is checked at once by the set of its cell types and
    of its values; only a list that fails that is scanned cell by cell.
    """
    if isinstance(table, np.ndarray):
        if table.ndim != 2 or table.dtype.kind not in "iu":
            return first_bad_index(table.tolist(), rows, cols, bound)
        if len(table) != rows:
            return (len(table),)
        if rows and table.shape[1] != cols:
            return (0, table.shape[1])
        if table.size == 0 or (table.min() >= 0 and table.max() < bound):
            return None
        a, b = np.argwhere((table < 0) | (table >= bound))[0].tolist()
        return (a, b, int(table[a, b]))
    if len(table) != rows:
        return (len(table),)
    try:
        ints = (set(map(len, table)) <= {cols}
                and set(map(type, chain.from_iterable(table))) <= {int})
    except TypeError:  # a row without a length: the scan raises there, in order
        ints = False
    if ints:
        values = set(chain.from_iterable(table))
        if not values or (min(values) >= 0 and max(values) < bound):
            return None
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


def biadditive(P, add_left, add_right, add_out, gens_left, gens_right) -> bool:
    """Is P bi-additive?  Checks the right law a(y+b) = ay + ab in full, for
    y in the array ``gens_right`` and every a, b, and the left law
    (x+a)b = xb + ab only on generator columns, for x in the array
    ``gens_left``, every a and b in ``gens_right``.

    The y for which the right law holds for every a, b are closed under
    addition, so in a finite group they are the whole group once they
    include a generating set: then every map b -> ab is additive.  So
    (x+a)b - xb - ab is additive in b, and it vanishes once it does on
    generators b.  The x for which the left law holds for every a, b are
    closed under addition too.  Generator pairs alone prove nothing: on Z4
    they never reach 3*b.

    Each law runs on whole generator planes, every a and b at once for a
    generator: a(y+b) and (x+a)b gather columns and rows of P, and the sums
    are one ``take`` on the flattened ``add_out``.
    """
    g, h = gens_left, gens_right
    w = add_out.shape[1]
    Ph = P[:, h]  # the generator columns
    right = _first_on_planes(len(h), *P.shape, lambda p, r: (
        P[r].take(add_right[h[p]], axis=1).swapaxes(0, 1),                   # a(y+b)
        add_out.take(P[r, h[p], None] * w + P[r, None, :]).swapaxes(0, 1)))  # ay + ab
    return right is None and _first_on_planes(len(g), len(P), len(h), lambda p, r: (
        Ph.take(add_left[g[p], r], axis=0),                                  # (x+a)b
        add_out.take(Ph[g[p], None] * w + Ph[None, r]))) is None             # xb + ab


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


MAX_MASK_ORDER = 4  # a row or column packs into 8 bits, a (row, column) pair into 16
_SPREAD = np.uint32(0x01041040)  # moves the low 2 bits of byte b to bits 24 + 2b


@cache
def _pair_table(n: int) -> np.ndarray:
    """ok[(row << 8) | col]: does col[row[b]] == row[col[b]] hold for every b?

    For the row of a and the column of c of a table T, those are (ab)c and
    a(bc).  Rows and columns are packed 2 bits a cell, cell b at bits 2b;
    only keys of n cells below n, with 0 beyond them, can be true.  Built on
    first use, not at import.
    """
    cells = np.array(list(product(range(n), repeat=n)), dtype=np.intp).reshape(-1, n)
    keys = (cells << 2 * np.arange(n)).sum(axis=1)
    lhs = cells[np.arange(len(cells))[None, :, None], cells[:, None, :]]  # col[row[b]]
    rhs = cells[np.arange(len(cells))[:, None, None], cells[None, :, :]]  # row[col[b]]
    ok = np.zeros(1 << 16, dtype=bool)
    ok[(keys[:, None] << 8) | keys[None, :]] = (lhs == rhs).all(axis=-1)
    return ok


def _pair_keys(packed: np.ndarray, a: int, c: int) -> np.ndarray:
    """``_pair_table`` index of row a and column c of each packed table."""
    row = (packed >> 8 * a) & 0xFF
    col = (((packed >> 2 * c) & 0x03030303) * _SPREAD) >> 24  # cell (x, c) to bits 2x
    return (row << 8) | col


def associative_mask(tabs: np.ndarray) -> np.ndarray:
    """One bool per Cayley table of a batch (m, n, n) with n <= 4, in batch order.

    A table is associative when, for every row a and column c, the pair
    passes ``_pair_table``: one lookup per (a, c) instead of one test per
    triple.  Each table is zero-padded to 4 x 4 and packed into one uint32,
    2 bits a cell, cell (a, b) at bit 8a + 2b, so row a is byte a and column
    c gathers by one multiply.  Row 0 and the last column are looked up for
    the whole batch; few tables pass, and only those look up every pair.
    """
    m, n = len(tabs), tabs.shape[-1]
    if n > MAX_MASK_ORDER:
        raise ValueError(f"associative_mask takes orders up to {MAX_MASK_ORDER}, not {n}")
    ok = _pair_table(n)
    cells = np.zeros((m, 4, 4), dtype=np.uint8)
    cells[:, :n, :n] = tabs
    rows = cells.view("<u4")[..., 0]  # (m, 4): row a of each table as one word
    rows *= _SPREAD
    rows >>= 24  # ... packed into 8 bits
    packed = rows.astype(np.uint8).view("<u4")[:, 0]
    live = np.flatnonzero(ok.take(_pair_keys(packed, 0, n - 1)))
    for a, c in product(range(n), repeat=2):
        if live.size == 0:
            break
        live = live[ok.take(_pair_keys(packed[live], a, c))]
    mask = np.zeros(m, dtype=bool)
    mask[live] = True
    return mask
