"""The table axioms, associativity and bi-additivity, checked on integer arrays.

Every validator in grl calls this module; nothing else checks a table axiom.
A product table P has ``P[a, b]`` = index of a*b.  Tables over additive
groups are first accepted on generators: ``biadditive`` and
``agree_on_generators`` are complete proofs that answer yes or no.  Only
when they answer no do the validators run the ``first_*`` scans, which
return the lexicographically first violating tuple, so error contexts do not
depend on table size or on the generators.  Comparisons run in slabs of at
most ``CELL_BUDGET`` cells and never build the whole cube of triples, so
memory stays flat as tables grow.  ``is_associative_flat`` is the one plain
loop: it tests a single tiny candidate table, as exhaustive enumeration
produces them.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

import numpy as np

CELL_BUDGET = 8192  # cells per compared slab; 64 KiB per int64 array


def _first_mismatch(n_i: int, n_j: int, width: int, sides) -> Optional[tuple]:
    """First (i, j, k) where the sides differ, scanning (i, j) row-major.

    ``sides(i, j)`` maps equal-length index vectors to two (len(i), width)
    arrays whose entry [r, k] belongs to (i[r], j[r], k).
    """
    step = max(1, CELL_BUDGET // max(1, width))
    for start in range(0, n_i * n_j, step):
        i, j = np.divmod(np.arange(start, min(start + step, n_i * n_j)), n_j)
        lhs, rhs = sides(i, j)
        differ = lhs != rhs
        if differ.any():
            r, k = divmod(int(np.flatnonzero(differ)[0]), width)
            return (int(i[r]), int(j[r]), k)
    return None


def first_assoc_violation(p_ab, p_ab_c, p_bc, p_a_bc) -> Optional[tuple[int, int, int]]:
    """First (a, b, c) where (ab)c = p_ab_c[p_ab[a, b], c] differs from
    a(bc) = p_a_bc[a, p_bc[b, c]].  For one table T: (T, T, T, T)."""
    return _first_mismatch(*p_ab.shape, p_bc.shape[1], lambda a, b: (
        p_ab_c[p_ab[a, b]], p_a_bc[a[:, None], p_bc[b]]))


def first_biadditivity_violation(P, add_left, add_right, add_out) -> tuple:
    """(first (a, a', b) with (a+a')b != ab + a'b, first (a, b, b') with
    a(b+b') != ab + ab'), each None if its law holds.  A ring's two-sided
    distributivity is (M, A, A, A)."""
    rows, cols = P.shape
    left = _first_mismatch(rows, rows, cols, lambda a, a2: (
        P[add_left[a, a2]], add_out[P[a], P[a2]]))
    right = _first_mismatch(rows, cols, cols, lambda a, b: (
        P[a[:, None], add_right[b]], add_out[P[a, b][:, None], P[a]]))
    return left, right


def biadditive(P, add_left, add_right, add_out, gens_left, gens_right) -> bool:
    """Is P bi-additive?  Checks (x+a)b = xb + ab for x in the array
    ``gens_left`` and every a, b, and a(y+b) = ay + ab for y in the array
    ``gens_right`` and every a, b.

    The x for which the first law holds for every a, b are closed under
    addition, so in a finite group they are the whole group once they
    include a generating set; likewise on the right.  Generator pairs alone
    prove nothing: on Z4 they never reach 3*b.
    """
    g, h = gens_left, gens_right
    rows, cols = P.shape
    return (_first_mismatch(len(g), rows, cols, lambda i, a: (
                P[add_left[g[i], a]], add_out[P[g[i]], P[a]])) is None
            and _first_mismatch(rows, len(h), cols, lambda a, j: (
                P[a[:, None], add_right[h[j]]], add_out[P[a, h[j]][:, None], P[a]])) is None)


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
    found = _first_mismatch(len(rows), 1, P.shape[1], lambda r, _: (P[rows[r]], 0))
    return None if found is None else (int(rows[found[0]]), found[2])


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


def associative_mask(tabs: np.ndarray) -> np.ndarray:
    """One bool per Cayley table of a batch (m, n, n), in batch order.

    Triples are tested one at a time on the tables still alive; a random
    table almost always fails within a few, so a batch costs about one pass.
    Cells are gathered from the flat batch in its own dtype: ``base`` holds
    the flat offset t*n*n of each live table t, and a cell used as a row
    index is widened to intp as it is scaled, so narrow cells never overflow.
    """
    m, n = len(tabs), tabs.shape[-1]
    flat = np.ascontiguousarray(tabs).reshape(-1)
    base = np.arange(0, m * n * n, n * n)
    for a, b, c in product(range(n), repeat=3):
        if base.size == 0:
            break
        ab_row = np.multiply(flat.take(base + (a * n + b)), n, dtype=base.dtype)
        lhs = flat.take(base + c + ab_row)  # (ab)c
        base = base[lhs == flat.take(base + a * n + flat.take(base + (b * n + c)))]  # a(bc)
    mask = np.zeros(m, dtype=bool)
    mask[base // (n * n)] = True
    return mask
