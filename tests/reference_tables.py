"""Plain-loop reference for the table axioms, for checking grl.tables against.

Each function scans in the same order as the validators and reports the
first violation as (error class, context tuple), or None when the axioms
hold.  Inputs are assumed in range: the range checks are not repeated here.
"""

from __future__ import annotations

from itertools import product

import numpy as np

import reference_semigroups
from grl.errors import (
    AdditiveGroupError,
    BilinearityError,
    CodomainError,
    DistributivityError,
    GradedAssociativityError,
    IdentityViolationError,
    NotAssociativeError,
    NotGoodError,
    OutOfRangeError,
)
from grl.semigroups import FiniteSemigroup


def _bad_index(v, bound) -> bool:
    return not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < bound


def ring_index_error(table, n, what):
    """First range fault of a ring's n x n index table, cell by cell, as
    (error class, message, context); None if there is none."""
    if len(table) != n:
        return (OutOfRangeError, f"{what} has {len(table)} rows, expected {n}", ())
    for a, row in enumerate(table):
        if len(row) != n:
            return (OutOfRangeError, f"{what} row {a} has length {len(row)}, expected {n}",
                    (a,))
        for b, v in enumerate(row):
            if _bad_index(v, n):
                return (OutOfRangeError,
                        f"{what}[{a}][{b}] = {v!r} is not an index in [0, {n})", (a, b, v))
    return None


def semigroup_index_error(table):
    """First range fault of a semigroup's square index table, cell by cell,
    as (error class, message, context); None if there is none."""
    n = len(table)
    for a, row in enumerate(table):
        if len(row) != n:
            return (OutOfRangeError, f"row {a} has length {len(row)}, expected {n}", (a,))
        for b, v in enumerate(row):
            if _bad_index(v, n):
                return (OutOfRangeError,
                        f"table[{a}][{b}] = {v!r} is not an index in [0, {n})", (a, b, v))
    return None


def degree_index_error(deg, order):
    """First range fault of a square degree map over a base of ``order``
    elements, cell by cell, as (error class, message, context); None if
    there is none."""
    n = len(deg)
    for i, row in enumerate(deg):
        if len(row) != n:
            return (NotGoodError, f"degree row {i} has length {len(row)}, expected {n}", (i,))
        for j, v in enumerate(row):
            if _bad_index(v, order):
                return (OutOfRangeError, f"deg[{i}][{j}] = {v!r} is not a base element",
                        (i, j, v))
    return None


def product_index_error(R, s, t, raw):
    """First codomain fault of the raw product table (s, t) of graded ring R,
    cell by cell, as (error class, message, context); None if there is none."""
    st = R.target(s, t)
    rows, cols, out = (R.components[x].order for x in (s, t, st))
    if len(raw) != rows:
        return (CodomainError, f"product ({s}, {t}) has {len(raw)} rows, expected {rows}",
                (s, t))
    for a, row in enumerate(raw):
        if len(row) != cols:
            return (CodomainError,
                    f"product ({s}, {t}) row {a} has length {len(row)}, expected {cols}",
                    (s, t, a))
        for b, v in enumerate(row):
            if _bad_index(v, out):
                return (CodomainError,
                        f"product ({s}, {t})[{a}][{b}] = {v!r} not an index in R_{st}",
                        (s, t, a, b, v))
    return None


def assoc_violation(t) -> tuple | None:
    n = len(t)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return (a, b, c)
    return None


def row_pair_holds(rows: dict) -> bool:
    """Does (ab)c == a(bc) hold for every c, and every a, b among the given
    rows {a: row a} of an order-4 table whose product ab is among them too?"""
    for a, b, c in product(rows, rows, range(4)):
        ab = rows[a][b]
        if ab in rows and rows[ab][c] != rows[a][rows[b][c]]:
            return False
    return True


def semigroup_violation(table):
    bad = assoc_violation(table)
    return None if bad is None else (NotAssociativeError, bad)


def additive_group_violation(add, neg):
    n = len(add)
    for x in range(n):
        for y in range(n):
            if add[x][y] != add[y][x]:
                return (AdditiveGroupError, (x, y))
    for x in range(n):
        if add[0][x] != x:
            return (AdditiveGroupError, (x,))
    for x in range(n):
        if add[x][neg[x]] != 0:
            return (AdditiveGroupError, (x,))
    bad = assoc_violation(add)
    return None if bad is None else (AdditiveGroupError, bad)


def ring_violation(add, neg, mul):
    bad = additive_group_violation(add, neg)
    if bad is not None:
        return bad
    bad = assoc_violation(mul)
    if bad is not None:
        return (NotAssociativeError, bad)
    n = len(add)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    return (DistributivityError, (a, b, c))
        for b in range(n):
            for c in range(n):
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    return (DistributivityError, (a, b, c))
    return None


def groupoid_violation(dom, cod, table):
    """Associativity of composition, over composable triples only."""
    m = len(dom)
    for g in range(m):
        for h in range(m):
            if dom[g] != cod[h]:
                continue
            for k in range(m):
                if dom[h] != cod[k]:
                    continue
                if table[table[g][h]][k] != table[g][table[h][k]]:
                    return (NotAssociativeError, (g, h, k))
    return None


def groupoid_identities(n_objects, dom, cod, table):
    """The identity morphism of each object, as ``validate_groupoid`` searches
    for it; ``table`` holds None off the composable pairs."""
    m = len(dom)
    identity = []
    for e in range(n_objects):
        found = None
        for i in range(m):
            if dom[i] != e or cod[i] != e:
                continue
            left_ok = all(table[i][g] == g for g in range(m) if cod[g] == e)
            right_ok = all(table[g][i] == g for g in range(m) if dom[g] == e)
            if left_ok and right_ok:
                found = i
                break
        if found is None:
            return (IdentityViolationError, (e,))
        identity.append(found)
    return tuple(identity)


def as_lists(table):
    """A table, list or array, as nested lists of Python ints, so that the
    loops here never index an array cell by cell."""
    return np.asarray(table).tolist()


def biadditivity_violation(table, add_left, add_right, add_out):
    """First (a, a', b) breaking (a+a')b = ab + a'b, else first (a, b, b')
    breaking a(b+b') = ab + ab', else None."""
    table, add_left, add_right, add_out = map(as_lists, (table, add_left, add_right, add_out))
    rows, cols = len(add_left), len(add_right)
    for a in range(rows):
        for a2 in range(rows):
            for b in range(cols):
                if table[add_left[a][a2]][b] != add_out[table[a][b]][table[a2][b]]:
                    return (a, a2, b)
    for a in range(rows):
        for b in range(cols):
            for b2 in range(cols):
                if table[a][add_right[b][b2]] != add_out[table[a][b]][table[a][b2]]:
                    return (a, b, b2)
    return None


def _target(base, s, t):
    if isinstance(base, FiniteSemigroup):
        return reference_semigroups.mul(base, s, t)
    return base.compose(s, t) if base.composable(s, t) else None


def grading_violation(base, components, products):
    """Bi-additivity of every table, then graded associativity of every triple."""
    is_semigroup = isinstance(base, FiniteSemigroup)
    n = len(components)
    add = [as_lists(g.add) for g in components]
    products = {key: as_lists(table) for key, table in products.items()}
    for (s, t), table in sorted(products.items()):
        st = _target(base, s, t)
        bad = biadditivity_violation(table, add[s], add[t], add[st])
        if bad is not None:
            return (BilinearityError, (s, t, *bad))

    def table_or_zero(s, t):
        got = products.get((s, t))
        if got is not None:
            return got
        return tuple((0,) * components[t].order for _ in range(components[s].order))

    if is_semigroup:
        triples = [(s, t, u) for s in range(n) for t in range(n) for u in range(n)]
    else:
        triples = [(s, t, u) for s in range(n) for t in range(n) for u in range(n)
                   if base.composable(s, t) and base.composable(t, u)]
    for (s, t, u) in triples:
        st, tu = _target(base, s, t), _target(base, t, u)
        left_present, right_present = (s, t) in products, (t, u) in products
        if not left_present and not right_present:
            continue
        p_st, p_tu = table_or_zero(s, t), table_or_zero(t, u)
        p_st_u, p_s_tu = table_or_zero(st, u), table_or_zero(s, tu)
        if left_present and right_present:
            for a in range(components[s].order):
                for b in range(components[t].order):
                    for c in range(components[u].order):
                        if p_st_u[p_st[a][b]][c] != p_s_tu[a][p_tu[b][c]]:
                            return (GradedAssociativityError, (s, t, u, a, b, c))
        elif left_present:
            for ab in sorted({v for row in p_st for v in row}):
                for c in range(components[u].order):
                    if p_st_u[ab][c] != 0:
                        return (GradedAssociativityError, (s, t, u, ab, c))
        else:
            for bc in sorted({v for row in p_tu for v in row}):
                for a in range(components[s].order):
                    if p_s_tu[a][bc] != 0:
                        return (GradedAssociativityError, (s, t, u, a, bc))
    return None


def enumerate_tables(order: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every associative table, by filtering all of them in lexicographic order."""
    out = []
    for flat in product(range(order), repeat=order * order):
        table = tuple(flat[i * order:(i + 1) * order] for i in range(order))
        if assoc_violation(table) is None:
            out.append(table)
    return out


def sample_tables(order: int, count: int, seed: int,
                  batch: int = 200_000) -> list[tuple[tuple[int, ...], ...]]:
    """Rejection sampling with its own filter: the same PCG64 draws as
    sample_semigroups, filtered one triple at a time by shrinking the batch."""
    triples = list(product(range(order), repeat=3))
    rng = np.random.Generator(np.random.PCG64(seed))
    found: list[tuple[tuple[int, ...], ...]] = []
    while len(found) < count:
        tabs = rng.integers(0, order, size=(batch, order, order), dtype=np.int64)
        for (a, b, c) in triples:
            if len(tabs) == 0:
                break
            idx = np.arange(len(tabs))
            lhs = tabs[idx, tabs[idx, a, b], c]
            rhs = tabs[idx, a, tabs[idx, b, c]]
            tabs = tabs[lhs == rhs]
        for t in tabs:
            found.append(tuple(tuple(int(v) for v in row) for row in t))
    return found[:count]
