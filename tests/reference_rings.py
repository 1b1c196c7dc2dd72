"""Plain-loop reference for the ring searches, for checking grl.rings against.

These are the element-by-element scans that ``common_unit``, ``left_ideal``,
``idempotent_generator``, ``check_tominaga`` and
``check_vnr_characterization`` replace with fixer bitmasks and cached
principal ideals, and the breadth-first closure that ``additive_closure``
replaces with coset growth.  They take the same arguments, scan in the same
order and return the same values and report dicts.

``multiples_ring``, ``product_ring`` and ``matrix_ring`` build their tables
one element pair at a time through ``ring_from_ops`` and Python closures,
where grl.rings computes whole tables with numpy index arithmetic.
"""

from __future__ import annotations

from itertools import combinations, product

from grl.errors import NotAnIdealError
from grl.rings import (
    Subgroup,
    is_von_neumann_regular,
    opposite_ring,
    ring_from_ops,
    s_unitality,
)


def multiples_ring(k, n, zero_product=False):
    """The subring {0, k, 2k, ...} of the integers mod n, or its additive
    group with every product 0."""
    return ring_from_ops(list(range(0, n, k)),
                         lambda a, b: (a + b) % n,
                         lambda a: (-a) % n,
                         lambda a, b: 0 if zero_product else a * b % n)


def product_ring(*factors):
    """Componentwise operations; elements enumerated lexicographically."""
    return ring_from_ops(
        list(product(*(range(T.order) for T in factors))),
        lambda a, b: tuple(T.plus(x, y) for T, x, y in zip(factors, a, b)),
        lambda a: tuple(T.negate(x) for T, x in zip(factors, a)),
        lambda a, b: tuple(T.times(x, y) for T, x, y in zip(factors, a, b)),
    )


def matrix_ops(T, k):
    """Elements of M_k(T), row-major entry tuples in lexicographic order, and
    their sum, negative and product as closures over tuples."""
    elems = list(product(range(T.order), repeat=k * k))

    def plus(a, b):
        return tuple(T.plus(x, y) for x, y in zip(a, b))

    def neg(a):
        return tuple(T.negate(x) for x in a)

    def times(a, b):
        out = []
        for i in range(k):
            for j in range(k):
                acc = 0
                for m in range(k):
                    acc = T.plus(acc, T.times(a[i * k + m], b[m * k + j]))
                out.append(acc)
        return tuple(out)

    return elems, plus, neg, times


def matrix_ring(T, k):
    """k-by-k matrices over T; elements enumerated row-major by entry, lexicographic."""
    return ring_from_ops(*matrix_ops(T, k))


def subsets_up_to(n: int, k: int):
    for size in range(1, k + 1):
        yield from combinations(range(n), size)


def additive_closure(group, seeds) -> Subgroup:
    """Smallest subset containing the seeds and 0, closed under add and neg."""
    add = group.add
    neg = group.neg
    members = {0}
    work = [0]
    for s in sorted(set(seeds)):
        if s not in members:
            members.add(s)
            work.append(s)
    while work:
        x = work.pop()
        nx = neg[x]
        if nx not in members:
            members.add(nx)
            work.append(nx)
        row = add[x]
        for y in list(members):
            z = row[y]
            if z not in members:
                members.add(z)
                work.append(z)
    return Subgroup(ambient_order=group.order, members=frozenset(members))


def common_unit(T, V, side="left"):
    vs = sorted(set(V))
    if side == "left":
        return next((u for u in T.elements()
                     if all(T.times(u, v) == v for v in vs)), None)
    if side == "right":
        return next((u for u in T.elements()
                     if all(T.times(v, u) == v for v in vs)), None)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def left_ideal(T, generators) -> Subgroup:
    gens = sorted(set(generators))
    seeds = set(gens)
    for t in T.elements():
        for c in gens:
            seeds.add(T.times(t, c))
    return additive_closure(T.additive, seeds)


def is_left_ideal(T, sub) -> bool:
    members = sub.members
    if 0 not in members:
        return False
    if not all(T.plus(x, y) in members and T.negate(x) in members
               for x in members for y in members):
        return False
    return all(T.times(t, x) in members for t in T.elements() for x in members)


def idempotent_generator(T, I):
    if not is_left_ideal(T, I):
        raise NotAnIdealError("the given subgroup is not a left ideal",
                              tuple(I.elements()))
    for u in I.elements():
        if T.times(u, u) == u and left_ideal(T, [u]).members == I.members:
            return u
    return None


def check_vnr_characterization(T, max_generators=2, side="left") -> dict:
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
    for c in work.elements():
        I = left_ideal(work, [c])
        if idempotent_generator(work, I) is None:
            principal = False
            principal_failing = {"generator": c, "ideal": list(I.elements())}
            break

    finitely_generated = True
    fg_failing = None
    for gens in subsets_up_to(work.order, max_generators):
        I = left_ideal(work, gens)
        if idempotent_generator(work, I) is None:
            finitely_generated = False
            fg_failing = {"generators": list(gens), "ideal": list(I.elements())}
            break

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


def check_tominaga(T, max_subset=3) -> dict:
    su = s_unitality(T)
    out: dict = {"check": "tominaga", "applicable": True, "bound": max_subset}
    agree = True
    for side, unital in (("left", su.is_left), ("right", su.is_right)):
        failing = None
        ok = True
        for vs in subsets_up_to(T.order, max_subset):
            if common_unit(T, vs, side) is None:
                ok = False
                failing = list(vs)
                break
        out[side] = {"s_unital": unital, "common_units": ok, "failing_subset": failing,
                     "agree": unital == ok}
        agree = agree and unital == ok
    out["agree"] = agree
    return out
