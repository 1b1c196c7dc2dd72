"""Plain-loop reference for the ring queries and searches, for checking
grl.rings against.

These are the element-by-element scans that grl.rings replaces: the ring
queries (``s_unitality``, ``unity``, ``is_von_neumann_regular``,
``ring_idempotents``), which grl answers from the ring's tables as numpy
arrays; ``common_unit``, ``left_ideal``, ``idempotent_generator``,
``is_left_ideal``, ``check_tominaga`` and ``check_vnr_characterization``,
which grl answers with fixer bitmasks, cached principal ideals and array
membership; the breadth-first closure that ``additive_closure``
replaces with coset growth; and the greedy generators and spanning edges
that grl records in that growth, checked by ``spanning_edge_fault``.
Every element operation reads the tables
through ``plus``, ``negate`` and ``times`` (``is_left_ideal``, the hottest
loop, reads them directly), as nested lists of Python ints made once per
structure from grl's arrays.  The functions take the same arguments, scan
in the same order and return the same values, witnesses and report dicts,
and they call no ring predicate of grl.

``multiples_ring``, ``product_ring``, ``matrix_ring`` and ``field_f4`` build
their tables one element pair at a time through ``ring_from_ops`` and Python
closures, where grl.rings computes whole tables with numpy index arithmetic
or writes them out.
"""

from __future__ import annotations

import weakref
from itertools import combinations, product

from grl.errors import NotAnIdealError
from grl.rings import (
    Subgroup,
    SUnitalityWitness,
    Verdict,
    opposite_ring,
    validate_ring,
)


_LISTS: dict[int, object] = {}  # by id of a live structure


def once_per_object(obj, make):
    """``make(obj)``, made on the first call for ``obj`` and kept until
    ``obj`` is collected."""
    key = id(obj)
    got = _LISTS.get(key)
    if got is None:
        got = _LISTS[key] = make(obj)
        weakref.finalize(obj, _LISTS.pop, key, None)
    return got


def tables(group):
    """``(add, neg)`` of an additive group as nested lists of Python ints."""
    return once_per_object(group, lambda g: (g.add.tolist(), g.neg.tolist()))


def ring_tables(T):
    """``(add, neg, mul)`` of a ring as nested lists of Python ints."""
    return once_per_object(T, lambda ring: (*tables(ring.additive), ring.mul.tolist()))


# one dict lookup per element operation once the lists exist

def plus(T, x, y):
    return (_LISTS.get(id(T)) or ring_tables(T))[0][x][y]


def negate(T, x):
    return (_LISTS.get(id(T)) or ring_tables(T))[1][x]


def times(T, x, y):
    return (_LISTS.get(id(T)) or ring_tables(T))[2][x][y]


def ring_from_ops(elems, add_op, neg_op, mul_op):
    """Build index tables from callables over an explicit element list.

    ``elems[0]`` must be the zero element.
    """
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[add_op(a, b)] for b in elems] for a in elems]
    negt = [index[neg_op(a)] for a in elems]
    mul = [[index[mul_op(a, b)] for b in elems] for a in elems]
    return validate_ring(add, negt, mul)


def field_f4():
    """The four-element field; elements 0, 1, a, a+1 with a^2 = a + 1."""
    def f4_times(x, y):
        if x == 0 or y == 0:
            return 0
        # multiplicative group is cyclic of order 3 generated by a = 2
        log = {1: 0, 2: 1, 3: 2}
        exp = {0: 1, 1: 2, 2: 3}
        return exp[(log[x] + log[y]) % 3]
    return ring_from_ops([0, 1, 2, 3], lambda a, b: a ^ b, lambda a: a, f4_times)


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
        lambda a, b: tuple(plus(T, x, y) for T, x, y in zip(factors, a, b)),
        lambda a: tuple(negate(T, x) for T, x in zip(factors, a)),
        lambda a, b: tuple(times(T, x, y) for T, x, y in zip(factors, a, b)),
    )


def matrix_ops(T, k):
    """Elements of M_k(T), row-major entry tuples in lexicographic order, and
    their sum, negative and product as closures over tuples."""
    elems = list(product(range(T.order), repeat=k * k))

    def matrix_plus(a, b):
        return tuple(plus(T, x, y) for x, y in zip(a, b))

    def matrix_neg(a):
        return tuple(negate(T, x) for x in a)

    def matrix_times(a, b):
        out = []
        for i in range(k):
            for j in range(k):
                acc = 0
                for m in range(k):
                    acc = plus(T, acc, times(T, a[i * k + m], b[m * k + j]))
                out.append(acc)
        return tuple(out)

    return elems, matrix_plus, matrix_neg, matrix_times


def matrix_ring(T, k):
    """k-by-k matrices over T; elements enumerated row-major by entry, lexicographic."""
    return ring_from_ops(*matrix_ops(T, k))


# ---------------------------------------------------------------------------
# ring queries


def s_unitality(T) -> SUnitalityWitness:
    """For each x, search u with u*x = x and v with x*v = x."""
    left = []
    right = []
    for x in T.elements():
        left.append(next((u for u in T.elements() if times(T, u, x) == x), None))
        right.append(next((v for v in T.elements() if times(T, x, v) == x), None))
    return SUnitalityWitness(left_units=tuple(left), right_units=tuple(right))


def is_s_unital(T) -> bool:
    return s_unitality(T).holds


def unity(T):
    """Two-sided unity, or None.  Note the one-element zero ring is unital (u = 0)."""
    return next((u for u in T.elements()
                 if all(times(T, u, r) == r == times(T, r, u) for r in T.elements())), None)


def is_von_neumann_regular(T) -> Verdict:
    ys = []
    for r in T.elements():
        y = next((y for y in T.elements() if times(T, times(T, r, y), r) == r), None)
        ys.append(y)
        if y is None:
            ys.extend([None] * (T.order - len(ys)))
            return Verdict(holds=False, witness=tuple(ys), failing=r)
    return Verdict(holds=True, witness=tuple(ys))


def ring_idempotents(T) -> tuple:
    return tuple(u for u in T.elements() if times(T, u, u) == u)


# ---------------------------------------------------------------------------
# subgroups, ideals and the searches


def subsets_up_to(n: int, k: int):
    for size in range(1, k + 1):
        yield from combinations(range(n), size)


def additive_closure(group, seeds) -> Subgroup:
    """Smallest subset containing the seeds and 0, closed under add and neg."""
    add, neg = tables(group)
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
    return Subgroup(members=frozenset(members))


def _plain_span(add, gens) -> set:
    """Every sum of elements of ``gens``, by closing {0} under adding them."""
    span, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add[x][g]
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def greedy_spans(group) -> tuple[tuple, list]:
    """(generators, spans): the ascending elements outside the span of the
    earlier ones, (0,) for the trivial group, and spans[i] the span of the
    first i of them, each closed afresh."""
    add, _ = tables(group)
    gens, spans = [], [{0}]
    for x in range(1, group.order):
        if x not in spans[-1]:
            gens.append(x)
            spans.append(_plain_span(add, gens))
    return tuple(gens) or (0,), spans


def closing_sums(group) -> list:
    """The sums y + b of the edges (y, b) in ``group.edges`` with y a
    generator and y + b in the span of the generators before it."""
    gens, spans = greedy_spans(group)
    return [s for y, _, s in zip(*group.edges.tolist())
            if y in gens[:len(spans) - 1] and s in spans[gens.index(y)]]


def spanning_edge_fault(group):
    """The first property of ``group.generators`` and ``group.edges`` that
    fails, as text, or None.  The generators are the greedy ones.  There are
    order + r edges (y, b, y + b), r the number of generators that enlarged
    the span (0 for the trivial group): (0, 0) once, for each nonzero x one
    edge (g, p) inside the cosets of g with sum x and p added before x, and
    for each generator g one closing edge whose sum lies in the span of the
    generators before g.  Elements are added level by level, g_i + H_{i-1}
    before 2 g_i + H_{i-1}, and so on."""
    add, neg = tables(group)
    gens, spans = greedy_spans(group)
    if tuple(group.generators) != gens:
        return f"generators {group.generators}, expected {gens}"
    grown = gens[:len(spans) - 1]  # no generator enlarged the trivial group
    added_at = {0: (0, 0)}  # x: (level i, coset j) with x in j g_i + span(g_1, ..., g_{i-1})
    for i, g in enumerate(grown, 1):
        for x in spans[i] - spans[i - 1]:
            j, z = 1, add[x][neg[g]]
            while z not in spans[i - 1]:
                j, z = j + 1, add[z][neg[g]]
            added_at[x] = (i, j)
    ys, bs, sums = group.edges.tolist()
    if len(ys) != group.order + len(grown):
        return f"{len(ys)} edges, expected {group.order + len(grown)}"
    zero, added, closing = 0, {}, {}
    for y, b, s in zip(ys, bs, sums):
        if add[y][b] != s:
            return f"edge ({y}, {b}) has sum {s}, not {add[y][b]}"
        if (y, b) == (0, 0):
            zero += 1
        elif y not in grown:
            return f"edge ({y}, {b}) does not start at a generator"
        elif s in spans[grown.index(y)]:
            closing[y] = closing.get(y, 0) + 1
        elif added_at[s][0] == grown.index(y) + 1 and added_at[b] < added_at[s]:
            added[s] = added.get(s, 0) + 1
        else:
            return f"edge ({y}, {b}) adds {s} outside the cosets of {y} or before {b}"
    if zero != 1:
        return f"{zero} edges (0, 0)"
    for x in range(1, group.order):
        if added.get(x) != 1:
            return f"{added.get(x, 0)} edges add {x}"
    for g in grown:
        if closing.get(g) != 1:
            return f"{closing.get(g, 0)} closing edges for {g}"
    return None


def common_unit(T, V, side="left"):
    vs = sorted(set(V))
    if side == "left":
        return next((u for u in T.elements()
                     if all(times(T, u, v) == v for v in vs)), None)
    if side == "right":
        return next((u for u in T.elements()
                     if all(times(T, v, u) == v for v in vs)), None)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def left_ideal(T, generators) -> Subgroup:
    gens = sorted(set(generators))
    seeds = set(gens)
    for t in T.elements():
        for c in gens:
            seeds.add(times(T, t, c))
    return additive_closure(T.additive, seeds)


def is_left_ideal(T, sub) -> bool:
    add, neg, mul = ring_tables(T)  # the hottest loops read the lists directly
    members = sub.members
    if 0 not in members:
        return False
    if not all(add[x][y] in members and neg[x] in members
               for x in members for y in members):
        return False
    return all(mul[t][x] in members for t in T.elements() for x in members)


def idempotent_generator(T, I):
    if not is_left_ideal(T, I):
        raise NotAnIdealError("the given subgroup is not a left ideal",
                              tuple(I.elements()))
    for u in I.elements():
        if times(T, u, u) == u and left_ideal(T, [u]).members == I.members:
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
