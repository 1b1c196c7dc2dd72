"""Per-element reference for the graded predicates and the good-grading
builders, for checking grl.gradings and grl.constructions against.

These are the element-by-element scans that the graded predicates replace
with indexing into ``GradedRing.table`` arrays.  Every product goes through
``product``, which reads the product tables as nested lists of Python ints
made once per graded ring, and every span through the
breadth-first ``reference_rings.additive_closure``; the ring queries on
component rings are those of ``reference_rings`` too.  The functions take
the same arguments, scan in the same order and return the same verdicts,
witnesses and report dicts.
"""

from __future__ import annotations

from typing import Optional, Sequence

from grl.constructions import GoodGrading
from grl.gradings import (
    EpsilonWitness,
    GradedRing,
    GradedVnrWitness,
    Verdict,
    regrade_groupoid_to_semigroup,
    validate_grading,
)
from grl.rings import TRIVIAL_GROUP, FiniteAdditiveGroup, FiniteRing, Subgroup
from grl.semigroups import classify_semigroup
from reference_rings import (
    additive_closure,
    idempotent_generator,
    is_left_ideal,
    is_s_unital,
    is_von_neumann_regular,
    once_per_object,
    plus,
    tables,
    times,
    unity,
)
from reference_semigroups import mul


def product_lists(R: GradedRing) -> dict:
    """The stored product tables as nested lists of Python ints."""
    return {key: P.tolist() for key, P in R.products.items()}


def product(R: GradedRing, s: int, t: int, a: int, b: int) -> int:
    """Index of the product of a in R_s with b in R_t, inside R_{st}."""
    if R.target(s, t) is None:
        raise ValueError(f"graders {s} and {t} are not composable")
    table = once_per_object(R, product_lists).get((s, t))
    return table[a][b] if table is not None else 0


def component_ring(R: GradedRing, e: int) -> FiniteRing:
    if R.target(e, e) != e:
        raise ValueError(f"grader {e} is not idempotent")
    group = R.components[e]
    table = R.products.get((e, e))
    if table is None:
        table = tuple((0,) * group.order for _ in range(group.order))
    return FiniteRing(additive=group, mul=table)


# ---------------------------------------------------------------------------
# spans


def product_span(R: GradedRing, s: int, t: int) -> Subgroup:
    st = R.target(s, t)
    if st is None:
        raise ValueError(f"graders {s} and {t} are not composable")
    seeds = {product(R, s, t, a, b)
             for a in R.component(s).elements() for b in R.component(t).elements()}
    return additive_closure(R.component(st), seeds)


def triple_span(R: GradedRing, s: int, t: int) -> Subgroup:
    st = R.target(s, t)
    seeds = set()
    for a in R.component(s).elements():
        for b in R.component(t).elements():
            ab = product(R, s, t, a, b)
            for c in R.component(s).elements():
                seeds.add(product(R, st, s, ab, c))
    return additive_closure(R.component(s), seeds)


# ---------------------------------------------------------------------------
# grading classes


def is_symmetric(R: GradedRing) -> Verdict:
    pairs = R.inverse_pairs()
    for (s, t) in pairs:
        span = triple_span(R, s, t)
        if len(span) != R.component(s).order:
            return Verdict(holds=False, failing=(s, t))
    return Verdict(holds=True, vacuous=not pairs)


def is_strong(R: GradedRing) -> Verdict:
    for (s, t) in R.base_pairs():
        st = R.target(s, t)
        if len(product_span(R, s, t)) != R.component(st).order:
            return Verdict(holds=False, failing=(s, t))
    return Verdict(holds=True)


def subring_unity(ring: FiniteRing, members: Sequence[int]) -> Optional[int]:
    return next((u for u in members
                 if all(times(ring, u, x) == x == times(ring, x, u) for x in members)),
                None)


def subring_is_s_unital(ring: FiniteRing, members: Sequence[int]) -> bool:
    for x in members:
        if not any(times(ring, u, x) == x for u in members):
            return False
        if not any(times(ring, x, v) == x for v in members):
            return False
    return True


def is_epsilon_strong(R: GradedRing) -> Verdict:
    sym = is_symmetric(R)
    if not sym.holds:
        return Verdict(holds=False, failing=("symmetric", *sym.failing))
    uniform: dict[tuple[int, int], tuple[int, int]] = {}
    for (s, t) in R.inverse_pairs():
        st = R.target(s, t)
        ts = R.target(t, s)
        eps = subring_unity(component_ring(R, st), product_span(R, s, t).elements())
        if eps is None:
            return Verdict(holds=False, failing=(s, t))
        eps_prime = subring_unity(component_ring(R, ts), product_span(R, t, s).elements())
        if eps_prime is None:
            return Verdict(holds=False, failing=(t, s))
        uniform[(s, t)] = (eps, eps_prime)
    return Verdict(holds=True, vacuous=sym.vacuous,
                   witness=EpsilonWitness(kind="uniform", uniform=uniform))


def per_element_epsilons(R: GradedRing) -> tuple[bool, dict, Optional[tuple]]:
    out: dict[tuple[int, int, int], tuple[int, int]] = {}
    for (s, t) in R.inverse_pairs():
        st = R.target(s, t)
        ts = R.target(t, s)
        left_span = product_span(R, s, t).elements()
        right_span = product_span(R, t, s).elements()
        for r in R.component(s).elements():
            eps = next((u for u in left_span if product(R, st, s, u, r) == r), None)
            eps_prime = next((v for v in right_span if product(R, s, ts, r, v) == r), None)
            if eps is None or eps_prime is None:
                return False, out, (s, t, r)
            out[(s, t, r)] = (eps, eps_prime)
    return True, out, None


def is_nearly_epsilon_strong(R: GradedRing) -> Verdict:
    sym = is_symmetric(R)
    if not sym.holds:
        return Verdict(holds=False, failing=("symmetric", *sym.failing))
    for (s, t) in R.inverse_pairs():
        st = R.target(s, t)
        span = product_span(R, s, t)
        if not subring_is_s_unital(component_ring(R, st), span.elements()):
            return Verdict(holds=False, failing=(s, t))
    ok, per_element, _ = per_element_epsilons(R)
    witness = EpsilonWitness(kind="per-element", per_element=per_element) if ok else None
    return Verdict(holds=True, vacuous=sym.vacuous, witness=witness)


# ---------------------------------------------------------------------------
# graded regularity


def is_graded_vnr(R: GradedRing) -> Verdict:
    pairs = R.inverse_pairs()
    vacuous = not any(R.component(s).order > 1 for (s, _) in pairs)
    assignments: dict[tuple[int, int, int], int] = {}
    for (s, t) in pairs:
        st = R.target(s, t)
        for r in R.component(s).elements():
            y = next((y for y in R.component(t).elements()
                      if product(R, st, s, product(R, s, t, r, y), r) == r), None)
            if y is None:
                return Verdict(holds=False, vacuous=vacuous,
                               witness=GradedVnrWitness(assignments, (s, r, t), vacuous),
                               failing=(s, r, t))
            assignments[(s, r, t)] = y
    return Verdict(holds=True, vacuous=vacuous,
                   witness=GradedVnrWitness(assignments, None, vacuous))


def base_components_vnr(R: GradedRing) -> Verdict:
    for e in R.base_idempotents():
        w = is_von_neumann_regular(component_ring(R, e))
        if not w.holds:
            return Verdict(holds=False, failing=(e, w.failing))
    return Verdict(holds=True)


# ---------------------------------------------------------------------------
# cross-checks


def check_eps_characterizations(R: GradedRing) -> dict:
    eps_def = is_epsilon_strong(R)

    eps_wit = True
    eps_wit_failing = None
    for (s, t) in R.inverse_pairs():
        st = R.target(s, t)
        ts = R.target(t, s)
        left_span = product_span(R, s, t).elements()
        right_span = product_span(R, t, s).elements()
        rs = R.component(s).elements()
        eps = next((u for u in left_span
                    if all(product(R, st, s, u, r) == r for r in rs)), None)
        eps_prime = next((v for v in right_span
                          if all(product(R, s, ts, r, v) == r for r in rs)), None)
        if eps is None or eps_prime is None:
            eps_wit = False
            eps_wit_failing = (s, t)
            break

    near_def = is_nearly_epsilon_strong(R)
    near_wit, _, near_wit_failing = per_element_epsilons(R)

    unit_components = {"checked": False, "holds": True, "unities": {}, "failing": None}
    if eps_def.holds:
        unit_components["checked"] = True
        for e in R.base_idempotents():
            u = subring_unity(component_ring(R, e), list(R.component(e).elements()))
            if u is None:
                unit_components["holds"] = False
                unit_components["failing"] = e
                break
            unit_components["unities"][str(e)] = u

    agree = (eps_def.holds == eps_wit) and (near_def.holds == near_wit) \
        and (not eps_def.holds or unit_components["holds"])
    return {
        "check": "eps-characterizations",
        "applicable": True,
        "epsilon_strong": {"definition": eps_def.holds, "witness": eps_wit,
                           "agree": eps_def.holds == eps_wit,
                           "witness_failing": list(eps_wit_failing) if eps_wit_failing else None},
        "nearly_epsilon_strong": {"definition": near_def.holds, "witness": near_wit,
                                  "agree": near_def.holds == near_wit,
                                  "witness_failing": list(near_wit_failing) if near_wit_failing else None},
        "unit_components": unit_components,
        "agree": agree,
    }


def check_theorem_main(R: GradedRing) -> dict:
    if R.base_kind != "semigroup":
        return {"check": "theorem-main", "applicable": False,
                "reason": "needs a semigroup base"}
    lhs = is_graded_vnr(R)
    near = is_nearly_epsilon_strong(R)
    bvnr = base_components_vnr(R)
    rhs = near.holds and bvnr.holds
    return {
        "check": "theorem-main",
        "applicable": True,
        "graded_vnr": lhs.holds,
        "graded_vnr_vacuous": lhs.vacuous,
        "graded_vnr_failing": list(lhs.failing) if lhs.failing else None,
        "nearly_epsilon_strong": near.holds,
        "base_components_vnr": bvnr.holds,
        "rhs": rhs,
        "agree": lhs.holds == rhs,
    }


def check_lemma_technical(R: GradedRing, max_witnesses: Optional[int] = None) -> dict:
    near = is_nearly_epsilon_strong(R)
    bvnr = base_components_vnr(R)
    if not (near.holds and bvnr.holds):
        return {"check": "lemma-technical", "applicable": False,
                "reason": "hypotheses fail: needs nearly epsilon-strong grading "
                          "with regular idempotent components",
                "nearly_epsilon_strong": near.holds,
                "base_components_vnr": bvnr.holds}
    witnesses = []
    checked = 0
    for (s, t) in R.inverse_pairs():
        ts = R.target(t, s)
        ring_ts = component_ring(R, ts)
        for r in R.component(s).elements():
            gens = {product(R, t, s, b, r) for b in R.component(t).elements()}
            I = additive_closure(R.component(ts), gens)
            if not is_left_ideal(ring_ts, I):
                return {"check": "lemma-technical", "applicable": True, "holds": False,
                        "agree": False,
                        "failing": {"s": s, "t": t, "r": r, "reason": "not a left ideal"}}
            u = idempotent_generator(ring_ts, I)
            if u is None:
                return {"check": "lemma-technical", "applicable": True, "holds": False,
                        "agree": False,
                        "failing": {"s": s, "t": t, "r": r,
                                    "reason": "no idempotent generator",
                                    "ideal": list(I.elements())}}
            checked += 1
            if max_witnesses is None or len(witnesses) < max_witnesses:
                witnesses.append({"s": s, "t": t, "r": r, "idempotent": u,
                                  "ideal": list(I.elements())})
    return {"check": "lemma-technical", "applicable": True, "holds": True,
            "agree": True, "triples_checked": checked, "witnesses": witnesses}


def check_theorem_inverse_semigroup(R: GradedRing) -> dict:
    if R.base_kind != "semigroup":
        return {"check": "theorem-inverse", "applicable": False,
                "reason": "needs a semigroup base"}
    cls = classify_semigroup(R.base)
    if not cls.is_inverse:
        return {"check": "theorem-inverse", "applicable": False,
                "reason": "base is not an inverse semigroup"}

    part_i = is_graded_vnr(R).holds

    part_ii = True
    ii_failing = None
    for s in R.graders():
        vs = cls.inverse_sets[s]
        for r in R.component(s).elements():
            found = False
            for t in vs:
                st = R.target(s, t)
                if any(product(R, st, s, product(R, s, t, r, y), r) == r
                       for y in R.component(t).elements()):
                    found = True
                    break
            if not found:
                part_ii = False
                ii_failing = (s, r)
                break
        if not part_ii:
            break

    part_iii = is_nearly_epsilon_strong(R).holds and base_components_vnr(R).holds
    return {
        "check": "theorem-inverse",
        "applicable": True,
        "all_inverses_form": part_i,
        "some_inverse_form": part_ii,
        "some_inverse_failing": list(ii_failing) if ii_failing else None,
        "structural_form": part_iii,
        "agree": part_i == part_ii == part_iii,
    }


def check_corollaries(R: GradedRing) -> dict:
    out: dict = {"check": "corollaries", "applicable": True}
    agree = True

    eps = is_epsilon_strong(R)
    if eps.holds:
        lhs = is_graded_vnr(R).holds
        rhs = base_components_vnr(R).holds
        out["epsilon_strong_case"] = {"applicable": True, "graded_vnr": lhs,
                                      "base_components_vnr": rhs, "agree": lhs == rhs}
        agree = agree and lhs == rhs
    else:
        out["epsilon_strong_case"] = {"applicable": False}

    strong = is_strong(R)
    if strong.holds:
        components_s_unital = all(is_s_unital(component_ring(R, e))
                                  for e in R.base_idempotents())
        near = is_nearly_epsilon_strong(R).holds
        part = {"applicable": True, "nearly_epsilon_strong": near,
                "components_s_unital": components_s_unital,
                "agree": near == components_s_unital}
        agree = agree and near == components_s_unital
        if components_s_unital:
            lhs = is_graded_vnr(R).holds
            rhs = base_components_vnr(R).holds
            part["regularity"] = {"graded_vnr": lhs, "base_components_vnr": rhs,
                                  "agree": lhs == rhs}
            agree = agree and lhs == rhs
        out["strong_case"] = part
    else:
        out["strong_case"] = {"applicable": False}

    out["agree"] = agree
    return out


def check_prop_switch(R: GradedRing) -> dict:
    if R.base_kind != "groupoid":
        return {"check": "prop-switch", "applicable": False,
                "reason": "needs a groupoid-graded ring"}
    regraded = regrade_groupoid_to_semigroup(R)
    g_eps = is_epsilon_strong(R).holds
    s_eps = is_epsilon_strong(regraded).holds
    g_near = is_nearly_epsilon_strong(R).holds
    s_near = is_nearly_epsilon_strong(regraded).holds
    return {
        "check": "prop-switch",
        "applicable": True,
        "epsilon_strong": {"groupoid": g_eps, "semigroup": s_eps, "agree": g_eps == s_eps},
        "nearly_epsilon_strong": {"groupoid": g_near, "semigroup": s_near,
                                  "agree": g_near == s_near},
        "agree": g_eps == s_eps and g_near == s_near,
    }


def homogeneous_in_rRr(R: GradedRing, g: int, r: int) -> bool:
    seeds = set()
    for h in R.graders():
        gh = R.target(g, h)
        if gh is None or R.target(gh, g) != g:
            continue
        for x in R.component(h).elements():
            seeds.add(product(R, gh, g, product(R, g, h, r, x), r))
    return r in additive_closure(R.component(g), seeds).members


def check_theorem_groupoid(R: GradedRing) -> dict:
    if R.base_kind != "groupoid":
        return {"check": "theorem-groupoid", "applicable": False,
                "reason": "needs a groupoid-graded ring"}
    G = R.base

    part_i = True
    i_failing = None
    for g in G.morphisms():
        for r in R.component(g).elements():
            if not homogeneous_in_rRr(R, g, r):
                part_i = False
                i_failing = (g, r)
                break
        if not part_i:
            break

    part_ii = True
    ii_failing = None
    for g in G.morphisms():
        gi = G.inv[g]
        ggi = G.compose(g, gi)
        for r in R.component(g).elements():
            if not any(product(R, ggi, g, product(R, g, gi, r, y), r) == r
                       for y in R.component(gi).elements()):
                part_ii = False
                ii_failing = (g, r)
                break
        if not part_ii:
            break

    part_iii = is_nearly_epsilon_strong(R).holds and base_components_vnr(R).holds
    return {
        "check": "theorem-groupoid",
        "applicable": True,
        "span_membership_form": part_i,
        "span_failing": list(i_failing) if i_failing else None,
        "quasi_inverse_form": part_ii,
        "quasi_inverse_failing": list(ii_failing) if ii_failing else None,
        "structural_form": part_iii,
        "agree": part_i == part_ii == part_iii,
    }


# ---------------------------------------------------------------------------
# good-grading builders


def power_group(G: FiniteAdditiveGroup, k: int) -> FiniteAdditiveGroup:
    """Direct power G^k; tuples encoded big-endian in base |G|."""
    if k == 0:
        return TRIVIAL_GROUP
    if k == 1:
        return G
    size = G.order ** k

    def decode(x: int) -> list[int]:
        digits = []
        for _ in range(k):
            digits.append(x % G.order)
            x //= G.order
        return digits[::-1]

    def encode(digits: Sequence[int]) -> int:
        x = 0
        for d in digits:
            x = x * G.order + d
        return x

    G_add, G_neg = tables(G)
    add = []
    neg = []
    for x in range(size):
        dx = decode(x)
        neg.append(encode([G_neg[d] for d in dx]))
        add.append(tuple(encode([G_add[a][b] for a, b in zip(dx, decode(y))])
                         for y in range(size)))
    return FiniteAdditiveGroup(order=size, add=tuple(add), neg=tuple(neg))


def good_grading(A: FiniteRing, degree_map) -> GoodGrading:
    if unity(A) is None:
        raise ValueError("good gradings need a unital coefficient ring")
    dm = degree_map
    n = dm.n
    base = dm.base
    cells: list[list[tuple[int, int]]] = [[] for _ in base.elements()]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cells[dm.degree(i, j)].append((i, j))
    cell_pos = {s: {c: p for p, c in enumerate(cs)} for s, cs in enumerate(cells)}
    components = tuple(power_group(A.additive, len(cs)) for cs in cells)

    def decode(s: int, x: int) -> list[int]:
        k = len(cells[s])
        digits = []
        for _ in range(k):
            digits.append(x % A.order)
            x //= A.order
        return digits[::-1]

    def encode(s: int, digits: Sequence[int]) -> int:
        x = 0
        for d in digits:
            x = x * A.order + d
        return x

    products = {}
    for s in base.elements():
        for t in base.elements():
            chains = [(ci, cj) for ci in range(len(cells[s])) for cj in range(len(cells[t]))
                      if cells[s][ci][1] == cells[t][cj][0]]
            if not chains:
                continue
            st = mul(base, s, t)
            table = []
            for x in range(components[s].order):
                dx = decode(s, x)
                row = []
                for y in range(components[t].order):
                    dy = decode(t, y)
                    out = [0] * len(cells[st])
                    for (ci, cj) in chains:
                        i = cells[s][ci][0]
                        l = cells[t][cj][1]
                        pos = cell_pos[st][(i, l)]
                        out[pos] = plus(A, out[pos], times(A, dx[ci], dy[cj]))
                    row.append(encode(st, out))
                table.append(tuple(row))
            products[(s, t)] = tuple(table)

    graded = validate_grading(base, components, products)
    return GoodGrading(graded=graded, degree_map=dm, coefficients=A,
                       cells=tuple(tuple(cs) for cs in cells))
