"""A mutation gate: deliberately wrong variants of the predicates must make
some cross check disagree.

A graded variant replaces the ``__wrapped__`` body of a predicate that
``gradings._once_per_ring`` memoises; the memo reads ``__wrapped__`` on every
miss, so the variant shows on a fresh ``validate_grading`` rebuild, whose
memo starts empty.  A ring variant patches a name in ``grl.rings`` that
``check_vnr_characterization`` or ``check_tominaga`` looks up at call time.

A variant is caught when at least one report on its family has ``agree``
false: the five graded checks on a semigroup-based grading, ``groupoid``,
``switch`` and ``eps-chars`` on a groupoid-based one, and ``vnr-char`` and
``tominaga`` on a ring.  The unchanged code must give none.

Some variants are equivalent to the code on every finite ring, so no input
can catch them.  ``EQUIVALENT`` lists each with its reason, and each must
give 0 on the corpus gradings and on the corpus rings, ``row2``, ``col2``
and M2(Z2); a variant of ``idempotent_generator`` patches the name in both
modules that call it.
"""

from dataclasses import replace

import numpy as np

from grl import catalog, gradings as gr, rings
from grl.errors import NotAnIdealError
from grl.gradings import Verdict
from grl.rings import TRIVIAL_GROUP, opposite_ring
from grl.semigroups import enumerate_semigroups
from reference_rings import ring_from_ops

SEMIGROUP_CHECKS = (gr.check_theorem_main, gr.check_eps_characterizations,
                    gr.check_lemma_technical, gr.check_corollaries,
                    gr.check_theorem_inverse_semigroup)
GROUPOID_CHECKS = (gr.check_theorem_groupoid, gr.check_prop_switch,
                   gr.check_eps_characterizations)
RING_CHECKS = (rings.check_vnr_characterization, rings.check_tominaga)


def row2():
    """Z2 x Z2 with x*y = x0*y: left unital, not right s-unital."""
    return ring_from_ops([(0, 0), (0, 1), (1, 0), (1, 1)],
                         lambda p, q: ((p[0] + q[0]) % 2, (p[1] + q[1]) % 2),
                         lambda p: p,
                         lambda p, q: (p[0] * q[0], p[0] * q[1]))


def one_idempotent_gradings():
    """F2 placed at an idempotent e of S, the trivial group at every other
    element, and F2's product at (e, e): a grading for every S and e.  At the
    zero of chain2 the weak inverses {0, 1} of 0 are more than its inverses
    {0}, and r = 1 in R_0 has no y in R_1 = 0 with r = ryr."""
    F2 = catalog.named_ring("Z2")
    for order in (1, 2, 3):
        for S in enumerate_semigroups(order):
            for e in S.relations.idempotents:
                components = [TRIVIAL_GROUP] * S.order
                components[e] = F2.additive
                yield gr.validate_grading(S, components, {(e, e): F2.mul})


def disagrees(report: dict) -> bool:
    """Is the report applicable with ``agree`` false?  A skipped check has
    no ``agree``."""
    return report.get("applicable", True) and not report["agree"]


def graded_disagreements(family) -> int:
    """Disagreeing reports over fresh rebuilds of the gradings."""
    count = 0
    for R in family:
        fresh = gr.validate_grading(R.base, R.components, R.products)
        checks = SEMIGROUP_CHECKS if fresh.base_kind == "semigroup" else GROUPOID_CHECKS
        count += sum(disagrees(check(fresh)) for check in checks)
    return count


def ring_disagreements(family) -> int:
    return sum(disagrees(check(T)) for T in family for check in RING_CHECKS)


# --- graded variants: (family, predicate, body) ------------------------------


def nearly_eps_without_symmetry(R):
    """``is_nearly_epsilon_strong`` less its symmetry test."""
    for (s, t) in R.inverse_pairs():
        if not gr._span_is_s_unital(R, s, t):
            return Verdict(holds=False, failing=(s, t))
    return Verdict(holds=True)


def graded_vnr_over_weak_inverses(R):
    """``is_graded_vnr`` over every t with sts = s instead of t in V(s)."""
    for s in R.graders():
        for t in R.base.relations.weak_inverse_sets[s]:
            quasi = gr._quasi_inverses(R, s, t)
            if -1 in quasi:
                return Verdict(holds=False, failing=(s, quasi.index(-1), t))
    return Verdict(holds=True)


GRADED_VARIANTS = {
    "is_nearly_epsilon_strong := true":
        ("corpus", gr.is_nearly_epsilon_strong, lambda R: Verdict(holds=True)),
    "is_symmetric := true": ("corpus", gr.is_symmetric, lambda R: Verdict(holds=True)),
    "base_components_vnr := true":
        ("corpus", gr.base_components_vnr, lambda R: Verdict(holds=True)),
    "is_graded_vnr := is_nearly_epsilon_strong":
        ("corpus", gr.is_graded_vnr,
         lambda R: Verdict(holds=gr.is_nearly_epsilon_strong(R).holds)),
    "nearly-eps without its symmetry test":
        ("corpus", gr.is_nearly_epsilon_strong, nearly_eps_without_symmetry),
    "graded vnr over {t : sts = s} instead of V(s)":
        ("one-idempotent", gr.is_graded_vnr, graded_vnr_over_weak_inverses),
}


# --- ring variants: (family, owner, name, replacement) ------------------------


def right_units_are_left_units(T, s_unitality=rings.s_unitality):
    su = s_unitality(T)
    return replace(su, right_units=su.left_units)


def fixers_swapped(T, fixers=rings.FiniteRing._fixers.func):
    masks = fixers(T)
    return {"left": masks["right"], "right": masks["left"]}


def strongly_regular(T):
    """Scan (i) of vnr-char testing r = r(ry), strong regularity."""
    M = T.mul
    rs = np.arange(T.order)[:, None]
    regular = M[rs, M] == rs  # [r, y]: r*(r*y) == r
    failing = rings._first(~regular.any(axis=1))
    return rings.RegularityWitness(holds=failing is None, quasi_inverses=(),
                                   failing=failing)


RING_VARIANTS = {
    "s_unitality with right units := left units":
        ("row2, col2", rings, "s_unitality", right_units_are_left_units),
    "tominaga with its left and right fixer masks swapped":
        ("row2, col2", rings.FiniteRing, "_fixers", property(fixers_swapped)),
    "vnr-char scan (i) testing r = r(ry)":
        ("M2(Z2)", rings, "is_von_neumann_regular", strongly_regular),
}

# --- equivalent variants: (reason, patched names, replacement) ----------------
# No finite ring tells these from the code, so each must give 0 everywhere.


def guarded(T, I) -> None:
    """The ideal guard of ``idempotent_generator``."""
    if not rings.is_left_ideal(T, I):
        raise NotAnIdealError("the given subgroup is not a left ideal", tuple(I.elements()))


def generator_fixing_every_member(T, I):
    """``idempotent_generator`` accepting an idempotent u of I with x*u = x
    for every x in I."""
    guarded(T, I)
    members = list(I.elements())
    return next((u for u in members
                 if T.mul[u, u] == u and (T.mul[members, u] == members).all()), None)


def any_nonzero_idempotent(T, I):
    """``idempotent_generator`` accepting any nonzero idempotent of I, or 0
    when I = 0."""
    guarded(T, I)
    if I.members == {0}:
        return 0
    return next((u for u in I.elements() if u and T.mul[u, u] == u), None)


def singletons_only(cols, max_subset, scan=rings._first_subset_without_common_unit):
    """Tominaga's common-unit scan cut to singletons."""
    return scan(cols, min(max_subset, 1))


IDEMPOTENT_GENERATOR = ((rings, "idempotent_generator"), (gr, "idempotent_generator"))
EQUIVALENT = {
    "idempotent_generator accepts an idempotent u of I with x*u = x on I":
        ("x = xu lies in Tu, and Tu lies in the left ideal I, so I = Tu; "
         "conversely x = tu gives xu = x",
         IDEMPOTENT_GENERATOR, generator_fixing_every_member),
    "idempotent_generator accepts any nonzero idempotent of I, or 0 when I = 0":
        ("vnr-char asks only on s-unital, hence unital, finite rings and the lemma "
         "only on regular components; there both verdicts hold exactly when the "
         "Jacobson radical is 0",
         IDEMPOTENT_GENERATOR, any_nonzero_idempotent),
    "tominaga's common-unit scan cut to singletons":
        ("Tominaga's theorem: once every element has a one-sided unit, every "
         "finite subset has a common one",
         ((rings, "_first_subset_without_common_unit"),), singletons_only),
}

# Caught by no input grl has yet: they wait for the structural matrix rings
# and their matrix-unit and groupoid gradings.
PENDING = {
    "is_epsilon_strong := is_strong": "needs structural matrix-ring gradings",
    "is_nearly_epsilon_strong := is_symmetric": "needs structural matrix-ring gradings",
    "main theorem's right side without nearly-eps": "needs structural matrix-ring gradings",
}


def families(corpus):
    return {
        "corpus": [entry.graded for entry in corpus.graded],
        "one-idempotent": list(one_idempotent_gradings()),
        "row2, col2": [row2(), opposite_ring(row2())],
        "M2(Z2)": [catalog.named_ring("M2(Z2)")],
        "corpus rings, row2, col2, M2(Z2)":
            [entry.structure for entry in corpus.rings]
            + [row2(), opposite_ring(row2()), catalog.named_ring("M2(Z2)")],
    }


def test_the_unchanged_code_agrees_on_every_family(corpus):
    for name, family in families(corpus).items():
        count = (ring_disagreements(family) if isinstance(family[0], rings.FiniteRing)
                 else graded_disagreements(family))
        assert count == 0, name


def test_f2_at_the_zero_of_chain2_catches_graded_vnr_over_weak_inverses(monkeypatch):
    S, F2 = catalog.named_semigroup("chain2"), catalog.named_ring("Z2")
    R = gr.validate_grading(S, [F2.additive, TRIVIAL_GROUP], {(0, 0): F2.mul})
    assert S.relations.weak_inverse_sets[0] == (0, 1) and S.relations.inverse_sets[0] == (0,)
    assert graded_disagreements([R]) == 0
    monkeypatch.setattr(gr.is_graded_vnr, "__wrapped__", graded_vnr_over_weak_inverses)
    assert graded_disagreements([R]) == 3


def test_the_gate_catches_every_catchable_variant(corpus, monkeypatch):
    groups = families(corpus)
    caught = {}
    for name, (family, predicate, body) in GRADED_VARIANTS.items():
        with monkeypatch.context() as patch:
            patch.setattr(predicate, "__wrapped__", body)
            caught[name] = graded_disagreements(groups[family])
    for name, (family, owner, attr, variant) in RING_VARIANTS.items():
        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, variant)
            caught[name] = ring_disagreements(groups[family])
    for name, count in caught.items():
        print(f"{count:5d}  {name}")
    for name, reason in PENDING.items():
        print(f"    -  {name} (pending: {reason})")
    print(f"mutants caught: {sum(map(bool, caught.values()))}/{len(caught)}")
    assert [name for name, count in caught.items() if not count] == []


def reaching(variant, label: str, reached: set):
    """``variant``, adding ``label`` to ``reached`` on each call."""
    def call(*args):
        reached.add(label)
        return variant(*args)
    return call


def test_equivalent_variants_give_no_disagreement(corpus, monkeypatch):
    groups = families(corpus)
    found = {}
    for name, (reason, names, variant) in EQUIVALENT.items():
        reached = set()
        with monkeypatch.context() as patch:
            for owner, attr in names:
                patch.setattr(owner, attr, reaching(variant, owner.__name__, reached))
            found[name] = (graded_disagreements(groups["corpus"])
                           + ring_disagreements(groups["corpus rings, row2, col2, M2(Z2)"]))
        print(f"{found[name]:5d}  {name} (equivalent: {reason})")
        # a 0 from a variant that no check calls would show nothing
        assert reached == {owner.__name__ for owner, _ in names}, name
    assert found == dict.fromkeys(EQUIVALENT, 0)
