"""The relabelling oracle: a graded ring relabelled by a permutation of its
base and, for each component, a permutation that fixes 0 is isomorphic to
the original, so every verdict and every check's outcome must be the same.

The verdicts need no reference code, so they also guard what grl and the
test references share, and they check that no predicate depends on labels.
The witnesses found on the relabelled ring are mapped back through the
permutations and checked on the original with the references.  Relabelling
may change which witness is found first, so a valid one is required, not
the same one.  Permutations come from fixed seeds, so a failure repeats.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import reference_gradings as ref
from grl import cli, gradings as gr
from grl.gradings import GradedRing, validate_grading
from grl.groupoids import FiniteGroupoid, validate_groupoid
from grl.rings import (
    FiniteAdditiveGroup,
    FiniteRing,
    check_tominaga,
    check_vnr_characterization,
    validate_additive_group,
    validate_ring,
)
from grl.semigroups import validate_semigroup
from reference_rings import additive_closure, left_ideal, times

SEEDS = (11, 12, 13)
OPTS = SimpleNamespace(max_witnesses=100, fg_ideal_bound=2)
# every check that runs on a graded ring, with the base kind it keeps
GRADED_CHECKS = [(name, check) for name, rows in cli.CHECKS.items()
                 for check in rows if check.takes == "graded_ring"]


def fixing_zero(n: int, rng) -> np.ndarray:
    """A random permutation of range(n) that maps 0 to 0."""
    return np.concatenate([[0], 1 + rng.permutation(n - 1)]).astype(np.intp)


def relabel_table(T: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """The table T' with T'[rows[a], cols[b]] = out[T[a, b]]."""
    return out[T[np.argsort(rows)][:, np.argsort(cols)]]


def relabel_group(g: FiniteAdditiveGroup, p: np.ndarray) -> FiniteAdditiveGroup:
    return validate_additive_group(relabel_table(g.add, p, p, p), p[g.neg[np.argsort(p)]])


def relabel_base(base, q: np.ndarray):
    """The base with element (or morphism) x renamed q[x]."""
    if not isinstance(base, FiniteGroupoid):
        return validate_semigroup(relabel_table(base.table, q, q, q))
    old = np.argsort(q)  # old[new] = old name
    compose = {(int(q[g]), int(q[h])): int(q[base.compose(g, h)])
               for g, h in base.composable_pairs()}
    return validate_groupoid(base.n_objects, [base.dom[x] for x in old],
                             [base.cod[x] for x in old],
                             [int(q[base.inv[x]]) for x in old], compose)


def relabel_graded(R: GradedRing, rng) -> tuple[GradedRing, np.ndarray, list]:
    """The relabelled ring, with the base permutation q and the component
    permutations p: grader s is renamed q[s], and x in R_s is renamed
    p[s][x]."""
    q = rng.permutation(R.n_graders).astype(np.intp)
    p = [fixing_zero(R.component(s).order, rng) for s in R.graders()]
    old = np.argsort(q)
    components = [relabel_group(R.component(s), p[s]) for s in old.tolist()]
    products = {(int(q[s]), int(q[t])): relabel_table(P, p[s], p[t], p[R.target(s, t)])
                for (s, t), P in R.products.items()}
    return validate_grading(relabel_base(R.base, q), components, products), q, p


def relabel_ring(T: FiniteRing, rng) -> FiniteRing:
    p = fixing_zero(T.order, rng)
    g = relabel_group(T.additive, p)
    return validate_ring(g.add, g.neg, relabel_table(T.mul, p, p, p))


def outcomes(report) -> dict:
    """Every bool a report holds, by its path: verdicts and ``agree``, not
    witnesses."""
    if isinstance(report, bool):
        return {(): report}
    if isinstance(report, dict):
        return {(key, *path): value for key, sub in report.items()
                for path, value in outcomes(sub).items()}
    return {}


def graded_outcomes(R: GradedRing) -> dict:
    out = {"verdicts": cli.classify_structure("graded_ring", R, 0)["verdicts"]}
    for name, check in GRADED_CHECKS:
        if check.base in (None, R.base_kind):
            out[name] = outcomes(check.run(R, {}, OPTS))
    return out


def test_every_graded_check_is_compared(corpus):
    names = {name for name, _ in GRADED_CHECKS}
    assert names == {"main", "inverse", "lemma-technical", "eps-chars", "corollaries",
                     "switch", "groupoid"}
    assert len(corpus.graded) == 65


@pytest.mark.parametrize("seed", SEEDS)
def test_graded_outcomes_survive_relabelling(corpus, seed):
    rng = np.random.default_rng(seed)
    for entry in corpus.graded:
        R = entry.graded
        assert graded_outcomes(relabel_graded(R, rng)[0]) == graded_outcomes(R), entry.id


def test_relabelling_moves_labels(corpus):
    # the oracle is no oracle if every relabelling gives the ring back
    rng = np.random.default_rng(SEEDS[0])
    moved = sum(relabel_graded(e.graded, rng)[0] != e.graded for e in corpus.graded)
    assert moved > 50


class Back:
    """Names on the relabelled ring mapped back to the original's."""

    def __init__(self, q: np.ndarray, p: list):
        self.graders = np.argsort(q).tolist()
        self.elements = [np.argsort(perm).tolist() for perm in p]

    def grader(self, s: int) -> int:
        return self.graders[s]

    def element(self, s: int, x: int) -> int:
        """x of the relabelled component at grader s."""
        return self.elements[self.graders[s]][x]


def check_uniform_epsilons(R: GradedRing, U: GradedRing, back: Back) -> None:
    """Each (eps, eps') of ``is_epsilon_strong`` on U, mapped back, lies in
    span(R_s R_t) and span(R_t R_s) and fixes every r in R_s from the left
    and the right."""
    verdict = gr.is_epsilon_strong(U)
    if not verdict.holds:
        return
    uniform = {}
    for (s, t), (eps, eps_prime) in verdict.witness.uniform.items():
        uniform[back.grader(s), back.grader(t)] = (back.element(U.target(s, t), eps),
                                                   back.element(U.target(t, s), eps_prime))
    assert set(uniform) == set(R.inverse_pairs())
    for (s, t), (eps, eps_prime) in uniform.items():
        st, ts = R.target(s, t), R.target(t, s)
        assert eps in ref.product_span(R, s, t) and eps_prime in ref.product_span(R, t, s)
        for r in R.component(s).elements():
            assert ref.product(R, st, s, eps, r) == r == ref.product(R, s, ts, r, eps_prime)


def check_quasi_inverses(R: GradedRing, U: GradedRing, back: Back) -> None:
    """Each y that ``is_graded_vnr`` on U assigns to (s, r, t), mapped back,
    gives r = r*y*r; a failing (s, r, t) mapped back has no such y."""
    def regular(s, r, t, y):
        st = R.target(s, t)
        return ref.product(R, st, s, ref.product(R, s, t, r, y), r) == r

    verdict = gr.is_graded_vnr(U)
    assignments = {}
    for (s, r, t), y in verdict.witness.assignments.items():
        assignments[back.grader(s), back.element(s, r), back.grader(t)] = back.element(t, y)
    for (s, r, t), y in assignments.items():
        assert regular(s, r, t, y), (s, r, t, y)
    if verdict.holds:
        assert set(assignments) == {(s, r, t) for s, t in R.inverse_pairs()
                                    for r in R.component(s).elements()}
    else:
        s, r, t = verdict.failing
        s, r, t = back.grader(s), back.element(s, r), back.grader(t)
        assert not any(regular(s, r, t, y) for y in R.component(t).elements())


def check_lemma_idempotents(R: GradedRing, U: GradedRing, back: Back) -> None:
    """Each idempotent of ``check_lemma_technical`` on U, mapped back, is an
    idempotent of the component at ts that generates the left ideal spanned
    by R_t * r."""
    report = gr.check_lemma_technical(U)
    if not report["applicable"]:
        return
    assert report["holds"]
    triples = set()
    for w in report["witnesses"]:
        ts = U.target(w["t"], w["s"])
        s, t, r = back.grader(w["s"]), back.grader(w["t"]), back.element(w["s"], w["r"])
        u = back.element(ts, w["idempotent"])
        ring = ref.component_ring(R, R.target(t, s))
        I = additive_closure(ring.additive, {ref.product(R, t, s, b, r)
                                             for b in R.component(t).elements()})
        assert sorted(back.element(ts, x) for x in w["ideal"]) == list(I.elements())
        assert times(ring, u, u) == u and left_ideal(ring, [u]).members == I.members
        triples.add((s, t, r))
    assert triples == {(s, t, r) for s, t in R.inverse_pairs()
                       for r in R.component(s).elements()}


@pytest.mark.parametrize("seed", SEEDS)
def test_witnesses_map_back_to_valid_witnesses(corpus, seed):
    rng = np.random.default_rng(seed)
    for entry in corpus.graded:
        R = entry.graded
        U, q, p = relabel_graded(R, rng)
        for check in (check_uniform_epsilons, check_quasi_inverses, check_lemma_idempotents):
            check(R, U, Back(q, p))


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_checks_survive_relabelling(corpus, seed):
    rng = np.random.default_rng(seed)
    assert len(corpus.rings) == 11
    for entry in corpus.rings:
        T, U = entry.structure, relabel_ring(entry.structure, rng)
        for check in (lambda X: check_vnr_characterization(X, max_generators=2),
                      check_tominaga):
            assert outcomes(check(U)) == outcomes(check(T)), entry.id
