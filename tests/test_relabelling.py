"""The relabelling oracle: a graded ring relabelled by a permutation of its
base and, for each component, a permutation that fixes 0 is isomorphic to
the original, so every verdict and every check's outcome must be the same.

The oracle needs no reference code, so it also guards what grl and the
test references share, and it checks that no predicate depends on labels.
Permutations come from fixed seeds, so a failure repeats.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from grl import cli
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


def relabel_graded(R: GradedRing, rng) -> GradedRing:
    q = rng.permutation(R.n_graders).astype(np.intp)
    p = [fixing_zero(R.component(s).order, rng) for s in R.graders()]
    old = np.argsort(q)
    components = [relabel_group(R.component(s), p[s]) for s in old.tolist()]
    products = {(int(q[s]), int(q[t])): relabel_table(P, p[s], p[t], p[R.target(s, t)])
                for (s, t), P in R.products.items()}
    return validate_grading(relabel_base(R.base, q), components, products)


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
        assert graded_outcomes(relabel_graded(R, rng)) == graded_outcomes(R), entry.id


def test_relabelling_moves_labels(corpus):
    # the oracle is no oracle if every relabelling gives the ring back
    rng = np.random.default_rng(SEEDS[0])
    moved = sum(relabel_graded(e.graded, rng) != e.graded for e in corpus.graded)
    assert moved > 50


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_checks_survive_relabelling(corpus, seed):
    rng = np.random.default_rng(seed)
    assert len(corpus.rings) == 11
    for entry in corpus.rings:
        T, U = entry.structure, relabel_ring(entry.structure, rng)
        for check in (lambda X: check_vnr_characterization(X, max_generators=2),
                      check_tominaga):
            assert outcomes(check(U)) == outcomes(check(T)), entry.id
