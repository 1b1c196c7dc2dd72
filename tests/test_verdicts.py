"""Every regularity and grading-class predicate answers with one record,
``grl.rings.Verdict``, whose witness has the form the predicate's docstring
gives, and a semigroup's classification is its base relations."""

import pytest

from grl import catalog, gradings as gr
from grl.constructions import matrix_bn_grading
from grl.rings import Verdict, is_von_neumann_regular
from grl.semigroups import classify_semigroup


def test_ring_regularity_is_a_verdict():
    # the witness is the first quasi-inverse of each r, None from the first failing r on
    assert is_von_neumann_regular(catalog.named_ring("Z6")) == Verdict(
        holds=True, witness=(0, 1, 2, 1, 1, 5))
    assert is_von_neumann_regular(catalog.named_ring("Z4")) == Verdict(
        holds=False, witness=(0, 1, None, None), failing=2)


def test_graded_predicates_are_verdicts():
    R = matrix_bn_grading(catalog.named_ring("Z4"), 2)  # the corpus entry gr:bn:Z4:2
    pairs = R.inverse_pairs()
    assert gr.is_symmetric(R) == Verdict(holds=True)
    assert gr.is_strong(R) == Verdict(holds=True)
    eps = gr.is_epsilon_strong(R)
    assert type(eps) is Verdict and eps.holds and not eps.vacuous
    assert eps.witness == {(0, 0): (0, 0), **{st: (1, 1) for st in pairs[1:]}}
    near = gr.is_nearly_epsilon_strong(R)
    assert type(near) is Verdict and near.holds and not near.vacuous
    assert near.witness == {(s, t, r): (0, 0) if r == 0 else (1, 1)
                            for s, t in pairs for r in R.component(s).elements()}
    # the first y of each (s, r, t) up to the failing triple: 2 in Z4 has none
    assert gr.is_graded_vnr(R) == Verdict(
        holds=False, witness={(0, 0, 0): 0, (1, 0, 1): 0, (1, 1, 1): 1}, failing=(1, 2, 1))
    assert gr.base_components_vnr(R) == Verdict(holds=False, failing=(1, 2))


@pytest.mark.parametrize("name", ["B3", "L2", "Z3", "monogenic22"])
def test_classification_is_the_base_relations(name):
    S = catalog.named_semigroup(name)
    assert classify_semigroup(S) is S.relations
