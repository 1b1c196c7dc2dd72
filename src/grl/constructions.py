"""Builders for the example grading families: semigroup rings, matrix-unit
gradings of matrix rings, general good gradings, and groupoid rings.

Components are always copies (or finite powers) of the coefficient ring's
additive group; the total ring is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (
    DiagonalNotIdempotentError,
    IncompatibleDegreesError,
    NotGoodError,
    OppositeDegreeError,
    OutOfRangeError,
)
from .gradings import (
    GradedRing,
    is_epsilon_strong,
    is_graded_vnr,
    validate_grading,
)
from .groupoids import FiniteGroupoid
from .rings import (
    TRIVIAL_GROUP,
    FiniteAdditiveGroup,
    FiniteRing,
    _matrix_product,
    _power_group,
    is_von_neumann_regular,
    unity,
)
from .semigroups import (
    FiniteSemigroup,
    classify_semigroup,
    idempotents,
    inverses,
    validate_semigroup,
)
from .tables import first_bad_index


def semigroup_ring(A: FiniteRing, S: FiniteSemigroup) -> GradedRing:
    """Canonical grading of the semigroup ring: one copy of A per element,
    products multiply coefficients and move to the product's component."""
    components = tuple(A.additive for _ in S.elements())
    products = {(s, t): A.mul for s in S.elements() for t in S.elements()}
    return validate_grading(S, components, products)


def matrix_units_semigroup(n: int) -> FiniteSemigroup:
    """The zero element together with the n*n matrix units e_{i,j};
    e_{i,j} e_{k,l} = e_{i,l} when j = k, else zero."""
    if n < 1:
        raise ValueError("n must be >= 1")
    order = n * n + 1
    table = [[0] * order for _ in range(order)]
    for i, j, l in product(range(1, n + 1), repeat=3):
        table[bn_index(n, i, j)][bn_index(n, j, l)] = bn_index(n, i, l)
    labels = ["0"] + [f"e{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    return validate_semigroup(table, labels=labels)


def bn_index(n: int, i: int, j: int) -> int:
    """Index of e_{i,j} (1-based i, j) in matrix_units_semigroup(n)."""
    return (i - 1) * n + (j - 1) + 1


def matrix_bn_grading(A: FiniteRing, n: int) -> GradedRing:
    """Grade the n-by-n matrix ring over a unital A by its matrix units:
    the zero element carries the trivial component, e_{i,j} carries A*e_{i,j}."""
    if unity(A) is None:
        raise ValueError("matrix-unit gradings need a unital coefficient ring")
    B = matrix_units_semigroup(n)
    components: list[FiniteAdditiveGroup] = [TRIVIAL_GROUP]
    components += [A.additive for _ in range(n * n)]
    products = {(bn_index(n, i, j), bn_index(n, j, l)): A.mul
                for i, j, l in product(range(1, n + 1), repeat=3)}
    return validate_grading(B, components, products)


# ---------------------------------------------------------------------------
# good gradings


@dataclass(frozen=True)
class DegreeMap:
    """Assignment of a base element to every matrix unit of an n-by-n grid.

    ``deg`` is 1-based via deg[i-1][j-1]; validation enforces that diagonal
    degrees are idempotent, that deg(j,i) inverts deg(i,j), and that
    deg(i,j)*deg(j,k) = deg(i,k).
    """

    n: int
    deg: tuple[tuple[int, ...], ...]
    base: FiniteSemigroup

    def degree(self, i: int, j: int) -> int:
        return self.deg[i - 1][j - 1]


def validate_degree_map(base: FiniteSemigroup, deg: Sequence[Sequence[int]]) -> DegreeMap:
    if not classify_semigroup(base).is_inverse:
        raise ValueError("good gradings are defined over inverse semigroup bases")
    n = len(deg)
    if n < 1:
        raise NotGoodError("empty degree map")
    match first_bad_index(deg, n, n, base.order):
        case (i, length):
            raise NotGoodError(f"degree row {i} has length {length}, expected {n}", (i,))
        case (i, j, v):
            raise OutOfRangeError(f"deg[{i}][{j}] = {v!r} is not a base element", (i, j, v))
    es = set(idempotents(base))
    for i in range(n):
        if deg[i][i] not in es:
            raise DiagonalNotIdempotentError(
                f"deg({i + 1},{i + 1}) = {deg[i][i]} is not idempotent",
                (i + 1, i + 1, deg[i][i]))
    for i in range(n):
        for j in range(n):
            s = deg[i][j]
            expected = inverses(base, s)[0]  # inverse base: unique
            if deg[j][i] != expected:
                raise OppositeDegreeError(
                    f"deg({j + 1},{i + 1}) = {deg[j][i]} but the inverse of "
                    f"deg({i + 1},{j + 1}) is {expected}",
                    (i + 1, j + 1, deg[i][j], deg[j][i]))
    D = np.array(deg, dtype=np.intp)
    # [i, j, k]: deg(i,j)*deg(j,k) != deg(i,k)
    incompatible = np.argwhere(base.table[D[:, :, None], D[None]] != D[:, None, :])
    if incompatible.size:
        i, j, k = incompatible[0].tolist()
        raise IncompatibleDegreesError(
            f"deg({i + 1},{j + 1})*deg({j + 1},{k + 1}) != deg({i + 1},{k + 1})",
            (i + 1, j + 1, k + 1))
    return DegreeMap(n=n, deg=tuple(tuple(row) for row in deg), base=base)


@dataclass(frozen=True)
class GoodGrading:
    """A validated good grading together with its construction data.

    ``cells[s]`` lists the (i, j) matrix positions (1-based, row-major order)
    whose unit has degree s; the component at s is A^len(cells[s]) with
    coordinates in that cell order.
    """

    graded: GradedRing
    degree_map: DegreeMap
    coefficients: FiniteRing
    cells: tuple[tuple[tuple[int, int], ...], ...]


def good_grading(A: FiniteRing, degree_map: DegreeMap) -> GoodGrading:
    """Grade the n-by-n matrix ring over a unital A so that the unit at
    (i, j) is homogeneous of the mapped degree."""
    if unity(A) is None:
        raise ValueError("good gradings need a unital coefficient ring")
    dm = degree_map
    n = dm.n
    base = dm.base
    cells: list[list[tuple[int, int]]] = [[] for _ in base.elements()]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cells[dm.degree(i, j)].append((i, j))
    # one group per size: graders of equal size share one component object,
    # and validate_grading checks each distinct component and table once
    powers = {k: _power_group(A.additive, k) for k in {len(cs) for cs in cells}}
    components = tuple(powers[len(cs)] for cs in cells)
    target = base.relations.targets
    products = {(s, t): _matrix_product(A, cells[s], cells[t], cells[target[s][t]])
                for s, t in product(base.elements(), repeat=2)
                if any(j == k for (_, j) in cells[s] for (k, _) in cells[t])}
    graded = validate_grading(base, components, products)
    return GoodGrading(graded=graded, degree_map=dm, coefficients=A,
                       cells=tuple(tuple(cs) for cs in cells))


def check_good_grading_prop(gg: GoodGrading) -> dict:
    """For a good grading whose idempotent components are spanned by diagonal
    units: the grading must be epsilon-strong and graded regularity must
    equal regularity of the coefficient ring.

    A non-diagonal idempotent component is reported as a failed hypothesis,
    not an error; the epsilon-strong verdict is still required.
    """
    R = gg.graded
    es = idempotents(gg.degree_map.base)
    hypothesis = True
    bad_component = None
    for e in es:
        cs = gg.cells[e]
        if cs and any(i != j for (i, j) in cs):
            hypothesis = False
            bad_component = e
            break
    eps = is_epsilon_strong(R).holds
    gvnr = is_graded_vnr(R).holds
    avnr = is_von_neumann_regular(gg.coefficients).holds
    out = {
        "check": "good-grading",
        "applicable": True,
        "hypothesis_diagonal": hypothesis,
        "hypothesis_failing_component": bad_component,
        "epsilon_strong": eps,
        "graded_vnr": gvnr,
        "coefficient_vnr": avnr,
    }
    if hypothesis:
        out["equivalence"] = {"applicable": True, "agree": gvnr == avnr}
        out["agree"] = eps and gvnr == avnr
    else:
        out["equivalence"] = {"applicable": False}
        out["agree"] = eps
    return out


def groupoid_ring(A: FiniteRing, G: FiniteGroupoid) -> GradedRing:
    """One copy of A per morphism; products multiply coefficients along
    composition and are absent (zero) for non-composable pairs."""
    components = tuple(A.additive for _ in G.morphisms())
    products = {(g, h): A.mul for (g, h) in G.composable_pairs()}
    return validate_grading(G, components, products)
