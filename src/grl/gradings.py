"""Graded rings over finite semigroup or groupoid bases, and their classifiers.

The total ring is never materialized: a grading is stored as one finite
additive component per base element plus bilinear product tables between
components.  Absent product tables mean the zero map; for a groupoid base,
tables for non-composable pairs must be absent.  Product tables, like the
components' tables, are read-only intp arrays; the builders hand over the
arrays they compute, and ``validate_grading`` stores equal tables as one.

Every predicate here quantifies over homogeneous elements only, which is all
the decision procedures need.  Witness searches scan ascending element order,
so verdicts and witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, wraps
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    BilinearityError,
    CodomainError,
    GradedAssociativityError,
    NonComposableProductError,
    NotAnIdealError,
    OutOfRangeError,
)
from .groupoids import FiniteGroupoid, to_inverse_semigroup
from .rings import (
    TRIVIAL_GROUP,
    FiniteAdditiveGroup,
    FiniteRing,
    Subgroup,
    additive_closure,
    idempotent_generator,
    is_s_unital,
    is_von_neumann_regular,
    subring_unity,
)
from .semigroups import FiniteSemigroup, classify_semigroup
from .tables import (
    ComparedByTables,
    agree_on_generators,
    biadditive,
    first_assoc_violation,
    first_bad_index,
    first_biadditivity_violation,
    first_nonzero,
    frozen,
)

BaseLike = Union[FiniteSemigroup, FiniteGroupoid]


def _once_per_ring(fn=None, /, *, inputs=None):
    """Compute ``fn(R, *args)`` once per graded ring and input, and keep the
    result in the dict ``R._memo``.  A body over the whole ring is keyed by
    its name.  A body over a grader pair or grader is keyed by its name and
    the identities of the objects ``inputs(R, *args)`` names: the stored
    tables it reads, None for the zero map, the components it reads or lands
    in, and the memo's own spans.  So every pair that reads the same arrays
    shares one entry, and its loop only looks the result up.  The ring holds
    each of those objects as long as its memo lives, so no identity is
    reused.  The memo is no dataclass field, so ``==``, ``hash``, ``repr``
    and pickling ignore it.  The body is looked up as ``__wrapped__`` on each
    miss, so a test can substitute it."""
    if fn is None:
        return partial(_once_per_ring, inputs=inputs)
    name = fn.__name__

    @wraps(fn)
    def once(R, *args):
        memo = R.__dict__.setdefault("_memo", {})
        key = (name,) if inputs is None else (name, *map(id, inputs(R, *args)))
        if key not in memo:
            memo[key] = once.__wrapped__(R, *args)
        return memo[key]

    return once


@dataclass(frozen=True, eq=False)
class GradedRing(ComparedByTables):
    """Every product table is a read-only intp array, whatever the
    constructor is given; ``validate_grading`` stores equal tables as one
    array, shared by every pair that stores it.  ``==`` and ``hash`` compare
    the base, the components and the product tables' bytes.

    ``span`` serves the product spans, ``component_ring`` the component
    rings and the grading-class predicates their verdicts, each built once
    per instance and kept in ``_memo`` by ``_once_per_ring``.  A span is
    keyed by the stored table it reads (or the zero map) and its target
    component, a component ring by its table and component, so pairs and
    graders that read the same arrays share one entry."""

    base: BaseLike
    components: tuple[FiniteAdditiveGroup, ...]
    products: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        arrays: dict[int, np.ndarray] = {}  # one array per table object
        for table in self.products.values():
            if id(table) not in arrays:
                arrays[id(table)] = frozen(table)
        object.__setattr__(self, "products", {key: arrays[id(table)]
                                              for key, table in self.products.items()})

    @property
    def base_kind(self) -> str:
        return "semigroup" if isinstance(self.base, FiniteSemigroup) else "groupoid"

    @property
    def n_graders(self) -> int:
        return len(self.components)

    def graders(self) -> range:
        return range(self.n_graders)

    def component(self, s: int) -> FiniteAdditiveGroup:
        return self.components[s]

    def target(self, s: int, t: int) -> Optional[int]:
        """Index of the component receiving R_s * R_t, an int, or None off G^(2)."""
        return self.base.relations.targets[s][t]

    def _reads(self, s: int, t: int) -> tuple[Optional[np.ndarray], FiniteAdditiveGroup]:
        """What R_s * R_t is read from: the stored table, None for the zero
        map, and the component it lands in."""
        st = self.target(s, t)
        if st is None:
            raise ValueError(f"graders {s} and {t} are not composable")
        return self.products.get((s, t)), self.components[st]

    def table(self, s: int, t: int) -> np.ndarray:
        """Product table R_s x R_t -> R_{st} as an int array, zeros if absent."""
        stored, _ = self._reads(s, t)
        return stored if stored is not None else np.zeros(
            (self.components[s].order, self.components[t].order), dtype=np.intp)

    @_once_per_ring(inputs=_reads)
    def span(self, s: int, t: int) -> Subgroup:
        """Additive span of the products R_s R_t inside R_{st}."""
        return _span(self.components[self.target(s, t)], self.table(s, t))

    def base_pairs(self) -> tuple[tuple[int, int], ...]:
        """All grader pairs with a defined target, row by row."""
        return self.base.relations.pairs

    def inverse_pairs(self) -> tuple[tuple[int, int], ...]:
        """Pairs (s, t) with t in V(s), row by row; over a groupoid base
        V(g) = {g^{-1}}."""
        return self.base.relations.inverse_pairs

    def base_idempotents(self) -> tuple[int, ...]:
        """Idempotent graders: E(S), or the identity morphisms of a groupoid."""
        return self.base.relations.idempotents

    def _idempotent_reads(self, e: int) -> tuple[Optional[np.ndarray], FiniteAdditiveGroup]:
        """What the component ring at e is read from; e must be idempotent."""
        if self.target(e, e) != e:
            raise ValueError(f"grader {e} is not idempotent")
        return self._reads(e, e)

    @_once_per_ring(inputs=_idempotent_reads)
    def component_ring(self, e: int) -> FiniteRing:
        """The component at an idempotent grader, as a ring in its own right.

        One ring object per table and component, so what the ring queries
        cache on it (arrays, idempotents, principal ideals) is built once."""
        return FiniteRing(additive=self.components[e], mul=self.table(e, e))


# ---------------------------------------------------------------------------
# validation


def validate_grading(base: BaseLike,
                     components: Sequence[FiniteAdditiveGroup],
                     products: Mapping[tuple[int, int], Sequence[Sequence[int]]]) -> GradedRing:
    """Verify codomains, bilinearity and cross-component associativity.

    ``components`` must already be validated additive groups, one per base
    element (semigroup elements / groupoid morphisms).  Product tables may
    be nested sequences or int arrays; equal tables are stored as one
    read-only array.  Valid tables are accepted on the
    components' additive generators, each distinct table and each distinct
    triple of tables checked once; otherwise the exhaustive scans report the
    first violation.
    """
    n = len(base.table)
    if len(components) != n:
        raise OutOfRangeError(f"expected {n} components, got {len(components)}")

    target = base.relations.targets
    prods: dict[tuple[int, int], np.ndarray] = {}
    distinct: dict[tuple, np.ndarray] = {}  # by shape and bytes
    # by id of the given table and the orders it must fit; the given table
    # is kept, so that its id is not reused while the loop runs
    stored: dict[tuple, tuple[object, np.ndarray]] = {}
    for (s, t), raw in products.items():
        if not (_is_index(s) and _is_index(t)):
            raise OutOfRangeError(f"product key ({s!r}, {t!r}) is not a pair of integers",
                                  (s, t))
        if not (0 <= s < n and 0 <= t < n):
            raise OutOfRangeError(f"product key ({s}, {t}) out of range", (s, t))
        st = target[s][t]
        if st is None:
            raise NonComposableProductError(
                f"product table present for non-composable pair ({s}, {t})", (s, t))
        rows, cols = components[s].order, components[t].order
        fit = (id(raw), rows, cols, components[st].order)
        if fit not in stored:
            match first_bad_index(raw, *fit[1:]):
                case (length,):
                    raise CodomainError(
                        f"product ({s}, {t}) has {length} rows, expected {rows}", (s, t))
                case (a, length):
                    raise CodomainError(
                        f"product ({s}, {t}) row {a} has length {length}, expected {cols}",
                        (s, t, a))
                case (a, b, v):
                    raise CodomainError(
                        f"product ({s}, {t})[{a}][{b}] = {v!r} not an index in R_{st}",
                        (s, t, a, b, v))
            table = frozen(raw)
            stored[fit] = raw, distinct.setdefault((table.shape, table.tobytes()), table)
        prods[(s, t)] = stored[fit][1]

    R = GradedRing(base=base, components=tuple(components), products=prods)
    add = [g.add for g in components]
    if not _holds_on_generators(R, add):
        _raise_first_graded_violation(R, add)
    return R


def _is_index(key) -> bool:
    """Is a product key part an int (bools excluded), like a table cell?"""
    return isinstance(key, int) and not isinstance(key, bool)


def _associativity_triples(R: GradedRing) -> list[tuple[int, int, int]]:
    """Grader triples (s, t, u) where (ab)c or a(bc) has both of its tables
    stored, in lexicographic order; on every other triple both sides are the
    zero map.  st and tu are defined on each, as the base is a semigroup or
    a category."""
    target, stored = R.base.relations.targets, R.products
    after: dict[int, list[int]] = {}  # s -> the t with (s, t) stored
    before: dict[int, list[int]] = {}  # t -> the s with (s, t) stored
    for (s, t) in stored:
        after.setdefault(s, []).append(t)
        before.setdefault(t, []).append(s)
    return sorted({(s, t, u) for (s, t) in stored for u in after.get(target[s][t], ())}
                  | {(s, t, u) for (t, u) in stored for s in before.get(target[t][u], ())})


def _holds_on_generators(R: GradedRing, add: Sequence[np.ndarray]) -> bool:
    """Are all product tables bi-additive and graded associative?  Both are
    checked on the components' generators, bi-additivity first, as the
    generator test for associativity is a proof only for bi-additive tables.

    Each check is a function of its tables and components alone, so it runs
    once per distinct input: bi-additivity once per table array and
    components of s, t and st, a triple once per components of s, t and u
    and arrays of its two sides.  Arrays and components are told apart by
    identity; ``validate_grading`` makes equal tables one object."""
    T, target = R.products, R.base.relations.targets
    comp = [id(g) for g in R.components]
    gens = [np.asarray(g.generators) for g in R.components]
    edges = [g.edges for g in R.components]
    checked = set()
    for (s, t), P in T.items():
        st = target[s][t]
        key = (id(P), comp[s], comp[t], comp[st])
        if key not in checked:
            checked.add(key)
            if not biadditive(P, add[st], edges[s], edges[t], gens[t]):
                return False
    number = {key: id(P) for key, P in T.items()}.get
    checked = set()
    for (s, t, u) in _associativity_triples(R):
        st, tu = target[s][t], target[t][u]
        ab, ab_c, bc, a_bc = number((s, t)), number((st, u)), number((t, u)), number((s, tu))
        left = None if ab is None or ab_c is None else (ab, ab_c)
        right = None if bc is None or a_bc is None else (bc, a_bc)
        key = (comp[s], comp[t], comp[u], left, right)
        if key not in checked:
            checked.add(key)
            if not agree_on_generators(
                    gens[s], gens[t], gens[u],
                    None if left is None else (T[s, t], T[st, u]),
                    None if right is None else (T[t, u], T[s, tu])):
                return False
    return True


def _raise_first_graded_violation(R: GradedRing, add: Sequence[np.ndarray]) -> None:
    """Scan every table and triple and report the first violation."""
    prods, components, T = R.products, R.components, R.table
    # bi-additivity first: it makes every table send 0 to 0, which the
    # associativity shortcuts below rely on
    for (s, t) in sorted(prods):
        left, right = first_biadditivity_violation(T(s, t), add[s], add[t],
                                                   add[R.target(s, t)])
        if left is not None:
            raise BilinearityError(
                f"(a+a')*b != a*b + a'*b at product ({s}, {t}), "
                f"(a, a', b) = {left}", (s, t, *left))
        if right is not None:
            raise BilinearityError(
                f"a*(b+b') != a*b + a*b' at product ({s}, {t}), "
                f"(a, b, b') = {right}", (s, t, *right))

    for (s, t, u) in _associativity_triples(R):
        st, tu = R.target(s, t), R.target(t, u)
        left_present = (s, t) in prods
        right_present = (t, u) in prods
        if left_present and right_present:
            bad = first_assoc_violation(T(s, t), T(st, u), T(t, u), T(s, tu))
            if bad is not None:
                raise GradedAssociativityError(
                    f"(ab)c != a(bc) at graders ({s}, {t}, {u}), elements {bad}",
                    (s, t, u, *bad))
        elif left_present and (st, u) in prods:
            # right side vanishes; left side must vanish on the image of R_s R_t
            bad = first_nonzero(T(st, u), _image(T(s, t), components[st].order))
            if bad is not None:
                raise GradedAssociativityError(
                    f"(ab)c != 0 = a(bc) at graders ({s}, {t}, {u})", (s, t, u, *bad))
        elif right_present and (s, tu) in prods:
            bad = first_nonzero(T(s, tu).T, _image(T(t, u), components[tu].order))
            if bad is not None:
                bc, a = bad
                raise GradedAssociativityError(
                    f"a(bc) != 0 = (ab)c at graders ({s}, {t}, {u})", (s, t, u, a, bc))


# ---------------------------------------------------------------------------
# verdicts and witnesses


@dataclass(frozen=True)
class Verdict:
    holds: bool
    vacuous: bool = False
    witness: object = None
    failing: object = None


@dataclass(frozen=True)
class EpsilonWitness:
    """Unit-like elements inside product spans.

    ``uniform`` maps (s, t) to (eps, eps') with eps in span(R_s R_t) fixing
    every r in R_s from the left and eps' in span(R_t R_s) fixing it from the
    right.  ``per_element`` maps (s, t, r) to such a pair for that r only.
    """

    kind: str
    uniform: Optional[dict[tuple[int, int], tuple[int, int]]] = None
    per_element: Optional[dict[tuple[int, int, int], tuple[int, int]]] = None


@dataclass(frozen=True)
class GradedVnrWitness:
    """(s, r, t) -> first y in R_t with r = r*y*r; or the first failing triple."""

    assignments: dict[tuple[int, int, int], int]
    failing: Optional[tuple[int, int, int]]
    vacuous: bool


# ---------------------------------------------------------------------------
# product spans


def _image(P: np.ndarray, order: int) -> np.ndarray:
    """The distinct values of an index array, ascending."""
    hit = np.zeros(order, dtype=bool)
    hit[P] = True
    return np.flatnonzero(hit)


def _span(group: FiniteAdditiveGroup, P: np.ndarray) -> Subgroup:
    """Additive span of the values of an index array inside ``group``."""
    return additive_closure(group, _image(P, group.order).tolist())


def _through(R: GradedRing, s: int, t: int) -> tuple:
    """The inputs of r*y*r for r in R_s and y in R_t, t in V(s): the tables
    and targets of (s, t) and of (st, s), which lands in R_s."""
    return (*R._reads(s, t), *R._reads(R.target(s, t), s))


def _into_span(R: GradedRing, s: int, t: int) -> tuple:
    """The inputs of a search inside span(R_s R_t): its ring's table and
    component, and the span."""
    st = R.target(s, t)
    return (*R._reads(st, st), R.span(s, t))


@_once_per_ring(inputs=_through)
def _triple_span(R: GradedRing, s: int, t: int) -> Subgroup:
    """Additive span of R_s R_t R_s inside R_s (for t an inverse of s): the
    products x*c with x in the image of R_s R_t and c in R_s."""
    st = R.target(s, t)
    return _span(R.component(s),
                 R.table(st, s)[_image(R.table(s, t), R.component(st).order)])


# ---------------------------------------------------------------------------
# grading classes


@_once_per_ring
def is_symmetric(R: GradedRing) -> Verdict:
    """Does span(R_s R_t R_s) fill R_s for every s and every inverse t of s?"""
    pairs = R.inverse_pairs()
    for (s, t) in pairs:
        span = _triple_span(R, s, t)
        if len(span) != R.component(s).order:
            return Verdict(holds=False, failing=(s, t))
    return Verdict(holds=True, vacuous=not pairs)


@_once_per_ring
def is_strong(R: GradedRing) -> Verdict:
    """Does span(R_s R_t) fill R_{st} for every defined pair?"""
    for (s, t) in R.base_pairs():
        st = R.target(s, t)
        if len(R.span(s, t)) != R.component(st).order:
            return Verdict(holds=False, failing=(s, t))
    return Verdict(holds=True)


def _subring_is_s_unital(M: np.ndarray, members: Sequence[int]) -> bool:
    idx = np.asarray(members, dtype=np.intp)
    sub = M[idx[:, None], idx]
    return bool((sub == idx).any(axis=0).all() and (sub == idx[:, None]).any(axis=1).all())


@_once_per_ring(inputs=_into_span)
def _span_unity(R: GradedRing, s: int, t: int) -> Optional[int]:
    """The unity of span(R_s R_t) as a ring, or None."""
    st = R.target(s, t)
    return subring_unity(R.table(st, st), R.span(s, t).elements())


@_once_per_ring(inputs=_into_span)
def _span_is_s_unital(R: GradedRing, s: int, t: int) -> bool:
    """Is span(R_s R_t) an s-unital ring?"""
    st = R.target(s, t)
    return _subring_is_s_unital(R.table(st, st), R.span(s, t).elements())


@_once_per_ring
def is_epsilon_strong(R: GradedRing) -> Verdict:
    """Symmetric, with every span(R_s R_t) for t inverse to s a unital ring.

    The witness records, per pair, the unity of span(R_s R_t) and the unity
    of span(R_t R_s).
    """
    sym = is_symmetric(R)
    if not sym.holds:
        return Verdict(holds=False, failing=("symmetric", *sym.failing))
    uniform: dict[tuple[int, int], tuple[int, int]] = {}
    for (s, t) in R.inverse_pairs():
        eps = _span_unity(R, s, t)
        if eps is None:
            return Verdict(holds=False, failing=(s, t))
        eps_prime = _span_unity(R, t, s)
        if eps_prime is None:
            return Verdict(holds=False, failing=(t, s))
        uniform[(s, t)] = (eps, eps_prime)
    return Verdict(holds=True, vacuous=sym.vacuous,
                   witness=EpsilonWitness(kind="uniform", uniform=uniform))


def _units(span: Subgroup, table: np.ndarray, order: int) -> tuple[list[int], bool]:
    """For each r < ``order`` the first u in ``span`` with table[u, r] == r,
    -1 where there is none, and whether one u serves every r."""
    us = np.array(span.elements())
    fixes = table[us] == np.arange(order)  # [i, r]: us[i] fixes r
    return (np.where(fixes.any(axis=0), us[fixes.argmax(axis=0)], -1).tolist(),
            bool(fixes.all(axis=1).any()))


@_once_per_ring(inputs=_through)
def _left_units(R: GradedRing, s: int, t: int) -> tuple[list[int], bool]:
    """Elements eps of span(R_s R_t) with eps*r = r, for the r in R_s."""
    return _units(R.span(s, t), R.table(R.target(s, t), s), R.component(s).order)


@_once_per_ring(inputs=lambda R, s, t: (*R._reads(t, s), *R._reads(s, R.target(t, s))))
def _right_units(R: GradedRing, s: int, t: int) -> tuple[list[int], bool]:
    """Elements eps' of span(R_t R_s) with r*eps' = r, for the r in R_s."""
    return _units(R.span(t, s), R.table(s, R.target(t, s)).T, R.component(s).order)


@_once_per_ring
def _per_element_epsilons(R: GradedRing) -> tuple[bool, dict, Optional[tuple]]:
    """For each (s, t, r): search eps in span(R_s R_t) with eps*r = r and
    eps' in span(R_t R_s) with r*eps' = r.  Once per ring: the witness of
    ``is_nearly_epsilon_strong`` and the witness side of
    ``check_eps_characterizations`` both read it; no definition side does."""
    out: dict[tuple[int, int, int], tuple[int, int]] = {}
    for (s, t) in R.inverse_pairs():
        (eps, _), (eps_prime, _) = _left_units(R, s, t), _right_units(R, s, t)
        for r, pair in enumerate(zip(eps, eps_prime)):
            if min(pair) < 0:
                return False, out, (s, t, r)
            out[(s, t, r)] = pair
    return True, out, None


@_once_per_ring
def is_nearly_epsilon_strong(R: GradedRing) -> Verdict:
    """Symmetric, with every span(R_s R_t) for t inverse to s an s-unital ring.

    The attached witness carries element-wise unit pairs found by direct
    search; these re-verify by table evaluation.
    """
    sym = is_symmetric(R)
    if not sym.holds:
        return Verdict(holds=False, failing=("symmetric", *sym.failing))
    for (s, t) in R.inverse_pairs():
        if not _span_is_s_unital(R, s, t):
            return Verdict(holds=False, failing=(s, t))
    ok, per_element, _ = _per_element_epsilons(R)
    witness = EpsilonWitness(kind="per-element", per_element=per_element) if ok else None
    return Verdict(holds=True, vacuous=sym.vacuous, witness=witness)


# ---------------------------------------------------------------------------
# graded regularity


@_once_per_ring(inputs=_through)
def _quasi_inverses(R: GradedRing, s: int, t: int) -> list[int]:
    """For each r in R_s the first y in R_t with r*y*r = r, -1 where none is."""
    rs = np.arange(R.component(s).order)[:, None]
    fixed = R.table(R.target(s, t), s)[R.table(s, t), rs] == rs  # [r, y]: r*y*r == r
    return np.where(fixed.any(axis=1), fixed.argmax(axis=1), -1).tolist()


@_once_per_ring
def is_graded_vnr(R: GradedRing) -> Verdict:
    """For every grader s, r in R_s and inverse t of s: some y in R_t with r = r*y*r.

    Vacuous when no grader with a nontrivial component has an inverse.
    """
    pairs = R.inverse_pairs()
    vacuous = not any(R.component(s).order > 1 for (s, _) in pairs)
    assignments: dict[tuple[int, int, int], int] = {}
    for (s, t) in pairs:
        for r, y in enumerate(_quasi_inverses(R, s, t)):
            if y < 0:
                return Verdict(holds=False, vacuous=vacuous,
                               witness=GradedVnrWitness(assignments, (s, r, t), vacuous),
                               failing=(s, r, t))
            assignments[(s, r, t)] = y
    return Verdict(holds=True, vacuous=vacuous,
                   witness=GradedVnrWitness(assignments, None, vacuous))


@_once_per_ring
def base_components_vnr(R: GradedRing) -> Verdict:
    """Is the component ring at every idempotent grader von Neumann regular?"""
    for e in R.base_idempotents():
        w = is_von_neumann_regular(R.component_ring(e))
        if not w.holds:
            return Verdict(holds=False, failing=(e, w.failing))
    return Verdict(holds=True)


# ---------------------------------------------------------------------------
# cross-checks: each side computed by an independent code path


def check_eps_characterizations(R: GradedRing) -> dict:
    """Definition-side vs witness-side verdicts for the epsilon-strong and
    nearly epsilon-strong classes; they must coincide.

    When the grading is epsilon-strong, every component at an idempotent
    grader must additionally have a verified two-sided unity.
    """
    eps_def = is_epsilon_strong(R)

    # witness side for epsilon-strong: a single eps per pair fixing all of R_s
    eps_wit = True
    eps_wit_failing = None
    for (s, t) in R.inverse_pairs():
        # an eps that fixes every r from the left, an eps' from the right
        if not (_left_units(R, s, t)[1] and _right_units(R, s, t)[1]):
            eps_wit = False
            eps_wit_failing = (s, t)
            break

    near_def = is_nearly_epsilon_strong(R)
    near_wit, _, near_wit_failing = _per_element_epsilons(R)

    unit_components = {"checked": False, "holds": True, "unities": {}, "failing": None}
    if eps_def.holds:
        unit_components["checked"] = True
        for e in R.base_idempotents():
            u = subring_unity(R.table(e, e), R.component(e).elements())
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
    """Graded regularity must equal: nearly epsilon-strong and every
    idempotent component regular.  Both sides computed independently."""
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


@_once_per_ring(inputs=lambda R, s, t: (*R._reads(t, s), R.components[s]))
def _column_images(R: GradedRing, s: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The image R_t r of each column r of R_t R_s, in one gather: row r of
    the first array marks it, row r of the second holds those marks packed."""
    table_ts = R.table(t, s)
    hit = np.zeros((table_ts.shape[1], R.component(R.target(t, s)).order), dtype=bool)
    hit[np.arange(len(hit))[:, None], table_ts.T] = True
    images = np.packbits(hit, axis=1)
    hit.flags.writeable = images.flags.writeable = False
    return hit, images


def check_lemma_technical(R: GradedRing, max_witnesses: Optional[int] = None) -> dict:
    """Under the two theorem hypotheses, every subgroup R_t * r must be a left
    ideal of the component at ts generated by an idempotent found by scan.

    Many r give the same subgroup, so within one call each distinct image
    of column r is spanned once, and each distinct (ts, subgroup) is decided
    once, ideal guard included, its generator reused for every later r.  A
    subgroup that fails ends the scan, so the first failing r is reported.
    The images of all columns are found in one gather per distinct table
    and components, ``_column_images``.
    """
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
    spans: dict[tuple[int, bytes], Subgroup] = {}
    generators: dict[tuple[int, frozenset[int]], int] = {}
    for (s, t) in R.inverse_pairs():
        ts = R.target(t, s)
        group_ts, ring_ts = R.component(ts), R.component_ring(ts)
        hit, images = _column_images(R, s, t)
        for r in R.component(s).elements():
            key = ts, images[r].tobytes()  # the image of column r, which spans R_t r
            I = spans.get(key)
            if I is None:
                I = spans[key] = additive_closure(group_ts, np.flatnonzero(hit[r]).tolist())
            u = generators.get((ts, I.members))
            if u is None:
                try:
                    u = idempotent_generator(ring_ts, I)
                except NotAnIdealError:
                    return {"check": "lemma-technical", "applicable": True, "holds": False,
                            "agree": False,
                            "failing": {"s": s, "t": t, "r": r,
                                        "reason": "not a left ideal"}}
                if u is None:
                    return {"check": "lemma-technical", "applicable": True, "holds": False,
                            "agree": False,
                            "failing": {"s": s, "t": t, "r": r,
                                        "reason": "no idempotent generator",
                                        "ideal": list(I.elements())}}
                generators[ts, I.members] = u
            checked += 1
            if max_witnesses is None or len(witnesses) < max_witnesses:
                witnesses.append({"s": s, "t": t, "r": r, "idempotent": u,
                                  "ideal": list(I.elements())})
    return {"check": "lemma-technical", "applicable": True, "holds": True,
            "agree": True, "triples_checked": checked, "witnesses": witnesses}


@_once_per_ring(inputs=_through)
def _has_quasi_inverse(R: GradedRing, s: int, t: int) -> np.ndarray:
    """Which r in R_s have some y in R_t with r*y*r = r.  The some-inverse
    forms of the two regularity theorems read it; ``is_graded_vnr`` does not."""
    rs = np.arange(R.component(s).order)[:, None]
    found = (R.table(R.target(s, t), s)[R.table(s, t), rs] == rs).any(axis=1)
    found.flags.writeable = False
    return found


def check_theorem_inverse_semigroup(R: GradedRing) -> dict:
    """Over an inverse-semigroup base, three forms of graded regularity must
    coincide: the all-inverses form, the some-inverse form, and the
    nearly-epsilon-strong + regular-components form."""
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
        # r has a y in some R_t, t in V(s), with r*y*r = r
        found = np.zeros(R.component(s).order, dtype=bool)
        for t in cls.inverse_sets[s]:
            found |= _has_quasi_inverse(R, s, t)
        if not found.all():
            part_ii = False
            ii_failing = (s, int(found.argmin()))
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
    """Consequences for the epsilon-strong and strong special cases.

    Epsilon-strong: graded regularity must equal regularity of the idempotent
    components.  Strong: nearly epsilon-strong must equal s-unitality of the
    idempotent components, and under that s-unitality the same regularity
    equivalence must hold.
    """
    out: dict = {"check": "corollaries", "applicable": True}
    agree = True

    eps = is_epsilon_strong(R)
    if eps.holds:
        lhs, rhs = is_graded_vnr(R).holds, base_components_vnr(R).holds
        out["epsilon_strong_case"] = {"applicable": True, "graded_vnr": lhs,
                                      "base_components_vnr": rhs, "agree": lhs == rhs}
        agree = agree and lhs == rhs
    else:
        out["epsilon_strong_case"] = {"applicable": False}

    strong = is_strong(R)
    if strong.holds:
        components_s_unital = all(is_s_unital(R.component_ring(e))
                                  for e in R.base_idempotents())
        near = is_nearly_epsilon_strong(R).holds
        part = {"applicable": True, "nearly_epsilon_strong": near,
                "components_s_unital": components_s_unital,
                "agree": near == components_s_unital}
        agree = agree and near == components_s_unital
        if components_s_unital:
            lhs, rhs = is_graded_vnr(R).holds, base_components_vnr(R).holds
            part["regularity"] = {"graded_vnr": lhs, "base_components_vnr": rhs,
                                  "agree": lhs == rhs}
            agree = agree and lhs == rhs
        out["strong_case"] = part
    else:
        out["strong_case"] = {"applicable": False}

    out["agree"] = agree
    return out


# ---------------------------------------------------------------------------
# groupoid gradings


def regrade_groupoid_to_semigroup(R: GradedRing) -> GradedRing:
    """View a groupoid grading over the adjoined-zero inverse semigroup.

    The zero grader gets the trivial component; products that were absent
    (non-composable) stay absent, i.e. zero.
    """
    if R.base_kind != "groupoid":
        raise ValueError("regrade needs a groupoid-graded ring")
    S, embed = to_inverse_semigroup(R.base)
    components = [TRIVIAL_GROUP] + list(R.components)
    products = {(embed[g], embed[h]): table for (g, h), table in R.products.items()}
    return validate_grading(S, components, products)


def check_prop_switch(R: GradedRing) -> dict:
    """The epsilon-strong and nearly epsilon-strong verdicts must be the same
    whether computed over the groupoid or over its adjoined-zero semigroup."""
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


def _homogeneous_in_rRr(R: GradedRing, g: int, r: int) -> bool:
    """Membership of r in the span of r * R * r, computed across all graders.

    Only graders h with g h g = g can contribute to the component of r, so
    the span is accumulated from exactly those: the base's weak inverses of g.
    """
    seeds = [np.zeros(1, dtype=np.intp)]
    for h in R.base.relations.weak_inverse_sets[g]:
        seeds.append(R.table(R.target(g, h), g)[R.table(g, h)[r], r])
    return r in _span(R.component(g), np.concatenate(seeds)).members


def check_theorem_groupoid(R: GradedRing) -> dict:
    """Three forms of groupoid graded regularity that must coincide:
    span membership of r in r*R*r, a quasi-inverse in the component at g^{-1},
    and nearly epsilon-strong with regular object components."""
    if R.base_kind != "groupoid":
        return {"check": "theorem-groupoid", "applicable": False,
                "reason": "needs a groupoid-graded ring"}
    G = R.base

    part_i = True
    i_failing = None
    for g in G.morphisms():
        for r in R.component(g).elements():
            if not _homogeneous_in_rRr(R, g, r):
                part_i = False
                i_failing = (g, r)
                break
        if not part_i:
            break

    part_ii = True
    ii_failing = None
    for g in G.morphisms():
        quasi = _has_quasi_inverse(R, g, G.inv[g])
        if not quasi.all():
            part_ii = False
            ii_failing = (g, int(quasi.argmin()))
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
# structural comparison


def _normalized_products(R: GradedRing) -> dict:
    return {key: table for key, table in R.products.items() if table.any()}


def structurally_equal(R1: GradedRing, R2: GradedRing) -> bool:
    """Same base tables, same component tables, same nonzero product tables.

    Labels are ignored; absent products compare equal to all-zero tables.
    """
    if R1.base_kind != R2.base_kind:
        return False
    b1, b2 = R1.base, R2.base
    if not np.array_equal(b1.table, b2.table):
        return False
    if R1.base_kind == "groupoid" and (b1.dom, b1.cod, b1.inv) != (b2.dom, b2.cod, b2.inv):
        return False
    if len(R1.components) != len(R2.components):
        return False
    for c1, c2 in zip(R1.components, R2.components):
        if not (np.array_equal(c1.add, c2.add) and np.array_equal(c1.neg, c2.neg)):
            return False
    p1, p2 = _normalized_products(R1), _normalized_products(R2)
    return p1.keys() == p2.keys() and all(np.array_equal(p1[key], p2[key]) for key in p1)
