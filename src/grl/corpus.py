"""Deterministic generation of the structure corpus the theorem suites run over.

Regenerating from the same manifest is bit-identical: entry order follows the
manifest's lists, exhaustive enumeration is lexicographic, and sampling is
seeded.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from functools import cache
from typing import Any, Callable, Optional

from . import catalog
from .constructions import (
    _matrix_units_order,
    good_grading,
    groupoid_ring,
    matrix_bn_grading,
    semigroup_ring,
    validate_degree_map,
)
from .gradings import GradedRing
from .semigroups import enumerate_semigroups, sample_semigroups

# enumerate_semigroups tests order^(order^2) tables: 19683 at 3, 4^16 (hours) at 4
MAX_EXHAUSTIVE_ORDER = 3
# about 8e-7 of order-4 tables are associative: some 0.1 s of sampling each
MAX_ORDER4_SAMPLES = 64


def _known(resolve) -> Callable[[object], bool]:
    """Predicate: the value is a name that the catalog resolver knows."""
    def known(value) -> bool:
        if not isinstance(value, str):
            return False
        try:
            resolve(value)
        except KeyError:
            return False
        return True
    return known


def _matrix_units_size(value) -> bool:
    """A matrix_bn size that ``matrix_units_semigroup`` accepts."""
    if type(value) is not int:
        return False
    try:
        _matrix_units_order(value)
    except ValueError:
        return False
    return True


# Per list field of the manifest, one check for each part of an entry.
_ENTRY_CHECKS = {
    "named_semigroups": (_known(catalog.semigroup_factory),),
    "rings": (_known(catalog.ring_factory),),
    "groupoids": (_known(catalog.groupoid_factory),),
    "semigroup_ring_coefficients": (_known(catalog.ring_factory),),
    "semigroup_ring_bases": (_known(catalog.semigroup_factory),),
    "matrix_gradings": (_known(catalog.ring_factory), _matrix_units_size),
    "good_gradings": (_known(catalog.GOOD_GRADING_SPECS.__getitem__),),
    "groupoid_ring_pairs": (_known(catalog.ring_factory), _known(catalog.groupoid_factory)),
}


@dataclass(frozen=True)
class CorpusManifest:
    seed: int = 20250810
    exhaustive_semigroups_max_order: int = 3
    order4_sample_count: int = 4
    named_semigroups: tuple[str, ...] = (
        "L2", "chain2", "chain3", "Z2", "Z3", "Z4", "B1", "B2", "B3", "monogenic22")
    rings: tuple[str, ...] = (
        "Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "F4", "Z2xZ2", "zero2", "zero4", "2Z8")
    groupoids: tuple[str, ...] = (
        "pair1", "pair2", "pair3", "group_Z2", "group_Z3", "pair2+group_Z2")
    semigroup_ring_coefficients: tuple[str, ...] = (
        "Z2", "Z3", "Z4", "Z6", "F4", "Z2xZ2", "zero2", "zero4")
    semigroup_ring_bases: tuple[str, ...] = ("L2", "chain2", "Z2", "B2", "monogenic22")
    matrix_gradings: tuple[tuple[str, int], ...] = (
        ("Z2", 1), ("Z2", 2), ("Z2", 3),
        ("Z4", 1), ("Z4", 2), ("Z4", 3),
        ("Z6", 1), ("Z6", 2), ("Z6", 3))
    good_gradings: tuple[str, ...] = (
        "M2_Z2_group", "M2_Z4_group", "M2_F4_group", "M2_Z2_bn", "M2_Z2_trivial")
    groupoid_ring_pairs: tuple[tuple[str, str], ...] = (
        ("Z2", "pair1"), ("Z2", "pair2"), ("Z2", "pair3"),
        ("Z4", "pair2"), ("Z4", "pair3"), ("Z6", "pair2"),
        ("Z2", "group_Z2"), ("Z4", "group_Z2"),
        ("Z2", "pair2+group_Z2"),
        ("zero2", "group_Z2"), ("zero4", "pair2"))

    def __post_init__(self) -> None:
        for name in ("seed", "exhaustive_semigroups_max_order", "order4_sample_count"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"manifest {name} must be a non-negative integer: {value!r}")
        if self.exhaustive_semigroups_max_order > MAX_EXHAUSTIVE_ORDER:
            raise ValueError(f"manifest exhaustive_semigroups_max_order is at most "
                             f"{MAX_EXHAUSTIVE_ORDER}")
        if self.order4_sample_count > MAX_ORDER4_SAMPLES:
            raise ValueError(f"manifest order4_sample_count is at most {MAX_ORDER4_SAMPLES}")
        for name, checks in _ENTRY_CHECKS.items():
            entries = getattr(self, name)
            if not isinstance(entries, tuple):
                raise ValueError(f"manifest {name} must be a list: {entries!r}")
            for entry in entries:
                parts = entry if len(checks) > 1 else (entry,)
                if not (isinstance(parts, tuple) and len(parts) == len(checks)
                        and all(check(part) for check, part in zip(checks, parts))):
                    raise ValueError(f"manifest {name} has an unknown or malformed "
                                     f"entry: {entry!r}")

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(data: dict) -> "CorpusManifest":
        if not isinstance(data, dict):
            raise ValueError(f"manifest must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(CorpusManifest)})
        if unknown:
            raise ValueError(f"unknown manifest keys: {', '.join(unknown)}")
        kwargs: dict[str, Any] = {}
        for key, value in data.items():
            if isinstance(value, list):
                value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
            kwargs[key] = value
        return CorpusManifest(**kwargs)


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    kind: str  # semigroup | ring | groupoid | graded_ring
    structure: Any
    meta: dict = field(default_factory=dict)

    @property
    def graded(self) -> GradedRing:
        if isinstance(self.structure, GradedRing):
            return self.structure
        raise TypeError(f"entry {self.id} is not a graded ring")


@dataclass
class Corpus:
    manifest: CorpusManifest
    semigroups: list[CorpusEntry]
    rings: list[CorpusEntry]
    groupoids: list[CorpusEntry]
    graded: list[CorpusEntry]
    counts: dict[str, int]
    # deterministic work done while generating; reported apart from counts,
    # which are part of the corpus bytes
    work: dict[str, int] = field(default_factory=dict)

    def all_entries(self) -> list[CorpusEntry]:
        return self.semigroups + self.rings + self.groupoids + self.graded


def default_manifest() -> CorpusManifest:
    return CorpusManifest()


def generate_corpus(manifest: Optional[CorpusManifest] = None) -> Corpus:
    """Each named ring, semigroup and groupoid is one object per call,
    shared by every entry that names it.  The catalog builds each name once
    per process and gives every call its own instances, so no cache a
    check fills on one corpus reaches the next."""
    m = manifest if manifest is not None else default_manifest()
    named_ring = cache(catalog.named_ring)
    named_semigroup = cache(catalog.named_semigroup)
    named_groupoid = cache(catalog.named_groupoid)
    counts: dict[str, int] = {}
    work = {"order4_tables_scanned": 0}

    semigroups: list[CorpusEntry] = []
    for order in range(1, m.exhaustive_semigroups_max_order + 1):
        n = 0
        for i, S in enumerate(enumerate_semigroups(order)):
            semigroups.append(CorpusEntry(
                id=f"sg{order}.{i:03d}", kind="semigroup", structure=S,
                meta={"source": "exhaustive", "order": order}))
            n += 1
        counts[f"semigroups_exhaustive_order_{order}"] = n
    if m.order4_sample_count > 0:
        samples = sample_semigroups(4, m.order4_sample_count, m.seed, work)
        for i, S in enumerate(samples):
            semigroups.append(CorpusEntry(
                id=f"sg4.s{i:02d}", kind="semigroup", structure=S,
                meta={"source": "sampled", "order": 4, "seed": m.seed}))
        counts["semigroups_sampled_order_4"] = len(samples)
    for name in m.named_semigroups:
        semigroups.append(CorpusEntry(
            id=f"sg:{name}", kind="semigroup", structure=named_semigroup(name),
            meta={"source": "named", "name": name}))
    counts["semigroups_named"] = len(m.named_semigroups)

    rings = [CorpusEntry(id=f"ring:{name}", kind="ring",
                         structure=named_ring(name),
                         meta={"name": name})
             for name in m.rings]
    counts["rings"] = len(rings)

    groupoids = [CorpusEntry(id=f"gpd:{name}", kind="groupoid",
                             structure=named_groupoid(name),
                             meta={"name": name})
                 for name in m.groupoids]
    counts["groupoids"] = len(groupoids)

    graded: list[CorpusEntry] = []
    for a_name in m.semigroup_ring_coefficients:
        A = named_ring(a_name)
        for s_name in m.semigroup_ring_bases:
            S = named_semigroup(s_name)
            graded.append(CorpusEntry(
                id=f"gr:sr:{a_name}:{s_name}", kind="graded_ring",
                structure=semigroup_ring(A, S),
                meta={"construction": "semigroup_ring", "A": A, "S": S}))
    for a_name, n in m.matrix_gradings:
        A = named_ring(a_name)
        graded.append(CorpusEntry(
            id=f"gr:bn:{a_name}:{n}", kind="graded_ring",
            structure=matrix_bn_grading(A, n),
            meta={"construction": "matrix_bn", "A": A, "n": n}))
    for name in m.good_gradings:
        a_name, base_name, deg = catalog.GOOD_GRADING_SPECS[name]
        A = named_ring(a_name)
        gg = good_grading(A, validate_degree_map(named_semigroup(base_name), deg))
        graded.append(CorpusEntry(
            id=f"gr:good:{name}", kind="graded_ring", structure=gg.graded,
            meta={"construction": "good_grading", "name": name, "A": A, "grading": gg}))
    for a_name, g_name in m.groupoid_ring_pairs:
        A = named_ring(a_name)
        G = named_groupoid(g_name)
        graded.append(CorpusEntry(
            id=f"gr:gpd:{a_name}:{g_name}", kind="graded_ring",
            structure=groupoid_ring(A, G),
            meta={"construction": "groupoid_ring", "A": A, "G": G}))
    counts["graded_rings"] = len(graded)

    return Corpus(manifest=m, semigroups=semigroups, rings=rings,
                  groupoids=groupoids, graded=graded, counts=counts, work=work)


def write_corpus(corpus: Corpus, directory) -> list[str]:
    """Materialize manifest and structure files; returns the written paths."""
    from pathlib import Path

    from . import jsonio

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    manifest_path = out / "manifest.json"
    manifest_path.write_text(jsonio.dumps_canonical(corpus.manifest.to_json()))
    written.append(str(manifest_path))
    for entry in corpus.all_entries():
        name = entry.id.replace(":", "_").replace("+", "-") + ".json"
        path = out / name
        path.write_text(jsonio.dumps_canonical(jsonio.structure_to_json(entry.structure)))
        written.append(str(path))
    return written
