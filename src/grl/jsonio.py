"""JSON schemas for structure files, plus construction-spec resolution.

Every file carries a top-level "kind" used for auto-detection:

  semigroup   {"kind", "order", "table", "labels"?}
  groupoid    {"kind", "objects", "morphisms": [{"dom", "cod", "inv"}],
               "compose": [[g, h, gh], ...]}
  ring        {"kind", "order", "add", "neg", "mul"} or {"kind", "name"} or
              {"kind", "construct": "Zn" | "product" | "matrix", ...}
  graded_ring {"kind", "base": {"kind", "ref"}, "components": {"<s>": group},
               "products": [{"s", "t", "table"}, ...]}

Absent graded products mean the zero map and must be absent for
non-composable groupoid pairs.  A declared "order" that differs from its
table, a component key that names no grader, and a product or compose pair
given twice are errors.  Writers emit canonical bytes: sorted keys,
two-space indent, nonzero products only.

Every file grl reads comes in here.  ``load`` reads a structure or
construction-spec file and builds what it describes, ``read_object`` reads
a file that must hold a JSON object, and ``read_json`` decodes any file, a
corpus manifest too; a file nested too deeply to decode or to build is an
``OutOfRange`` error.  ``read_json`` hands each table field ("table",
"add", "neg", "mul" of any object in it) to the validators as a read-only
intp array when the decoded value is a rectangular list of JSON integers,
so that they check it by its shape and its least and greatest cell and
store it without a copy.  Any other value stays the list it was, and the
validators' scan names its first fault as for any list.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import catalog, constructions
from .errors import OutOfRangeError
from .gradings import GradedRing, validate_grading
from .groupoids import FiniteGroupoid, validate_groupoid
from .rings import (
    FiniteAdditiveGroup,
    FiniteRing,
    cyclic_ring,
    matrix_ring,
    product_ring,
    validate_additive_group,
    validate_ring,
)
from .semigroups import FiniteSemigroup, label_tuple, validate_semigroup

Structure = Union[FiniteSemigroup, FiniteGroupoid, FiniteRing, GradedRing]


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# the fields that hold index tables, with the number of dimensions of each
_TABLE_FIELDS = {"table": 2, "add": 2, "mul": 2, "neg": 1}


def _index_array(value, ndim: int, bools: bool):
    """A decoded table field as a read-only intp array if it is a
    rectangular ``ndim``-deep list of JSON integers, else ``value`` itself.

    A decoded cell is an int, float, bool, str, None, list or dict.
    ``np.array`` sets every one of these but a bool apart from an int by its
    dtype or its shape (an int past int64 makes an object, float or uint64
    array).  A bool collapses into a cell reading 0 or 1, so when the text
    holds a bool at all (``bools``), those cells are looked at.
    """
    if not isinstance(value, list):
        return value
    try:
        array = np.array(value)
    except ValueError:  # ragged, or a row nested deeper than its siblings
        return value
    if array.ndim != ndim or array.dtype != np.intp:
        return value
    if bools:
        rows = value if ndim == 2 else [value]
        cells = np.argwhere(np.atleast_2d((array == 0) | (array == 1)))
        if any(type(rows[a][b]) is bool for a, b in cells.tolist()):
            return value
    array.flags.writeable = False
    return array


def _holds_bool(text: str) -> bool:
    """``"true" in text or "false" in text``: does JSON ``text`` spell a bool
    anywhere, in a string or not?  Both end in "e", which a structure file of
    tables holds only in a few keys, so this steps from one "e" to the next.
    On such a file the two substring searches take about 40 times as long,
    since digits pass the skip filter they scan with."""
    e = text.find("e")
    while e >= 0:
        if text.endswith("tru", 0, e) or text.endswith("fals", 0, e):
            return True
        e = text.find("e", e + 1)
    return False


@contextmanager
def _depth_checked():
    """Report a RecursionError, which deep input raises, as OutOfRange."""
    try:
        yield
    except RecursionError:
        raise OutOfRangeError("the JSON nests too deeply") from None


@_depth_checked()
def read_json(path, tables: bool = True) -> object:
    """The JSON value of a file, with each table field of each object in it
    as ``_index_array`` gives it unless ``tables`` is false (a corpus
    manifest holds no tables, and its reports show its entries as decoded)."""
    text = Path(path).read_text()
    bools = _holds_bool(text)

    def decode(obj: dict) -> dict:
        for key in _TABLE_FIELDS.keys() & obj.keys():
            obj[key] = _index_array(obj[key], _TABLE_FIELDS[key], bools)
        return obj

    return json.loads(text, object_hook=decode if tables else None)


def read_object(path) -> dict:
    """The JSON object a structure or spec file holds."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise OutOfRangeError(f"expected a JSON object, got {type(data).__name__}")
    return data


# ---------------------------------------------------------------------------
# per-kind encoders


def semigroup_to_json(S: FiniteSemigroup) -> dict:
    out = {"kind": "semigroup", "order": S.order,
           "table": S.table.tolist()}
    if S.labels is not None:
        out["labels"] = list(S.labels)
    return out


def _field(data: dict, key: str):
    """``data[key]`` for a required field; a missing one is a ``KeyError``
    that names it."""
    try:
        return data[key]
    except KeyError:
        raise KeyError(f"missing field {key!r}") from None


def _table(data: dict, key: str, what: Optional[str] = None):
    """``data[key]``, a table: a JSON list, or the array ``read_json`` made
    of one.  ``what`` names it in the error, ``key`` by default."""
    value = _field(data, key)
    if not isinstance(value, (list, np.ndarray)):
        raise OutOfRangeError(f"{what or key} must be a JSON list, got {type(value).__name__}")
    return value


def _check_order(data: dict, table) -> None:
    """A declared "order" must be the number of rows of its table."""
    if "order" in data and (type(data["order"]) is not int or data["order"] != len(table)):
        raise OutOfRangeError(f"declared order {data['order']!r} does not match a table "
                              f"with {len(table)} rows")


def _unique(pairs, what: str) -> dict:
    """``(key, value)`` pairs as a dict; a key given twice is an error."""
    out = {}
    for key, value in pairs:
        if any(isinstance(part, (list, dict)) for part in key):  # unhashable JSON
            raise OutOfRangeError(f"{what} key {key!r} is not a pair of integers", key)
        if key in out:
            raise OutOfRangeError(f"{what} entry {key} appears twice", key)
        out[key] = value
    return out


def _list(data: dict, key: str, required: bool = True) -> list:
    """``data[key]``, which must be a JSON list; an absent optional one is empty."""
    value = _field(data, key) if required else data.get(key, [])
    if not isinstance(value, list):
        raise OutOfRangeError(f"{key} must be a JSON list, got {type(value).__name__}")
    return value


def _object(value, what: str) -> dict:
    """``value``, which must be a JSON object; ``what`` names it in the error."""
    if not isinstance(value, dict):
        raise OutOfRangeError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _spec(data: dict, key: str):
    """``data[key]``, a catalog name or else a JSON object."""
    value = _field(data, key)
    return value if isinstance(value, str) else _object(value, f"{key} that is not a name")


def _each(items, what: str, well_formed, shape: str):
    """The entries of a JSON list, each of which must be ``shape``."""
    for i, item in enumerate(items):
        if not well_formed(item):
            raise OutOfRangeError(f"{what} entry {i} is not {shape}", (i,))
        yield item


def semigroup_from_json(data) -> FiniteSemigroup:
    """The semigroup a catalog name or a JSON object describes."""
    if isinstance(data, str):
        return catalog.named_semigroup(data)
    table = _table(data, "table")
    _check_order(data, table)
    return validate_semigroup(table, labels=data.get("labels"))


def groupoid_to_json(G: FiniteGroupoid) -> dict:
    morphisms = [{"dom": G.dom[g], "cod": G.cod[g], "inv": G.inv[g]}
                 for g in G.morphisms()]
    compose = [[g, h, G.compose(g, h)] for g, h in G.composable_pairs()]
    out = {"kind": "groupoid",
           "objects": list(G.object_labels) if G.object_labels
           else list(range(G.n_objects)),
           "morphisms": morphisms, "compose": compose}
    if G.morphism_labels is not None:
        out["morphism_labels"] = list(G.morphism_labels)
    return out


def groupoid_from_json(data) -> FiniteGroupoid:
    """The groupoid a catalog name or a JSON object describes."""
    if isinstance(data, str):
        return catalog.named_groupoid(data)
    objects = label_tuple(_field(data, "objects"), "object labels")
    morphisms = list(_each(_list(data, "morphisms"), "morphism",
                           lambda m: isinstance(m, dict), "an object"))
    dom = [_field(m, "dom") for m in morphisms]
    cod = [_field(m, "cod") for m in morphisms]
    inv = [_field(m, "inv") for m in morphisms]
    triples = _each(_list(data, "compose", required=False), "compose",
                    lambda e: isinstance(e, list) and len(e) == 3, "a triple [g, h, gh]")
    compose = _unique((((g, h), gh) for g, h, gh in triples), "compose")
    return validate_groupoid(len(objects), dom, cod, inv, compose,
                             object_labels=objects,
                             morphism_labels=data.get("morphism_labels"))


def ring_to_json(T: FiniteRing) -> dict:
    return {"kind": "ring", "order": T.order,
            "add": T.additive.add.tolist(), "neg": T.additive.neg.tolist(),
            "mul": T.mul.tolist()}


def _size(spec: dict, least: int) -> int:
    """``spec["n"]``, which must be a JSON integer of at least ``least``."""
    n = _field(spec, "n")
    if type(n) is not int or n < least:
        raise OutOfRangeError(f"n must be an integer >= {least}, got {n!r}")
    return n


def ring_from_json(data) -> FiniteRing:
    """Accept inline tables, a registry name, or a constructor form."""
    if isinstance(data, str):
        return catalog.named_ring(data)
    if "name" in data:
        if not isinstance(data["name"], str):
            raise OutOfRangeError(f"name must be a string, got {type(data['name']).__name__}")
        return catalog.named_ring(data["name"])
    if "construct" in data:
        kind = data["construct"]
        if kind == "Zn":
            return cyclic_ring(_size(data, 1))
        if kind == "product":
            factors = _each(_list(data, "factors"), "factors",
                            lambda f: isinstance(f, (str, dict)), "a name or a JSON object")
            return product_ring(*map(ring_from_json, factors))
        if kind == "matrix":
            return matrix_ring(ring_from_json(_spec(data, "A")), _size(data, 0))
        raise OutOfRangeError(f"unknown ring constructor: {kind!r}")
    add = _table(data, "add")
    _check_order(data, add)
    return validate_ring(add, _table(data, "neg"), _table(data, "mul"))


def _group_to_json(g: FiniteAdditiveGroup) -> dict:
    return {"order": g.order, "add": g.add.tolist(), "neg": g.neg.tolist()}


def _group_from_json(data, what: str) -> FiniteAdditiveGroup:
    """The additive group a JSON object holds; ``what`` names it in errors."""
    data = _object(data, what)
    add = _table(data, "add", f"{what} add")
    _check_order(data, add)
    return validate_additive_group(add, _table(data, "neg", f"{what} neg"))


def graded_to_json(R: GradedRing) -> dict:
    base = {"kind": R.base_kind}
    if R.base_kind == "semigroup":
        base["ref"] = semigroup_to_json(R.base)
    else:
        base["ref"] = groupoid_to_json(R.base)
    components = {str(s): _group_to_json(R.component(s)) for s in R.graders()}
    products = []
    for (s, t) in sorted(R.products):
        table = R.products[(s, t)]
        if table.any():
            products.append({"s": s, "t": t, "table": table.tolist()})
    return {"kind": "graded_ring", "base": base,
            "components": components, "products": products}


def graded_from_json(data: dict, base_dir: Optional[Path] = None) -> GradedRing:
    base_spec = _object(_field(data, "base"), "base")
    ref = _field(base_spec, "ref")
    if isinstance(ref, str):
        path = Path(ref)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        ref = read_json(path)
    ref = _object(ref, "base ref")
    base_kind = _field(base_spec, "kind")
    if base_kind == "semigroup":
        base = semigroup_from_json(ref)
    elif base_kind == "groupoid":
        base = groupoid_from_json(ref)
    else:
        raise OutOfRangeError(f"unknown base kind: {base_kind!r}")
    n = len(base.table)
    given = _object(_field(data, "components"), "components")
    unknown = sorted(set(given) - {str(s) for s in range(n)})
    if unknown:
        raise OutOfRangeError(f"component key {unknown[0]!r} names no grader")
    trivial = {"order": 1, "add": [[0]], "neg": [0]}
    components = [_group_from_json(given.get(str(s), trivial), f"component {str(s)!r}")
                  for s in range(n)]
    items = _each(_list(data, "products", required=False), "product",
                  lambda item: isinstance(item, dict), "an object")

    def entry(item: dict) -> tuple:
        s, t = _field(item, "s"), _field(item, "t")
        return (s, t), _table(item, "table", f"product ({s!r}, {t!r}) table")

    products = _unique(map(entry, items), "product")
    return validate_grading(base, components, products)


# ---------------------------------------------------------------------------
# dispatch


def structure_to_json(structure: Structure) -> dict:
    if isinstance(structure, FiniteSemigroup):
        return semigroup_to_json(structure)
    if isinstance(structure, FiniteGroupoid):
        return groupoid_to_json(structure)
    if isinstance(structure, FiniteRing):
        return ring_to_json(structure)
    if isinstance(structure, GradedRing):
        return graded_to_json(structure)
    raise TypeError(f"cannot serialize {type(structure).__name__}")


def structure_from_json(data: dict, base_dir: Optional[Path] = None) -> tuple[str, Structure]:
    kind = data.get("kind")
    if kind == "semigroup":
        return kind, semigroup_from_json(data)
    if kind == "groupoid":
        return kind, groupoid_from_json(data)
    if kind == "ring":
        return kind, ring_from_json(data)
    if kind == "graded_ring":
        return kind, graded_from_json(data, base_dir=base_dir)
    raise OutOfRangeError(f"missing or unknown top-level kind: {kind!r}")


@_depth_checked()
def load(path) -> tuple[str, Structure, dict]:
    """Load a structure or construction-spec file; returns (kind, structure,
    meta), the meta of ``construction_from_json`` for a spec and empty
    otherwise."""
    path = Path(path)
    data = read_object(path)
    if "construct" in data and "kind" not in data:  # ring constructor files carry a kind
        structure, meta = construction_from_json(data)
        return "graded_ring", structure, meta
    kind, structure = structure_from_json(data, base_dir=path.parent)
    return kind, structure, {}


# ---------------------------------------------------------------------------
# construction specs


@_depth_checked()
def construction_from_json(spec: dict):
    """Build the structure described by a construction spec.

    Returns (graded ring, meta).  The meta names the construction and holds
    its parts; for good_grading it also holds the GoodGrading under
    ``"grading"``.
    """
    kind = spec.get("construct")
    if kind == "semigroup_ring":
        A = ring_from_json(_spec(spec, "A"))
        S = semigroup_from_json(_spec(spec, "S"))
        return constructions.semigroup_ring(A, S), {"construction": kind, "A": A, "S": S}
    if kind == "matrix_bn":
        A = ring_from_json(_spec(spec, "A"))
        return constructions.matrix_bn_grading(A, _size(spec, 1)), {"construction": kind, "A": A}
    if kind == "good_grading":
        A = ring_from_json(_spec(spec, "A"))
        base = semigroup_from_json(_spec(spec, "base"))
        dm = constructions.validate_degree_map(base, _table(spec, "deg"))
        gg = constructions.good_grading(A, dm)
        return gg.graded, {"construction": kind, "A": A, "grading": gg}
    if kind == "groupoid_ring":
        A = ring_from_json(_spec(spec, "A"))
        G = groupoid_from_json(_spec(spec, "G"))
        return constructions.groupoid_ring(A, G), {"construction": kind, "A": A, "G": G}
    raise OutOfRangeError(f"unknown construction: {kind!r}")
