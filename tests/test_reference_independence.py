"""The plain-loop references must not lean on the grl code they check.

A reference that imported grl's ring predicates would agree with any fault
in them, so the reference tests of ``vnr-char``, ``tominaga``, the main
theorem, the corollaries and the good gradings could not catch it.  Nor
may the table and semigroup references take a table-law check, such as
the associativity mask the sampler screens with.  These tests read the
references' imports with ``ast``.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
RING_PREDICATES = {"s_unitality", "is_s_unital", "is_von_neumann_regular", "unity",
                   "ring_idempotents", "idempotent_generator", "is_left_ideal"}
TABLE_LAWS = {"associative_mask", "_pair_table", "_row_pair_tables", "first_assoc_violation",
              "is_associative_flat", "associative_through", "agree_on_generators",
              "biadditive", "first_biadditivity_violation"}


def grl_names(source: str) -> set[str]:
    """The names a module takes from grl: those it imports from a grl module,
    and the attributes it reads off a name imported from grl."""
    tree = ast.parse(source)
    names, bound = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "grl":
            names.update(alias.name for alias in node.names)
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                         if alias.name.split(".")[0] == "grl")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                names.add(node.attr)
    return names


def imported_from(module: str, source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names}


@pytest.mark.parametrize("reference", ["reference_rings", "reference_gradings"])
def test_references_take_no_ring_predicate_from_grl(reference):
    source = (TESTS / f"{reference}.py").read_text()
    assert not grl_names(source) & RING_PREDICATES


@pytest.mark.parametrize("reference", ["reference_tables", "reference_semigroups"])
def test_references_take_no_table_law_from_grl(reference):
    source = (TESTS / f"{reference}.py").read_text()
    assert not grl_names(source) & TABLE_LAWS


def test_reference_gradings_takes_the_ring_queries_from_reference_rings():
    source = (TESTS / "reference_gradings.py").read_text()
    assert {"idempotent_generator", "is_left_ideal"} <= imported_from("reference_rings", source)


@pytest.mark.parametrize("source", [
    "from grl.rings import unity",
    "from grl.rings import is_left_ideal as member_test",
    "from grl import rings\nrings.s_unitality(T)",
    "from grl import rings as r\nr.idempotent_generator(T, I)",
    "import grl\ngrl.rings.ring_idempotents(T)",
    "import grl.rings\ngrl.rings.is_von_neumann_regular(T)",
    "import grl.rings as r\nr.is_s_unital(T)",
])
def test_the_guard_sees_each_import_form(source):
    assert grl_names(source) & RING_PREDICATES


def test_the_guard_passes_other_imports():
    source = ("from grl.rings import Subgroup, validate_ring\n"
              "from reference_rings import unity\nunity(T)\n"
              "from grl.tables import frozen\n"
              "import numpy as np\nnp.unique(x)\n")
    assert not grl_names(source) & (RING_PREDICATES | TABLE_LAWS)
