"""The plain-loop references must not lean on the grl code they check.

A reference that imported grl's ring predicates would agree with any fault
in them, so the reference tests of ``vnr-char``, ``tominaga``, the main
theorem, the corollaries and the good gradings could not catch it.  Nor
may the table and semigroup references take a table-law check, such as
the associativity mask the sampler screens with.  These tests read the
references' imports with ``ast``.

The same reading keeps grl's own modules to one input boundary: every
import at module level, and ``jsonio.read_json`` the one place that decodes
JSON.  It finds the imports a module no longer reads, and keeps every
module but the memo lock's off the thread and process modules.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SOURCES = sorted((TESTS.parent / "src" / "grl").glob("*.py"))
RING_PREDICATES = {"s_unitality", "is_s_unital", "is_von_neumann_regular", "unity",
                   "ring_idempotents", "idempotent_generator", "is_left_ideal"}
TABLE_LAWS = {"associative_mask", "_compositions", "_row_pair_tables", "first_assoc_violation",
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


def function_imports(source: str) -> list[str]:
    """The import statements inside a function body, as "function:line"."""
    return [f"{func.name}:{node.lineno}" for func in ast.walk(ast.parse(source))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]


def json_decoders(source: str) -> list[str]:
    """The functions that call ``json.load`` or ``json.loads``, by dotted
    name ("" at module level), and "from json" for an import that could
    call them by another name."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "json":
                found.append("from json")
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in ("load", "loads")
                  and isinstance(child.func.value, ast.Name) and child.func.value.id == "json"):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_the_boundary_guard_reads_every_module():
    assert {"cli.py", "corpus.py", "jsonio.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_modules_import_only_at_module_level(path):
    assert function_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_read_json_decodes_json(path):
    expected = ["read_json"] if path.name == "jsonio.py" else []
    assert json_decoders(path.read_text()) == expected


@pytest.mark.parametrize("source,found", [
    ("def f():\n    import os\n", ["f:2"]),
    ("def f():\n    from . import catalog\n", ["f:2"]),
    ("class C:\n    async def m(self):\n        from pathlib import Path\n", ["m:3"]),
    ("import os\nfrom . import catalog\nclass C:\n    x = 1\n", []),
])
def test_the_guard_sees_each_function_import(source, found):
    assert function_imports(source) == found


@pytest.mark.parametrize("source,found", [
    ("def f(t):\n    return json.loads(t)\n", ["f"]),
    ("class C:\n    def m(self, fp):\n        return json.load(fp)\n", ["C.m"]),
    ("x = json.loads(text)\n", [""]),
    ("from json import loads\n", ["from json"]),
    ("def read_json(p):\n    return json.loads(p)\ny = json.dumps(x)\n", ["read_json"]),
])
def test_the_guard_sees_each_json_decode(source, found):
    assert json_decoders(source) == found


def unread_imports(source: str) -> list[str]:
    """The names a module imports at module level and never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imports = [node for node in tree.body if isinstance(node, ast.Import)
               or isinstance(node, ast.ImportFrom) and node.module != "__future__"]
    return [name for node in imports
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if name not in read]


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_modules_read_every_import(path):
    assert unread_imports(path.read_text()) == []


@pytest.mark.parametrize("source,found", [
    ("import os\n", ["os"]),
    ("from itertools import accumulate, chain\nchain.from_iterable(x)\n", ["accumulate"]),
    ("from operator import and_, or_ as either\nand_(1, 2)\n", ["either"]),
    ("from . import catalog\ndef f():\n    catalog = 1\n", ["catalog"]),
    ("from __future__ import annotations\nimport numpy as np\nx: np.ndarray\n", []),
    ("import os.path\ndef f():\n    return os.getcwd()\n", []),
])
def test_the_guard_sees_each_unread_import(source, found):
    assert unread_imports(source) == found


THREAD_MODULES = {"threading", "concurrent", "multiprocessing"}


def thread_imports(source: str) -> set[str]:
    """The modules among ``THREAD_MODULES`` that a module imports, by the
    top-level name of what each import statement names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add((node.module or "").split(".")[0])
    return found & THREAD_MODULES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_memo_lock_imports_threads(path):
    # suites run on the calling thread; ``tables.Memo`` keeps its lock
    expected = {"threading"} if path.name == "tables.py" else set()
    assert thread_imports(path.read_text()) == expected


@pytest.mark.parametrize("source,found", [
    ("from threading import Lock\n", {"threading"}),
    ("import threading\n", {"threading"}),
    ("from concurrent.futures import ThreadPoolExecutor\n", {"concurrent"}),
    ("import concurrent.futures as cf\n", {"concurrent"}),
    ("def f():\n    from multiprocessing import Pool\n", {"multiprocessing"}),
    ("import multiprocessing.pool, os\n", {"multiprocessing"}),
    ("from . import threading\nimport os\nfrom functools import cache\n", set()),
])
def test_the_guard_sees_each_thread_import(source, found):
    assert thread_imports(source) == found
