"""``jsonio.read_json`` hands table fields to the validators as read-only intp
arrays, and that changes no report: every malformed table exits as it does
when read as plain lists, with the same message."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grl import catalog, cli, jsonio
from grl.errors import OutOfRangeError
from grl.rings import cyclic_ring, matrix_ring

Z2_GROUP = {"order": 2, "add": [[0, 1], [1, 0]], "neg": [0, 1]}
VALID = [[0, 0], [0, 1]]  # the product of the ring Z2, and a semilattice of order 2


def ring_file(mul):
    return {"kind": "ring", "add": [[0, 1], [1, 0]], "neg": [0, 1], "mul": mul}


def semigroup_file(table):
    return {"kind": "semigroup", "table": table}


def graded_file(table):
    return {"kind": "graded_ring",
            "base": {"kind": "semigroup", "ref": {"kind": "semigroup", "table": [[0]]}},
            "components": {"0": Z2_GROUP}, "products": [{"s": 0, "t": 0, "table": table}]}


def plain_json(path):
    return json.loads(Path(path).read_text())


def validate(path) -> tuple:
    """Exit code and report of ``grl validate``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["validate", str(path)])
    return code, json.loads(buf.getvalue())


def validate_both(data) -> tuple:
    """``grl validate`` on ``data`` written to a file, read by ``read_json``
    and read as plain lists."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(data))
        read = validate(path)
        with mock.patch.object(jsonio, "read_json", plain_json):
            plain = validate(path)
    return read, plain


def with_cell(a, b, v):
    table = copy.deepcopy(VALID)
    table[a][b] = v
    return table


# (file maker, error code, cell message, messages of the whole-table faults)
KINDS = {
    "ring": (ring_file, "OutOfRange",
             lambda a, b, v: f"mul[{a}][{b}] = {v!r} is not an index in [0, 2)",
             {"ragged": ("mul row 1 has length 1, expected 2", [1]),
              "empty": ("mul has 0 rows, expected 2", []),
              "empty-row": ("mul has 1 rows, expected 2", [])}),
    "semigroup": (semigroup_file, "OutOfRange",
                  lambda a, b, v: f"table[{a}][{b}] = {v!r} is not an index in [0, 2)",
                  {"ragged": ("row 1 has length 1, expected 2", [1]),
                   "empty": ("empty table", []),
                   "empty-row": ("row 0 has length 0, expected 1", [0])}),
    "graded": (graded_file, "CodomainViolation",
               lambda a, b, v: f"product (0, 0)[{a}][{b}] = {v!r} not an index in R_0",
               {"ragged": ("product (0, 0) row 1 has length 1, expected 2", [0, 0, 1]),
                "empty": ("product (0, 0) has 0 rows, expected 2", [0, 0]),
                "empty-row": ("product (0, 0) has 1 rows, expected 2", [0, 0])}),
}
CELLS = {  # a table, and its first faulty cell
    "bool-at-0": (with_cell(0, 1, False), (0, 1, False)),
    "bool-at-1": (with_cell(1, 1, True), (1, 1, True)),
    "all-bool": ([[False, False], [False, True]], (0, 0, False)),
    "float-whole": (with_cell(1, 1, 1.0), (1, 1, 1.0)),
    "float": (with_cell(1, 1, 1.5), (1, 1, 1.5)),
    "string": (with_cell(1, 1, "1"), (1, 1, "1")),
    "null": (with_cell(1, 1, None), (1, 1, None)),
    "nested": ([[0, 0], [0, [1]]], (1, 1, [1])),
    "negative": (with_cell(1, 0, -1), (1, 0, -1)),
    "past-order": (with_cell(1, 0, 2), (1, 0, 2)),
    "huge": (with_cell(1, 0, 2**70), (1, 0, 2**70)),
}
WHOLE = {"ragged": [[0, 0], [0]], "empty": [], "empty-row": [[]]}


@pytest.mark.parametrize("case", CELLS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_faulty_cell_keeps_its_message(kind, case):
    make, error, message, _ = KINDS[kind]
    table, (a, b, v) = CELLS[case]
    read, plain = validate_both(make(table))
    assert read == plain
    code, out = read
    context = [a, b, v] if kind != "graded" else [0, 0, a, b, v]
    assert code == 1 and out["error"] == error
    assert out["message"] == message(a, b, v) and out["context"] == context


@pytest.mark.parametrize("case", WHOLE)
@pytest.mark.parametrize("kind", KINDS)
def test_a_misshapen_table_keeps_its_message(kind, case):
    make, error, _, whole = KINDS[kind]
    read, plain = validate_both(make(WHOLE[case]))
    assert read == plain
    code, out = read
    assert code == 1 and out["error"] == error
    assert (out["message"], out["context"]) == whole[case]


@pytest.mark.parametrize("labels", [None, ["true", "false"]], ids=["no-bool", "bool-words"])
def test_tables_are_read_as_read_only_index_arrays(tmp_path, labels):
    # labels that spell true and false send every cell reading 0 or 1 through
    # the bool test
    data = {**semigroup_file(VALID), **({"labels": labels} if labels else {})}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data))
    read = jsonio.read_json(path)
    table = read["table"]
    assert isinstance(table, np.ndarray) and table.dtype == np.intp
    assert not table.flags.writeable and table.tolist() == VALID
    assert jsonio.structure_from_json(read)[1].table is table  # stored without a copy


def test_only_table_fields_become_arrays(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"construct": "good_grading", "A": ring_file(VALID),
                                "base": "Z2", "deg": [[0, 1], [1, 0]]}))
    spec = jsonio.read_json(path)
    assert isinstance(spec["deg"], list)
    assert all(isinstance(spec["A"][key], np.ndarray) for key in ("add", "neg", "mul"))


def test_a_hand_built_dict_keeps_its_scan():
    # numpy-integer cells are not JSON integers; only what read_json decoded
    # becomes an array
    with pytest.raises(OutOfRangeError) as err:
        jsonio.structure_from_json(semigroup_file([[np.int64(0)]]))
    assert str(err.value) == "table[0][0] = np.int64(0) is not an index in [0, 1)"
    with pytest.raises(OutOfRangeError) as err:
        jsonio.structure_from_json(ring_file([[np.int64(0), 0], [0, 1]]))
    assert str(err.value) == "mul[0][0] = np.int64(0) is not an index in [0, 2)"


VALID_FILES = [
    jsonio.ring_to_json(cyclic_ring(4)),
    jsonio.ring_to_json(matrix_ring(cyclic_ring(2), 2)),
    jsonio.semigroup_to_json(catalog.named_semigroup("B2")),
    jsonio.graded_to_json(jsonio.construction_from_json(
        {"construct": "semigroup_ring", "A": "Z3", "S": "Z2"})[0]),
]
# what a JSON cell can decode to
CELL_VALUES = st.one_of(st.integers(-3, 20), st.sampled_from([2**63, 2**70, -2**70]),
                        st.booleans(), st.floats(allow_nan=False), st.text(max_size=2),
                        st.none(), st.lists(st.integers(0, 3), max_size=2),
                        st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))


def _table_paths(data, path=()):
    """The path of every table field in ``data``, each with its table."""
    if isinstance(data, dict):
        for key, value in data.items():
            if key in ("table", "add", "neg", "mul") and isinstance(value, list):
                yield path + (key,), value
            else:
                yield from _table_paths(value, path + (key,))
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _table_paths(value, path + (i,))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_a_single_cell_change_reads_as_plain_lists(data):
    valid = data.draw(st.sampled_from(VALID_FILES))
    paths = list(_table_paths(valid))
    path, table = data.draw(st.sampled_from(paths))
    changed = copy.deepcopy(valid)
    target = changed
    for key in path:
        target = target[key]
    a = data.draw(st.integers(0, len(table) - 1))
    value = data.draw(CELL_VALUES)
    if isinstance(table[a], list):
        target[a][data.draw(st.integers(0, len(table[a]) - 1))] = value
    else:
        target[a] = value
    read, plain = validate_both(changed)
    assert read == plain


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(["e", "tru", "fals", "true", "false", "t", "r", "u", "f",
                                 "a", "l", "s", '"', "0", " ", "E"]), max_size=12))
def test_the_bool_scan_is_the_substring_test(parts):
    text = "".join(parts)
    assert jsonio._holds_bool(text) == ("true" in text or "false" in text)
