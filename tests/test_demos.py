"""Every demo script runs to completion and prints something, and the
README's library tour runs as written."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_tour_runs_as_written():
    """Each statement of the tour runs in order, and each bare expression
    whose line ends in a comment that is a Python literal equals it."""
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Library tour\n+```python\n(.*?)```", readme, re.S).group(1)
    lines = tour.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(tour).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue
        assert value == expected, ast.get_source_segment(tour, stmt)
        checked += 1
    assert checked >= 5
