"""The test settings in ``pyproject.toml`` report failures, not crash,
the source keeps one reader for each spelling of a gap, and one owner
for each wide-row rule."""

import ast
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src" / "apspace"

PROBES = '''\
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_must_fail(n):
    assert n < 10


def test_deprecation_must_fail():
    warnings.warn("old call", DeprecationWarning)


def test_overflow_must_fail():
    np.float64(1e300) * 1e300
'''


def test_failing_property_prints_its_example(tmp_path):
    """A failing ``@given`` test ends in a failure report with its
    falsifying example (hypothesis may import libcst to write it), and a
    ``DeprecationWarning`` or a numpy overflow (a ``RuntimeWarning``)
    raised in a test still fails that test."""
    (tmp_path / "test_probes.py").write_text(PROBES, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probes.py"],
        cwd=tmp_path, capture_output=True, text=True, encoding="utf-8",
        timeout=120)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "3 failed" in output


def _scopes_of(picks):
    """``(module, enclosing class and def names)`` of every node of the
    package's source for which ``picks(node)`` is true."""
    found = set()

    def visit(node, path, scope):
        if picks(node):
            found.add((path.name, ".".join(scope)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = (*scope, node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    return found


def test_gaps_have_one_reader():
    """NaN in the float view is read as a gap only by
    ``PerformanceMatrix.present``, and the token ``"NaN"`` only by
    ``ingest._parse_score``."""
    assert _scopes_of(lambda node: (
        isinstance(node, ast.Attribute) and node.attr in ("isnan", "fmax")
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy"))) == {
            ("core.py", "PerformanceMatrix.present")}
    assert _scopes_of(lambda node: (
        isinstance(node, ast.Constant) and node.value == "NaN")) == {
            ("ingest.py", "_parse_score")}


def test_wide_row_rules_have_one_owner():
    """``ingest`` raises a ragged wide row, an empty dataset name and a
    header with no algorithm column only in ``_blocks``, which checks
    each row as it reads it."""
    def wide_row_fault(node):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)):
            return False
        text = "".join(part.value for part in ast.walk(node)
                       if isinstance(part, ast.Constant)
                       and isinstance(part.value, str))
        return (node.func.id == "RaggedRowError"
                or "empty dataset name" in text
                or "has no present scores" in text)

    assert {scope for scope in _scopes_of(wide_row_fault)
            if scope[0] == "ingest.py"} == {("ingest.py", "_blocks")}
