"""The test settings in ``pyproject.toml`` report failures, not crash."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

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
