import importlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_matrix
from apspace.core import (DuplicateCellError, EmptyRowError, InvalidLabelError,
                          ScoreOutOfRangeError, UnknownAlgorithmError,
                          UnknownDatasetError, build_matrix)


def test_build_matrix_first_seen_order():
    m = build_matrix([
        ("b", "y", 0.1),
        ("a", "x", 0.2),
        ("b", "x", 0.3),
        ("a", "y", 0.4),
    ])
    assert m.datasets == ("b", "a")
    assert m.algorithms == ("y", "x")
    assert m.cells == ((0.1, 0.3), (0.4, 0.2))


def test_build_matrix_registers_gaps():
    m = build_matrix([("d", "a", 0.5), ("d", "b", None), ("e", "b", 0.25)])
    assert m.row("d") == (0.5, None)
    # cell never mentioned at all is a gap too
    assert m.row("e") == (None, 0.25)
    assert m.column("b") == (None, 0.25)
    assert not m.is_complete("d")


def test_build_matrix_duplicate_cell():
    with pytest.raises(DuplicateCellError):
        build_matrix([("d", "a", 0.5), ("d", "a", 0.5)])


@pytest.mark.parametrize("bad", [-0.1, 1.0000001, float("nan"), float("inf")])
def test_build_matrix_rejects_out_of_range(bad):
    with pytest.raises(ScoreOutOfRangeError):
        build_matrix([("d", "a", bad)])


def test_build_matrix_accepts_boundaries():
    m = build_matrix([("d", "a", 0.0), ("d", "b", 1.0)])
    assert m.row("d") == (0.0, 1.0)


def test_build_matrix_empty_row():
    with pytest.raises(EmptyRowError, match="lonely"):
        build_matrix([("lonely", "a", None), ("lonely", "b", None),
                      ("ok", "a", 0.3)])


@pytest.mark.parametrize("label", ["", " padded", "padded ", "\ttab"])
def test_build_matrix_rejects_bad_labels(label):
    with pytest.raises(InvalidLabelError):
        build_matrix([(label, "a", 0.5)])
    with pytest.raises(InvalidLabelError):
        build_matrix([("d", label, 0.5)])


@pytest.mark.parametrize("records, message", [
    ([(1, "a", 0.5)], "bad dataset name 1"),
    ([(["x"], "a", 0.5)], "bad dataset name ['x']"),
    ([("d", None, 0.5)], "bad algorithm name None"),
    ([("d", ("a",), 0.5)], "bad algorithm name ('a',)"),
    ([("d", "a", 0.5), ("e", {"a"}, 0.2)], "bad algorithm name {'a'}"),
])
def test_build_matrix_rejects_non_str_labels(records, message):
    # unhashable labels too: a label error, not a TypeError from a lookup
    with pytest.raises(InvalidLabelError) as info:
        build_matrix(records)
    assert str(info.value) == (
        f"{message}: must be non-empty with no surrounding whitespace")


def test_build_matrix_fails_on_the_first_bad_record():
    # label, then duplicate, then range within a record; records in order
    with pytest.raises(ScoreOutOfRangeError, match=r"2\.0 for \('d', 'a'\)"):
        build_matrix([("d", "a", 2.0), ("e", "", 0.2)])
    with pytest.raises(InvalidLabelError, match="bad algorithm name ''"):
        build_matrix([("d", "", 2.0), ("d", "a", 0.2)])
    with pytest.raises(DuplicateCellError):
        build_matrix([("d", "a", 0.2), ("d", "a", 2.0)])


def test_unknown_lookups():
    m = make_matrix({"d": [0.5]})
    with pytest.raises(UnknownDatasetError):
        m.dataset_index("nope")
    with pytest.raises(UnknownAlgorithmError):
        m.algorithm_index("nope")


@st.composite
def gappy_matrices(draw):
    """Up to 6 x 4 matrices with random gaps and no all-gap row."""
    n_axes = draw(st.integers(1, 4))
    cell = st.one_of(st.none(), st.floats(0.0, 1.0))
    rows = draw(st.lists(
        st.lists(cell, min_size=n_axes, max_size=n_axes).filter(
            lambda row: row.count(None) < len(row)),
        max_size=6))
    return build_matrix((f"d{i}", f"a{j}", v) for i, row in enumerate(rows)
                        for j, v in enumerate(row))


@given(gappy_matrices())
def test_complete_and_values_match_cells(m):
    assert m.values.dtype == np.float64
    assert m.values.shape == (m.n_datasets, m.n_algorithms)
    for row, got in zip(m.cells, m.values.tolist()):
        assert all(math.isnan(g) if v is None else g == v
                   for v, g in zip(row, got))
    assert m.complete.tolist() == [None not in row for row in m.cells]
    assert m.complete.tolist() == [m.is_complete(d) for d in m.datasets]
    # cached: every caller shares one array, so none may write into it
    assert m.values is m.values and m.complete is m.complete
    with pytest.raises(ValueError):
        m.values[...] = 0.5
    with pytest.raises(ValueError):
        m.complete[...] = True


def test_complete_rows_fixture_count(fixture_matrix):
    assert int(fixture_matrix.complete.sum()) == 39
    assert sum(map(fixture_matrix.is_complete, fixture_matrix.datasets)) == 39


@pytest.mark.parametrize("module", ["apspace", "apspace.ingest"])
def test_exports_resolve_once(module):
    """``from <module> import *`` cannot break on a stale or doubled name."""
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), name
