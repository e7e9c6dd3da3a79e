import pytest

from conftest import make_matrix
from apspace.core import (DuplicateCellError, EmptyRowError, InvalidLabelError,
                          ScoreOutOfRangeError, UnknownAlgorithmError,
                          UnknownDatasetError, build_matrix, complete_rows)


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


def test_complete_rows_filters_and_preserves_order():
    m = make_matrix({"a": [0.1, 0.2], "b": [0.3, None], "c": [0.5, 0.6]})
    sub = complete_rows(m)
    assert sub.datasets == ("a", "c")
    assert sub.algorithms == m.algorithms
    assert sub.cells == ((0.1, 0.2), (0.5, 0.6))
    # idempotent
    assert complete_rows(sub) == sub


def test_complete_rows_fixture_count(fixture_matrix):
    sub = complete_rows(fixture_matrix)
    assert sub.n_datasets == 39
    assert sub.algorithms == fixture_matrix.algorithms
    # order preserved: the kept names appear in original relative order
    kept = iter(fixture_matrix.datasets)
    assert all(any(k == d for k in kept) for d in sub.datasets)
