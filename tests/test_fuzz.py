"""Property referees for the ingest boundary: the reader gives the csv
module's rows, hostile but valid input round-trips, and no CSV text
makes a command fail with an internal error or write an SVG that is not
XML."""

import contextlib
import csv
import io
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apspace import ingest
from apspace.cli import run
from apspace.core import (ApsError, EmptyRowError, PerformanceMatrix,
                          _check_label, build_matrix)
from apspace.ingest import (MalformedHeaderError, MalformedRowError,
                            RaggedRowError, _parse_score, _reader, csv_text,
                            parse_csv, parse_wide, write_long, write_wide)

_ODD_LABELS = ("a,b", 'say "hi"', '"', "line\nbreak", "cr\rreturn",
               "crlf\r\nend", "naïve", "漢字", "NaN", "nan", "dataset",
               "algorithm", "score", "\ufeffbom", "tab\tin", "bell\x07",
               "\ufffe", "&<>'")

# every label build_matrix accepts; a NUL one it refuses (tests/test_core.py)
labels = st.one_of(
    st.sampled_from(_ODD_LABELS),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\x00"), max_size=6)
    .map(str.strip).filter(bool))

# gaps, both ends of [0, 1], -0.0, the least subnormal, and 1e-400,
# which is 0.0 once read
scores = st.one_of(st.none(), st.floats(0.0, 1.0),
                   st.sampled_from([-0.0, 5e-324, float("1e-400"), 1.0]))


def _csv_module_read(text: str):
    """The header (each cell stripped) and the numbered rows after it
    that a strict ``csv.reader`` reads from ``text`` less one leading
    BOM, or ``None`` when it refuses the text."""
    rdr = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""),
                     strict=True)
    try:
        rows = [(rdr.line_num, row) for row in rdr]
    except csv.Error:
        return None
    header = rows.pop(0)[1] if rows else None
    return header and [cell.strip() for cell in header], rows


def _read(text: str):
    """What :func:`_reader` gives for ``text``, in the same shape."""
    try:
        rows, header = _reader(text)
        return header, list(rows)
    except MalformedRowError:
        return None


@contextlib.contextmanager
def _field_limit(limit: int | None):
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


# text made mostly of what the tokenizer decides on, NUL aside: the
# reader refuses it up front (tests/test_ingest.py)
raw_texts = st.text(st.one_of(
    st.sampled_from([",", ",", "\n", "\n", '"', "\r", " ", "a", "1",
                     "\ufeff", "\t"]),
    st.characters(blacklist_characters="\x00")), max_size=40)


@settings(deadline=None)
@given(raw_texts, st.sampled_from([None, 1, 2, 3, 5]))
def test_reader_gives_the_csv_modules_rows(text, limit):
    """Split or read by the csv module, any text gives the header, rows
    and line numbers of a strict ``csv.reader`` over it, under whatever
    field size limit is set when it is read."""
    with _field_limit(limit):
        assert _read(text) == _csv_module_read(text)


LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("text, expected", [
    ("\ufeffdataset,a\nd1,0.5\n", (["dataset", "a"], [(2, ["d1", "0.5"])])),
    ("", (None, [])),
    ("dataset,a\n", (["dataset", "a"], [])),
    ("dataset,a", (["dataset", "a"], [])),
    ("h\n\nd1\n\n", (["h"], [(2, []), (3, ["d1"]), (4, [])])),
    ("h\n\nd1", (["h"], [(2, []), (3, ["d1"])])),
    ("\n", ([], [])),
    ("\n\n", ([], [(2, [])])),
    (",", (["", ""], [])),
    ("h\n,\n", (["h"], [(2, ["", ""])])),
    # a field at the csv module's size limit is read; one over it is not,
    # in the header or after it, on a line of its own or among others
    ("x" * LIMIT, (["x" * LIMIT], [])),
    (f"h\n{'x' * LIMIT}\n", (["h"], [(2, ["x" * LIMIT])])),
    (f"h\n{'x' * LIMIT},y\n", (["h"], [(2, ["x" * LIMIT, "y"])])),
    ("x" * (LIMIT + 1), None),
    (f"h\n1\n{'x' * (LIMIT + 1)}\n2\n", None),
], ids=["bom", "empty", "header-only", "header-only-unended", "blank-lines",
        "blank-lines-unended", "blank-header", "blank-header-and-line",
        "lone-comma", "lone-comma-row", "header-at-limit", "row-at-limit",
        "line-over-limit", "header-over-limit", "row-over-limit"])
def test_reader_edge_cases(text, expected):
    assert _csv_module_read(text) == expected
    assert _read(text) == expected


@st.composite
def matrices(draw):
    algorithms = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    datasets = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    records = []
    for dataset in datasets:
        row = draw(st.lists(scores, min_size=len(algorithms),
                            max_size=len(algorithms)))
        if row.count(None) == len(row):
            row[0] = 0.5
        records += [(dataset, a, v) for a, v in zip(algorithms, row)]
    return build_matrix(records)


@settings(deadline=None)
@given(matrices())
def test_write_then_parse_is_the_identity(m):
    for fmt, write in (("wide", write_wide), ("long", write_long)):
        text = write(m)
        back = parse_csv(text, fmt)
        assert back == m
        assert write(back) == text  # the sign of -0.0 survives too


# gaps, padded gaps and the tokens a row with no empty field reads in
# one go but must read as the per-cell rule does: nan, infinity and 1_0
# (10.0) are numbers and out of range, an Arabic-Indic one is 1.0
score_texts = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["", " ", "NaN", " NaN ", "\tNaN", "NaN\u00a0", "-0.0",
                     "1e-400", "5e-324", "0", " 0.25 ", "1", "nan",
                     "infinity", "1_0", "\u0661"]))
tokens = st.one_of(labels, score_texts, st.sampled_from(
    ["nan", "inf", "-inf", "1.5", "-1", "1e308", "abc", '"', '"x',
     "a\x00b"]))


def _quote_all(rows: list[list[str]], end: str) -> str:
    """What ``csv.writer`` writes with ``QUOTE_ALL``, for NUL too, which
    its writer refuses before Python 3.11."""
    return "".join(",".join('"' + cell.replace('"', '""') + '"'
                            for cell in row) + end for row in rows)


@st.composite
def csv_texts(draw):
    """Wide, long or shapeless CSV with hostile labels, and what the
    error of a command over it must contain (``None``: any outcome).
    Half the texts are well-formed, half of those quoted only where a
    cell needs it; the rest may put any token in any cell, hold ragged
    rows anywhere among the others and leave quotes and line breaks
    unquoted.  A quarter of the fully quoted texts lose their last
    closing quote: those must fail, on that quote if nothing else is
    wrong."""
    width = draw(st.integers(1, 4))
    hostile = draw(st.booleans())
    cell = tokens if hostile else score_texts
    names = draw(st.lists(labels, min_size=1, max_size=6, unique=True))
    algorithms = draw(st.lists(labels, min_size=width, max_size=width,
                               unique=True))
    shape = draw(st.sampled_from(["wide", "long", "shapeless"]))
    if shape == "wide":
        header = ["dataset", *algorithms]
        rows = [[name, *draw(st.lists(cell, min_size=width,
                                      max_size=width))] for name in names]
    elif shape == "long":
        header = ["dataset", "algorithm", "score"]
        rows = [[name, algorithm, draw(cell)]
                for name in names for algorithm in algorithms]
    else:
        header = draw(st.lists(tokens, min_size=1, max_size=width))
        rows = []
    if hostile or shape == "shapeless":
        # each at a drawn place, so a fault may come before or after
        # another row's, in one block of rows or across blocks
        for row in draw(st.lists(st.lists(tokens, max_size=width + 2),
                                 max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))), row)
    expect = None
    if hostile and draw(st.booleans()):
        # raw joins: stray quotes and embedded line breaks stay as drawn
        text = "\n".join(",".join(row) for row in [header, *rows])
    elif not hostile and draw(st.booleans()):
        # quoted only where a cell needs it: most such texts are plain
        text = csv_text(header, rows)
    else:
        end = draw(st.sampled_from(["\n", "\r\n"]))
        text = _quote_all([header, *rows], end)
        # an empty last row has no closing quote to lose
        if [header, *rows][-1] and draw(st.integers(0, 3)) == 0:
            text = text[:-len(end) - 1] + draw(st.sampled_from(["", end]))
            expect = ("" if hostile or shape == "shapeless"
                      else "quoted field not closed before the end")
    return draw(st.sampled_from(["", "\ufeff"])) + text, expect


@settings(deadline=None)  # each example writes files
@given(csv_texts())
def test_commands_never_fail_internally_and_write_only_xml(drawn):
    text, expect = drawn
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.csv"
        src.write_text(text, encoding="utf-8")
        # --ordered renders every document the unordered grid would
        for command in (["validate"], ["metrics"],
                        ["plot", "mini", "--ordered"]):
            out = Path(tmp) / "-".join(command)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = run([*command, "-i", str(src), "-o", str(out)])
            assert code in (0, 1, 2), err.getvalue()
            if expect is not None:  # never read as if the quote closed
                assert code == 2 and expect in err.getvalue()
            for svg in out.glob("*.svg"):
                ET.fromstring(svg.read_text(encoding="utf-8"))


def _parse_wide_per_record(text: str) -> PerformanceMatrix:
    """``parse_wide`` one record at a time: every cell through
    ``_parse_score``, and the records as a list, which ``build_matrix``
    checks in its record loop."""
    rows, header = _reader(text)
    if not header or header[0] != "dataset":
        raise MalformedHeaderError(
            f"expected wide header starting with 'dataset', got {header!r}")
    records = []
    for line, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise RaggedRowError(f"line {line}: expected {len(header)} "
                                 f"fields, got {len(row)}")
        dataset = row[0].strip()
        if not dataset:
            raise MalformedRowError(f"line {line}: empty dataset name")
        if len(header) == 1:
            raise EmptyRowError(f"dataset {dataset!r} has no present scores")
        records += [(dataset, algorithm, _parse_score(cell, line))
                    for algorithm, cell in zip(header[1:], row[1:])]
    if not records:
        algorithms = header[1:]
        for i, algorithm in enumerate(algorithms):
            _check_label(algorithm, "algorithm")
            if algorithm in algorithms[:i]:
                raise MalformedHeaderError(
                    f"duplicate algorithm column {algorithm!r}")
        return PerformanceMatrix(tuple(algorithms), (), ())
    return build_matrix(records)


def _outcome(parse, text):
    """The matrix, its cells by ``repr`` (cell types and the sign of
    ``-0.0`` included) and its float view's bytes, or the error."""
    try:
        m = parse(text)
    except ApsError as exc:
        return type(exc), str(exc)
    return m.algorithms, m.datasets, repr(m.cells), m.values.tobytes()


@settings(deadline=None)
@given(csv_texts())
def test_parse_wide_bulk_path_matches_the_record_path(drawn):
    """At the default block size, and with blocks small enough that most
    texts span several (one row, and three fields, a block)."""
    text, _ = drawn
    expect = _outcome(_parse_wide_per_record, text)
    for block in (ingest._BLOCK, 1, 3):
        with mock.patch.object(ingest, "_BLOCK", block):
            assert _outcome(parse_wide, text) == expect, block
