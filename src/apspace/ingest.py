"""CSV ingestion and emission for performance matrices.

Two shapes are supported:

* long  — header ``dataset,algorithm,score``, one row per cell
* wide  — header ``dataset,<algo>,...``, one row per dataset

A missing result is an empty field or the literal ``NaN`` (case-sensitive)
on input and an empty field on output.  Parsers fail fast with 1-based line
numbers; writers emit shortest-round-trip floats so parse(write(m)) == m.

Every CSV text, the user's input and the bundled fixtures alike, is read
through :func:`_reader`, which owns the checks on the text itself: a BOM,
NUL characters, an unclosed quote and the csv module's own faults.
"""

import csv
import io
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import (ApsError, EmptyRowError, PerformanceMatrix, Score,
                   build_matrix)

_FIXTURE_DIR = Path(__file__).parent / "fixtures"
INPUT_FORMATS = ("auto", "long", "wide")
_LONG_HEADER = ["dataset", "algorithm", "score"]


class MalformedHeaderError(ApsError):
    """First CSV row is not the expected header for the chosen shape."""


class MalformedRowError(ApsError):
    """A long-format row has the wrong field count or an unparsable score."""


class RaggedRowError(ApsError):
    """A wide-format row's field count does not match the header."""


@dataclass(frozen=True)
class ValidationReport:
    """Shape summary of a matrix plus advisory warnings (never errors)."""

    dataset_count: int
    algorithm_count: int
    present_cells: int
    missing_cells: int
    complete_row_count: int
    warnings: tuple[str, ...]


def _parse_score(text: str, line_num: int) -> Score:
    text = text.strip()
    if text == "" or text == "NaN":
        return None
    try:
        value = float(text)
    except ValueError:
        raise MalformedRowError(
            f"line {line_num}: cannot parse score {text!r}") from None
    return value


def _reader(text: str) -> tuple[Iterator[tuple[int, list[str]]],
                                 list[str] | None]:
    """The rows of the CSV ``text`` after its header, each with the line
    number it ends on, and the header with each cell stripped (``None``
    for empty text).  One leading BOM is dropped.

    Text with a NUL character is refused here on every Python version:
    before 3.11 the csv module cannot read it at all.  So is a quoted
    field still open at the end of the text, which the csv reader would
    close there.  The reader returns a row as soon as it is complete, so
    a row it returns after asking for input past the last line is one
    whose quote was never closed.  (``strict=True`` would refuse that
    too, but also ``"0.2"5``, which reads as ``0.25``.)  A fault the csv
    module raises itself, such as a field over its size limit, is
    reported as ``cannot read CSV: <its message>``.  Each of these is a
    :class:`MalformedRowError`."""
    if "\x00" in text:
        raise MalformedRowError("cannot read CSV: it contains a NUL character")
    ended = []

    def lines():
        yield from io.StringIO(text.removeprefix("\ufeff"), newline="")
        ended.append(True)

    def read():
        rdr, start = csv.reader(lines()), 1
        try:
            for row in rdr:
                if ended:
                    raise MalformedRowError(
                        f"line {start}: quoted field not closed before the "
                        "end of the input")
                yield rdr.line_num, row
                start = rdr.line_num + 1
        except csv.Error as exc:
            raise MalformedRowError(f"cannot read CSV: {exc}") from None

    rows = read()
    header = next(rows, (0, None))[1]
    return rows, header and [cell.strip() for cell in header]


def parse_csv(text: str, fmt: str = "auto") -> PerformanceMatrix:
    """Parse either shape; ``fmt="auto"`` reads the header as CSV and
    picks long when it is ``dataset,algorithm,score``, else wide."""
    if fmt == "auto":
        fmt = "long" if _reader(text)[1] == _LONG_HEADER else "wide"
    if fmt == "long":
        return parse_long(text)
    if fmt == "wide":
        return parse_wide(text)
    raise ValueError(f"unknown input format {fmt!r}")


def parse_long(text: str) -> PerformanceMatrix:
    """Parse ``dataset,algorithm,score`` rows into a matrix.

    Blank lines are skipped.  Header cells must match once stripped;
    every data row must have exactly three fields.
    """
    rows, header = _reader(text)
    if header != _LONG_HEADER:
        raise MalformedHeaderError(
            f"expected header dataset,algorithm,score, got {header!r}")
    records = []
    for line, row in rows:
        if not row:
            continue
        if len(row) != 3:
            raise MalformedRowError(
                f"line {line}: expected 3 fields, got {len(row)}")
        dataset, algorithm = row[0].strip(), row[1].strip()
        if not dataset or not algorithm:
            raise MalformedRowError(f"line {line}: empty name field")
        records.append((dataset, algorithm, _parse_score(row[2], line)))
    return build_matrix(records)


def parse_wide(text: str) -> PerformanceMatrix:
    """Parse one-row-per-dataset CSV into a matrix.

    The header's first cell must be ``dataset``; the remaining cells name
    the algorithm columns (zero columns is allowed so degenerate matrices
    round-trip).  Every row must match the header width.
    """
    rows, header = _reader(text)
    if not header or header[0] != "dataset":
        raise MalformedHeaderError(
            f"expected wide header starting with 'dataset', got {header!r}")
    algorithms = header[1:]
    records = []
    for line, row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise RaggedRowError(
                f"line {line}: expected {len(header)} fields, "
                f"got {len(row)}")
        dataset = row[0].strip()
        if not dataset:
            raise MalformedRowError(f"line {line}: empty dataset name")
        if not algorithms:
            raise EmptyRowError(f"dataset {dataset!r} has no present scores")
        records += zip(repeat(dataset), algorithms,
                       [_parse_score(cell, line) for cell in row[1:]])
    if not records:
        # header-only input: keep the column set so parse(write(m)) == m
        return PerformanceMatrix(tuple(algorithms), (), ())
    return build_matrix(records)


def _format_score(value: Score) -> str:
    return "" if value is None else repr(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]],
             trailer: str | None = None) -> str:
    """CSV lines ending in ``\\n``, then ``trailer`` as a line of its own.

    A row with a ``\\r`` in a field is written with every field quoted:
    before Python 3.13 the csv module leaves a lone ``\\r`` unquoted, and
    a reader ends the line there.
    """
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n").writerow
    quoted = csv.writer(buf, lineterminator="\n",
                        quoting=csv.QUOTE_ALL).writerow
    for row in chain([header], rows):
        (quoted if "\r" in "".join(row) else plain)(row)
    if trailer is not None:
        buf.write(trailer + "\n")
    return buf.getvalue()


def write_long(matrix: PerformanceMatrix) -> str:
    """Emit long-format CSV (row order: dataset-major, algorithm order)."""
    return csv_text(["dataset", "algorithm", "score"], (
        [dataset, algorithm, _format_score(value)]
        for dataset, row in zip(matrix.datasets, matrix.cells)
        for algorithm, value in zip(matrix.algorithms, row)))


def write_wide(matrix: PerformanceMatrix) -> str:
    """Emit wide-format CSV, one line per dataset plus the header."""
    return csv_text(["dataset", *matrix.algorithms],
                    ([dataset, *map(_format_score, row)]
                     for dataset, row in zip(matrix.datasets, matrix.cells)))


def validate(matrix: PerformanceMatrix) -> ValidationReport:
    """Count present/missing cells and flag rows of limited use.

    Warnings (not errors): a dataset with a single present score has no
    defined variance; an incomplete dataset is excluded from subset
    search by default.
    """
    present = sum(v is not None for row in matrix.cells for v in row)
    total = matrix.n_datasets * matrix.n_algorithms
    warnings = []
    for dataset, row, complete in zip(matrix.datasets, matrix.cells,
                                      matrix.complete):
        n_present = sum(v is not None for v in row)
        if n_present == 1 and matrix.n_algorithms > 1:
            warnings.append(
                f"dataset {dataset!r} has a single present score; "
                "variance is undefined")
        if not complete:
            warnings.append(
                f"dataset {dataset!r} is incomplete; "
                "excluded from subset search by default")
    return ValidationReport(
        dataset_count=matrix.n_datasets,
        algorithm_count=matrix.n_algorithms,
        present_cells=present,
        missing_cells=total - present,
        complete_row_count=int(matrix.complete.sum()),
        warnings=tuple(warnings),
    )


def fixture_path(name: str = "thesis_results.csv") -> Path:
    """Absolute path of a bundled fixture CSV."""
    return _FIXTURE_DIR / name


def _fixture_rows(name: str) -> Iterator[list[str]]:
    """The non-blank rows after the header of a bundled fixture CSV."""
    rows, _ = _reader(fixture_path(name).read_text(encoding="utf-8"))
    return (row for _, row in rows if row)


def load_thesis_matrix() -> PerformanceMatrix:
    """The bundled 71-dataset x 5-algorithm nDCG@10 matrix."""
    text = fixture_path("thesis_scores.csv").read_text(encoding="utf-8")
    return parse_wide(text)


def load_thesis_metric_columns() -> dict[str, tuple[float, float | None]]:
    """Published (difficulty, variance) per dataset, as printed (4 d.p.).

    Variance is ``None`` where fewer than two results existed.
    """
    return {row[0]: (float(row[6]), None if row[7] == "NaN" else float(row[7]))
            for row in _fixture_rows("thesis_results.csv")}


def load_thesis_metadata() -> list[tuple[str, int, int, int]]:
    """Corpus metadata rows: (dataset, interactions, users, items)."""
    return [(r[0], int(r[1]), int(r[2]), int(r[3]))
            for r in _fixture_rows("thesis_datasets.csv")]


__all__ = [
    "MalformedHeaderError", "MalformedRowError", "RaggedRowError",
    "ValidationReport", "parse_csv", "parse_long", "parse_wide", "write_long",
    "write_wide", "validate", "fixture_path",
    "load_thesis_matrix", "load_thesis_metric_columns", "load_thesis_metadata",
]
