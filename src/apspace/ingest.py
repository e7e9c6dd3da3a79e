"""CSV ingestion and emission for performance matrices.

Two shapes are supported:

* long  — header ``dataset,algorithm,score``, one row per cell
* wide  — header ``dataset,<algo>,...``, one row per dataset

A missing result is an empty field or the literal ``NaN`` (case-sensitive)
on input and an empty field on output.  Parsers fail fast with 1-based line
numbers; writers emit shortest-round-trip floats so parse(write(m)) == m.

Every CSV text, the user's input and the bundled fixtures alike, is read
through :func:`_reader`, which owns the checks on the text itself: a BOM,
NUL characters, a quote left open or followed by more text in its field,
and the csv module's own faults.
"""

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (ApsError, EmptyRowError, Grid, PerformanceMatrix, Score,
                   _check_label, build_matrix)

_FIXTURE_DIR = Path(__file__).parent / "fixtures"
# the first value is the default
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


def _csv_rows(lines: Iterable[str], first: int = 1
              ) -> Iterator[tuple[int, list[str]]]:
    """The rows ``csv.reader(strict=True)`` reads from ``lines``, each with
    the line number it ends on, counted from ``first``.

    A quoted field still open at the end of the input, which a lenient
    reader would close there, is ``line N: quoted field not closed before
    the end of the input``, N being the line its row starts on.  Any other
    fault the csv module raises, such as a field over its size limit or
    text after a closing quote (``"0.2"5``), is ``cannot read CSV: <its
    message>``.  Each is a :class:`MalformedRowError`."""
    rdr, start = csv.reader(lines, strict=True), first
    try:
        for row in rdr:
            yield first - 1 + rdr.line_num, row
            start = first + rdr.line_num
    except csv.Error as exc:
        if str(exc) == "unexpected end of data":
            raise MalformedRowError(
                f"line {start}: quoted field not closed before the end of "
                "the input") from None
        raise MalformedRowError(f"cannot read CSV: {exc}") from None


def _plain_rows(text: str, first: int) -> Iterator[tuple[int, list[str]]]:
    """The rows ``csv.reader`` reads from ``text``, which holds no quote
    and no carriage return, numbered from ``first``: each line split at
    its commas, a blank line as ``[]``, and no row after a final
    newline.  Nothing is split before the first row is asked for.  When
    a line is longer than ``csv.field_size_limit()``, read then, the
    lines go through :func:`_csv_rows` instead, which refuses a field
    over that limit."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        yield from _csv_rows(lines, first)
    else:
        yield from enumerate(
            (line.split(",") if line else [] for line in lines), first)


def _row_scores(tokens: list[str], line: int) -> list[Score]:
    """The scores of one wide row, by the rule of :func:`_parse_score`: a
    token that is empty or ``NaN`` once stripped is a gap, any other is
    read by ``float`` (so ``nan`` is a number, and out of range).

    A row with no empty token is first read by one ``map(float)``, which
    is that rule when it raises nothing and gives no NaN.  Any other row
    is read token by token, and only a row with a token ``float`` refuses
    is read once more, by :func:`_parse_score`, for its message."""
    if "" not in tokens:
        try:
            scores = list(map(float, tokens))
        except ValueError:
            pass
        else:
            if not math.isnan(sum(scores)):
                return scores
    try:
        return [None if (s := c.strip()) == "" or s == "NaN" else float(c)
                for c in tokens]
    except ValueError:
        return [_parse_score(c, line) for c in tokens]


def _reader(text: str) -> tuple[Iterator[tuple[int, list[str]]],
                                 list[str] | None]:
    """The rows of the CSV ``text`` after its header, each with the line
    number it ends on, and the header with each cell stripped (``None``
    for empty text).  One leading BOM is dropped.

    Text with a NUL character is refused here on every Python version:
    before 3.11 the csv module cannot read it at all.  Text with no quote
    and no carriage return is split at its line breaks and commas, which
    gives the csv module's rows; the header line is split off first, so
    reading only the header splits nothing after it.  Any other text goes
    through the strict csv reader (see :func:`_csv_rows` for its
    faults)."""
    if "\x00" in text:
        raise MalformedRowError("cannot read CSV: it contains a NUL character")
    text = text.removeprefix("\ufeff")
    if '"' in text or "\r" in text:
        rows = _csv_rows(io.StringIO(text, newline=""))
    else:
        head, newline, body = text.partition("\n")
        rows = chain(_plain_rows(head + newline, 1), _plain_rows(body, 2))
    header = next(rows, (0, None))[1]
    return rows, header and [cell.strip() for cell in header]


def parse_csv(text: str, fmt: str = INPUT_FORMATS[0]) -> PerformanceMatrix:
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

    Each row's scores are read by :func:`_row_scores`, by the rule of
    :func:`parse_long`.  The rows go to :func:`build_matrix` as one
    :class:`~apspace.core.Grid`, which it checks in bulk; only when a
    check fails does it replay the grid record by record, so the first
    fault in file order is the one reported.  A header-only text keeps
    its algorithm columns, each a valid name given once.
    """
    rows, header = _reader(text)
    if not header or header[0] != "dataset":
        raise MalformedHeaderError(
            f"expected wide header starting with 'dataset', got {header!r}")
    algorithms = header[1:]
    datasets, cells = [], []
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
        datasets.append(dataset)
        cells.append(_row_scores(row[1:], line))
    if not cells:
        # header-only input: keep the column set so parse(write(m)) == m
        seen = set()
        for algorithm in algorithms:
            if _check_label(algorithm, "algorithm") in seen:
                raise MalformedHeaderError(
                    f"duplicate algorithm column {algorithm!r}")
            seen.add(algorithm)
        return PerformanceMatrix(tuple(algorithms), (), ())
    return build_matrix(Grid(datasets, algorithms, cells))


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
    counts = matrix.n_algorithms - np.isnan(matrix.values).sum(axis=1)
    present = int(counts.sum())
    total = matrix.n_datasets * matrix.n_algorithms
    warnings = []
    for dataset, n_present, complete in zip(matrix.datasets, counts.tolist(),
                                            matrix.complete):
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


def fixture_path(name: str) -> Path:
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
