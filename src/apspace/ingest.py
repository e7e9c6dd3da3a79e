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
and the csv module's own faults.  Each wide row is checked as
:func:`_blocks` reads it (its width, its dataset name, the header's
algorithm column), and each score token by :func:`_parse_score`.
"""

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import (ApsError, EmptyRowError, Grid, PerformanceMatrix, Score,
                   _check_label, build_matrix)

_FIXTURE_DIR = Path(__file__).parent / "fixtures"
# the first value is the default
INPUT_FORMATS = ("auto", "long", "wide")
_LONG_HEADER = ["dataset", "algorithm", "score"]
# the most score fields a wide parse reads in one pass, unless one row
# has more: it bounds the memory the pass adds
_BLOCK = 8192


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


def _blocks(rows: Iterator[tuple[int, list[str]]], width: int
            ) -> Iterator[list[tuple[int, list[str]]]]:
    """The non-blank wide ``rows`` under a header of ``width`` fields, at
    most ``_BLOCK`` score fields at a time (one row, if a row has more).

    Each row is checked as it is read: it must have ``width`` fields,
    then a dataset name, then the header an algorithm column.  When a
    check or the reader raises, the rows read before the fault are
    yielded first, so a fault they hold is raised before it: the first
    fault in file order wins."""
    size, block = max(_BLOCK // max(width - 1, 1), 1), []
    try:
        for line, row in rows:
            if not row:
                continue
            if len(row) != width:
                raise RaggedRowError(
                    f"line {line}: expected {width} fields, got {len(row)}")
            name = row[0].strip()
            if not name:
                raise MalformedRowError(f"line {line}: empty dataset name")
            if width == 1:
                raise EmptyRowError(f"dataset {name!r} has no present scores")
            block.append((line, row))
            if len(block) == size:
                yield block
                block = []
    except ApsError:
        if block:
            yield block
        raise
    if block:
        yield block


def _wide_block(block: list[tuple[int, list[str]]]
                ) -> tuple[list[str], list[list[Score]]]:
    """The dataset names and the score rows of a non-empty block of wide
    rows that :func:`_blocks` checked, each given as its line number and
    its fields.

    The block's score tokens are read in one pass: by one ``map(float)``
    when none is empty, else by one comprehension that makes each empty
    token a gap.  Only the tokens the pass read as NaN (a ``NaN`` gap,
    or ``nan``) are read again, by :func:`_parse_score`, which cannot
    raise on tokens ``float`` read.  When the pass raises, every token
    is read by :func:`_parse_score`, in file order, so the block's first
    bad token is the one raised."""
    names = [row[0].strip() for _, row in block]
    tokens = [c for _, row in block for c in row[1:]]
    try:
        scores = (list(map(float, tokens)) if "" not in tokens
                  else [float(c) if c else None for c in tokens])
    except ValueError:  # a blank gap or a bad token: read by the rule
        return names, [[_parse_score(c, line) for c in row[1:]]
                       for line, row in block]
    step = len(block[0][1]) - 1
    rows = [scores[i:i + step] for i in range(0, len(scores), step)]
    if math.isnan(sum(filter(None, scores))):
        rows = [[_parse_score(c, line) if v != v else v
                 for c, v in zip(raw[1:], row)]
                if math.isnan(sum(filter(None, row))) else row
                for (line, raw), row in zip(block, rows)]
    return names, rows


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

    The non-blank rows are checked as they are read, a block of at most
    ``_BLOCK`` score fields at a time (see :func:`_blocks`), and each
    block's scores are converted by :func:`_wide_block`, so the first
    fault in file order is the one reported.  The rows go to
    :func:`build_matrix` as one :class:`~apspace.core.Grid`, which it
    checks in bulk; only when a check fails does it replay the grid
    record by record.  A header-only text keeps its algorithm columns,
    each a valid name given once.
    """
    rows, header = _reader(text)
    if not header or header[0] != "dataset":
        raise MalformedHeaderError(
            f"expected wide header starting with 'dataset', got {header!r}")
    algorithms = header[1:]
    datasets, cells = [], []
    # map keeps no block alive while _blocks reads the next
    for names, scores in map(_wide_block, _blocks(rows, len(header))):
        datasets += names
        cells += scores
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
    search.
    """
    counts = matrix.present.sum(axis=1)
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
                "excluded from subset search")
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


def _fixture_rows(name: str) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows after the header of a bundled fixture CSV, each
    with the line number it ends on."""
    rows, _ = _reader(fixture_path(name).read_text(encoding="utf-8"))
    return ((line_num, row) for line_num, row in rows if row)


def load_thesis_matrix() -> PerformanceMatrix:
    """The bundled 71-dataset x 5-algorithm nDCG@10 matrix."""
    text = fixture_path("thesis_scores.csv").read_text(encoding="utf-8")
    return parse_wide(text)


def load_thesis_metric_columns() -> dict[str, tuple[float, float | None]]:
    """Published (difficulty, variance) per dataset, as printed (4 d.p.).

    Variance is ``None`` where fewer than two results existed.  Both are
    read as score tokens, by :func:`_parse_score`.
    """
    return {row[0]: (_parse_score(row[6], line_num),
                     _parse_score(row[7], line_num))
            for line_num, row in _fixture_rows("thesis_results.csv")}


def load_thesis_metadata() -> list[tuple[str, int, int, int]]:
    """Corpus metadata rows: (dataset, interactions, users, items)."""
    return [(r[0], int(r[1]), int(r[2]), int(r[3]))
            for _, r in _fixture_rows("thesis_datasets.csv")]


__all__ = [
    "MalformedHeaderError", "MalformedRowError", "RaggedRowError",
    "ValidationReport", "parse_csv", "parse_long", "parse_wide", "write_long",
    "write_wide", "validate", "fixture_path",
    "load_thesis_matrix", "load_thesis_metric_columns", "load_thesis_metadata",
]
