"""CSV ingestion and emission for performance matrices.

Two shapes are supported:

* long  — header ``dataset,algorithm,score``, one row per cell
* wide  — header ``dataset,<algo>,...``, one row per dataset

A missing result is an empty field or the literal ``NaN`` (case-sensitive)
on input and an empty field on output.  Parsers fail fast with 1-based line
numbers; writers emit shortest-round-trip floats so parse(write(m)) == m.
"""

import csv
import io
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

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


def _reader(text: str) -> tuple[csv.reader, list[str] | None]:
    """A CSV reader over ``text`` with one leading BOM dropped, and its
    first row with each cell stripped (``None`` for empty text)."""
    rdr = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    header = next(rdr, None)
    return rdr, header and [cell.strip() for cell in header]


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
    rdr, header = _reader(text)
    if header != _LONG_HEADER:
        raise MalformedHeaderError(
            f"expected header dataset,algorithm,score, got {header!r}")
    records = []
    for row in rdr:
        if not row:
            continue
        if len(row) != 3:
            raise MalformedRowError(
                f"line {rdr.line_num}: expected 3 fields, got {len(row)}")
        dataset, algorithm = row[0].strip(), row[1].strip()
        if not dataset or not algorithm:
            raise MalformedRowError(f"line {rdr.line_num}: empty name field")
        records.append((dataset, algorithm, _parse_score(row[2], rdr.line_num)))
    return build_matrix(records)


def parse_wide(text: str) -> PerformanceMatrix:
    """Parse one-row-per-dataset CSV into a matrix.

    The header's first cell must be ``dataset``; the remaining cells name
    the algorithm columns (zero columns is allowed so degenerate matrices
    round-trip).  Every row must match the header width.
    """
    rdr, header = _reader(text)
    if not header or header[0] != "dataset":
        raise MalformedHeaderError(
            f"expected wide header starting with 'dataset', got {header!r}")
    algorithms = header[1:]
    records = []
    for row in rdr:
        if not row:
            continue
        if len(row) != len(header):
            raise RaggedRowError(
                f"line {rdr.line_num}: expected {len(header)} fields, "
                f"got {len(row)}")
        dataset = row[0].strip()
        if not dataset:
            raise MalformedRowError(f"line {rdr.line_num}: empty dataset name")
        if not algorithms:
            raise EmptyRowError(f"dataset {dataset!r} has no present scores")
        line = rdr.line_num
        records += zip(repeat(dataset), algorithms,
                       [_parse_score(cell, line) for cell in row[1:]])
    if not records:
        # header-only input: keep the column set so parse(write(m)) == m
        return PerformanceMatrix(tuple(algorithms), (), ())
    return build_matrix(records)


def _format_score(value: Score) -> str:
    return "" if value is None else repr(value)


def write_long(matrix: PerformanceMatrix) -> str:
    """Emit long-format CSV (row order: dataset-major, algorithm order)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["dataset", "algorithm", "score"])
    for dataset, row in zip(matrix.datasets, matrix.cells):
        for algorithm, value in zip(matrix.algorithms, row):
            w.writerow([dataset, algorithm, _format_score(value)])
    return buf.getvalue()


def write_wide(matrix: PerformanceMatrix) -> str:
    """Emit wide-format CSV, one line per dataset plus the header."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["dataset", *matrix.algorithms])
    for dataset, row in zip(matrix.datasets, matrix.cells):
        w.writerow([dataset, *(_format_score(v) for v in row)])
    return buf.getvalue()


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


def load_thesis_matrix() -> PerformanceMatrix:
    """The bundled 71-dataset x 5-algorithm nDCG@10 matrix."""
    text = fixture_path("thesis_scores.csv").read_text(encoding="utf-8")
    return parse_wide(text)


def load_thesis_metric_columns() -> dict[str, tuple[float, float | None]]:
    """Published (difficulty, variance) per dataset, as printed (4 d.p.).

    Variance is ``None`` where fewer than two results existed.
    """
    text = fixture_path("thesis_results.csv").read_text(encoding="utf-8")
    rdr = csv.reader(io.StringIO(text))
    next(rdr)
    out: dict[str, tuple[float, float | None]] = {}
    for row in rdr:
        if not row:
            continue
        difficulty = float(row[6])
        variance = None if row[7] == "NaN" else float(row[7])
        out[row[0]] = (difficulty, variance)
    return out


def load_thesis_metadata() -> list[tuple[str, int, int, int]]:
    """Corpus metadata rows: (dataset, interactions, users, items)."""
    text = fixture_path("thesis_datasets.csv").read_text(encoding="utf-8")
    rdr = csv.reader(io.StringIO(text))
    next(rdr)
    return [(r[0], int(r[1]), int(r[2]), int(r[3])) for r in rdr if r]


__all__ = [
    "MalformedHeaderError", "MalformedRowError", "RaggedRowError",
    "ValidationReport", "parse_csv", "parse_long", "parse_wide", "write_long",
    "write_wide", "validate", "fixture_path",
    "load_thesis_matrix", "load_thesis_metric_columns", "load_thesis_metadata",
]
