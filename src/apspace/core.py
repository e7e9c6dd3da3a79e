"""Performance matrix model: datasets x algorithms with first-class gaps.

Every score is an nDCG-style value in [0, 1] or ``None`` for a result that
was never produced (run killed, algorithm inapplicable, ...).  Gaps are kept
explicit instead of being imputed or clamped so downstream consumers can
decide how to treat them.
"""

import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

Score = float | None


class ApsError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidLabelError(ApsError):
    """A dataset or algorithm name is empty or has surrounding whitespace."""


class DuplicateCellError(ApsError):
    """The same (dataset, algorithm) pair was supplied more than once."""


class ScoreOutOfRangeError(ApsError):
    """A score is not a finite number in [0, 1]."""


class EmptyRowError(ApsError):
    """A dataset row has no present scores at all."""


class UnknownDatasetError(ApsError):
    """Lookup of a dataset name that is not in the matrix."""


class UnknownAlgorithmError(ApsError):
    """Lookup of an algorithm name that is not in the matrix."""


class ZeroColumnError(ApsError):
    """An algorithm column cannot be normalized (no positive present value)."""


class LengthMismatchError(ApsError):
    """Two sequences that must be index-aligned have different lengths."""


@dataclass(frozen=True)
class PerformanceMatrix:
    """Immutable datasets-by-algorithms score grid.

    ``cells[i][j]`` is the score of ``algorithms[j]`` on ``datasets[i]``,
    or ``None`` where no result exists.  Rows and columns keep the order
    they were first seen in; use :func:`build_matrix` to construct one
    with full validation.  ``complete`` and ``values`` are the one owner
    of row completeness and of the float view; both are cached, read-only,
    as is ``complete_points``, which the searches read.
    """

    algorithms: tuple[str, ...]
    datasets: tuple[str, ...]
    cells: tuple[tuple[Score, ...], ...]

    @property
    def n_algorithms(self) -> int:
        return len(self.algorithms)

    @property
    def n_datasets(self) -> int:
        return len(self.datasets)

    @cached_property
    def _dataset_pos(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.datasets)}

    @cached_property
    def _algorithm_pos(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.algorithms)}

    def dataset_index(self, name: str) -> int:
        try:
            return self._dataset_pos[name]
        except KeyError:
            raise UnknownDatasetError(f"unknown dataset {name!r}") from None

    def algorithm_index(self, name: str) -> int:
        try:
            return self._algorithm_pos[name]
        except KeyError:
            raise UnknownAlgorithmError(f"unknown algorithm {name!r}") from None

    def row(self, dataset: str) -> tuple[Score, ...]:
        """All scores for one dataset, in algorithm order."""
        return self.cells[self.dataset_index(dataset)]

    def column(self, algorithm: str) -> tuple[Score, ...]:
        """All scores for one algorithm, in dataset order."""
        j = self.algorithm_index(algorithm)
        return tuple(r[j] for r in self.cells)

    @cached_property
    def complete(self) -> np.ndarray:
        """Per-row bool mask: True where every algorithm has a score."""
        mask = np.fromiter((None not in row for row in self.cells),
                           dtype=bool, count=len(self.cells))
        mask.flags.writeable = False
        return mask

    @cached_property
    def values(self) -> np.ndarray:
        """The cells as a float64 ``n_datasets x n_algorithms`` array,
        NaN for each gap."""
        arr = np.array(self.cells, dtype=float).reshape(
            self.n_datasets, self.n_algorithms)
        arr.flags.writeable = False
        return arr

    @cached_property
    def complete_points(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The complete rows' names, sorted, and their points in that
        order, read-only: the candidates of every subset search."""
        rows = sorted(np.flatnonzero(self.complete).tolist(),
                      key=self.datasets.__getitem__)
        points = self.values[rows]
        points.flags.writeable = False
        return tuple(self.datasets[i] for i in rows), points

    def is_complete(self, dataset: str) -> bool:
        return bool(self.complete[self.dataset_index(dataset)])


def left_sum(terms):
    """The sum of ``terms`` added one after another, left to right, from
    ``+0.0``; each term may be a float or an array.

    This is the order ``sum()`` adds floats in up to Python 3.11.  From
    3.12 ``sum()`` compensates its rounding (``sum([0.1] * 10)`` is
    ``1.0`` there, ``0.9999999999999999`` here), so every float sum this
    package reports goes through this one helper, and the scalar and the
    bulk paths agree bit for bit on every supported Python.
    """
    return reduce(operator.add, terms, 0.0)


@dataclass(frozen=True)
class Grid:
    """(dataset, algorithm, score) records laid out as a wide table:
    ``cells[i][j]`` is the score (a float or ``None``) of
    ``algorithms[j]`` on ``datasets[i]``, and every row has one cell per
    algorithm.

    Sized and iterable like the list of its records: ``len`` is the cell
    count, and iteration yields the triples row by row, in column order.
    :func:`build_matrix` checks a grid in bulk.  A grid has no float view
    of its own: :attr:`PerformanceMatrix.values` is the only one.
    """

    datasets: Sequence[str]
    algorithms: Sequence[str]
    cells: Sequence[Sequence[Score]]

    def __len__(self) -> int:
        return len(self.datasets) * len(self.algorithms)

    def __iter__(self) -> Iterator[tuple[str, str, Score]]:
        for dataset, row in zip(self.datasets, self.cells):
            yield from zip(repeat(dataset), self.algorithms, row)


def _check_label(label: str, kind: str) -> str:
    if not isinstance(label, str) or not label or label != label.strip():
        raise InvalidLabelError(f"bad {kind} name {label!r}: must be non-empty "
                                "with no surrounding whitespace")
    if "\x00" in label:
        # before Python 3.11 the csv module can neither write nor read it
        raise InvalidLabelError(f"bad {kind} name {label!r}: "
                                "contains a NUL character")
    return label


def _sound_grid(grid: Grid) -> PerformanceMatrix | None:
    """The matrix of ``grid`` when the record loop of :func:`build_matrix`
    would accept every record of it, else ``None``.  The range and
    empty-row checks run on the matrix's own ``values``, so that float
    view is made once, and cached."""
    try:
        for label in grid.datasets:
            _check_label(label, "dataset")
        for label in grid.algorithms:
            _check_label(label, "algorithm")
    except InvalidLabelError:
        return None
    if (len(set(grid.datasets)) < len(grid.datasets)
            or len(set(grid.algorithms)) < len(grid.algorithms)):
        return None
    matrix = PerformanceMatrix(tuple(grid.algorithms), tuple(grid.datasets),
                               tuple(map(tuple, grid.cells)))
    values = matrix.values
    gaps = sum(row.count(None) for row in grid.cells)
    # NaN, a gap or a float NaN, is never in range: every cell that is
    # not a gap must be
    in_range = np.count_nonzero((values >= 0.0) & (values <= 1.0))
    if in_range + gaps != values.size or np.isnan(values).all(axis=1).any():
        return None
    return matrix


def build_matrix(records: Iterable[tuple[str, str, Score]]) -> PerformanceMatrix:
    """Assemble a matrix from (dataset, algorithm, score) triples.

    Row/column order is first-seen.  A ``None`` score registers the pair
    as an explicit gap.  Raises :class:`DuplicateCellError` on a repeated
    pair, :class:`ScoreOutOfRangeError` for values outside [0, 1] (they
    are rejected, never clamped), and :class:`EmptyRowError` if a dataset
    ends up with no present score.

    A :class:`Grid` is checked in bulk: each label once, uniqueness by
    sets, range and empty rows on the ``values`` of the matrix it makes.
    Only when a bulk check fails are its records replayed one by one
    through the loop below, which raises the first error in record
    order, as it does for any other iterable.
    """
    if isinstance(records, Grid):
        matrix = _sound_grid(records)
        if matrix is not None:
            return matrix
    rows: dict[str, dict[str, Score]] = {}   # dataset -> {algorithm: score}
    algorithms: dict[str, None] = {}         # insertion-ordered set
    for dataset, algorithm, score in records:
        # each label is checked when first seen; an unhashable one fails
        # the lookup with TypeError, then the check
        try:
            row = rows[dataset]
        except (KeyError, TypeError):
            row = rows[_check_label(dataset, "dataset")] = {}
        try:
            algorithms[algorithm]
        except (KeyError, TypeError):
            algorithms[_check_label(algorithm, "algorithm")] = None
        if algorithm in row:
            raise DuplicateCellError(
                f"duplicate cell for dataset {dataset!r}, algorithm {algorithm!r}")
        if score is not None:
            score = float(score)
            if not (0.0 <= score <= 1.0):  # also rejects NaN
                raise ScoreOutOfRangeError(
                    f"score {score!r} for ({dataset!r}, {algorithm!r}) "
                    "is outside [0, 1]")
        row[algorithm] = score

    cells = []
    for d, row in rows.items():
        cell_row = tuple(map(row.get, algorithms))
        if cell_row.count(None) == len(cell_row):
            raise EmptyRowError(f"dataset {d!r} has no present scores")
        cells.append(cell_row)
    return PerformanceMatrix(tuple(algorithms), tuple(rows), tuple(cells))
