"""Performance matrix model: datasets x algorithms with first-class gaps.

Every score is an nDCG-style value in [0, 1] or ``None`` for a result that
was never produced (run killed, algorithm inapplicable, ...).  Gaps are kept
explicit instead of being imputed or clamped so downstream consumers can
decide how to treat them.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

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
    of row completeness and of the float view; both are cached, read-only.
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

    def is_complete(self, dataset: str) -> bool:
        return bool(self.complete[self.dataset_index(dataset)])


def _check_label(label: str, kind: str) -> str:
    if not isinstance(label, str) or not label or label != label.strip():
        raise InvalidLabelError(f"bad {kind} name {label!r}: must be non-empty "
                                "with no surrounding whitespace")
    return label


def build_matrix(records: Iterable[tuple[str, str, Score]]) -> PerformanceMatrix:
    """Assemble a matrix from (dataset, algorithm, score) triples.

    Row/column order is first-seen.  A ``None`` score registers the pair
    as an explicit gap.  Raises :class:`DuplicateCellError` on a repeated
    pair, :class:`ScoreOutOfRangeError` for values outside [0, 1] (they
    are rejected, never clamped), and :class:`EmptyRowError` if a dataset
    ends up with no present score.
    """
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
