"""Scalar metrics over performance rows and spatial metrics over point sets.

Datasets live in an n-dimensional space whose axes are the algorithms'
scores.  Difficulty and Variance summarize one row; Diversity summarizes
how well a *set* of rows spreads through that space.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import ApsError, PerformanceMatrix, Score

DIFFICULTY_ORIENTATIONS = ("one-minus-mean", "raw-mean")
DIVERSITY_VARIANTS = ("nth-root", "literal-sqrt")


class NoDataError(ApsError):
    """A metric was asked for on a row with no present scores."""


class TooFewPointsError(ApsError):
    """Pairwise/spread computations need at least two points."""


class IncompletePointError(ApsError):
    """A point has a missing coordinate and cannot be placed in the space."""


class DimensionMismatchError(ApsError):
    """Points do not share one dimensionality of at least two axes."""


def difficulty(row: Sequence[Score], orientation: str = "one-minus-mean") -> float:
    """How hard a dataset is: one minus the mean of its present scores.

    Higher means harder (all algorithms scored low).  ``orientation=
    "raw-mean"`` returns the plain mean instead, for consumers who want
    the unflipped quantity.  Missing cells are simply left out of the
    mean; a row with no present score raises :class:`NoDataError`.
    """
    if orientation not in DIFFICULTY_ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    present = [v for v in row if v is not None]
    if not present:
        raise NoDataError("difficulty needs at least one present score")
    mean = sum(present) / len(present)
    return mean if orientation == "raw-mean" else 1.0 - mean


def variance(row: Sequence[Score]) -> float | None:
    """Mean absolute pairwise gap between the present scores of one row.

    Measures how much algorithms disagree on a dataset.  Defined only
    when at least two scores are present; returns ``None`` otherwise
    (undefined, not zero).  Bounded by [0, 1] for scores in [0, 1].
    """
    present = [v for v in row if v is not None]
    if len(present) < 2:
        return None
    gaps = [abs(a - b) for a, b in combinations(present, 2)]
    return sum(gaps) / len(gaps)


def _check_points(points: Sequence[Sequence[float]],
                  min_axes: int = 1) -> int:
    """Shared validation for point sets; returns the dimensionality."""
    if len(points) < 2:
        raise TooFewPointsError(
            f"need at least 2 points, got {len(points)}")
    n = len(points[0])
    for p in points:
        if len(p) != n:
            raise DimensionMismatchError(
                f"points of length {len(p)} and {n} cannot share a space")
        if any(v is None for v in p):
            raise IncompletePointError(
                "point has a missing coordinate; drop or impute it first")
    if n < min_axes:
        raise DimensionMismatchError(
            f"need at least {min_axes} axes, got {n}")
    return n


def pairwise_distances(points: Sequence[Sequence[float]]) -> list[float]:
    """Euclidean distance for every unordered pair, in (i, j) i<j order."""
    _check_points(points)
    return [math.dist(points[i], points[j])
            for i, j in combinations(range(len(points)), 2)]


@dataclass(frozen=True)
class DiversityBreakdown:
    """Diversity score with every intermediate used to produce it."""

    datasets: tuple[str, ...] | None
    pairwise: tuple[float, ...]
    mean_distance: float
    distance_variance: float
    max_variance: float
    axis_ranges: tuple[float, ...]
    volume: float
    variant: str
    score: float


def _evaluate(vecs: Sequence[Sequence[float]], n_axes: int, variant: str):
    """Core diversity arithmetic, single code path for all callers.

    No validation: ``vecs`` must be >= 2 complete rows of length
    ``n_axes``.  Returns (pairwise, mean, distance variance, ranges,
    volume, score).
    """
    dists = [math.dist(vecs[i], vecs[j])
             for i, j in combinations(range(len(vecs)), 2)]
    mu = sum(dists) / len(dists)
    var_d = sum((d - mu) ** 2 for d in dists) / len(dists)
    ranges = [max(v[j] for v in vecs) - min(v[j] for v in vecs)
              for j in range(n_axes)]
    vol = math.prod(ranges)
    coverage = math.sqrt(vol) if variant == "literal-sqrt" else vol ** (1.0 / n_axes)
    score = (1.0 - var_d / (n_axes / 4.0)) * coverage
    return dists, mu, var_d, ranges, vol, score


def diversity(rows: Sequence[Sequence[float]], variant: str = "nth-root",
              datasets: Sequence[str] | None = None) -> DiversityBreakdown:
    """Score how evenly a set of complete rows spans the space.

    The score is ``(1 - Var(D) / (n/4)) * coverage`` where ``D`` is the
    set of pairwise Euclidean distances, ``Var`` is the population
    variance, ``n/4`` is the variance ceiling for n axes with scores in
    [0, 1], and coverage is the nth root of the bounding-volume product
    (per-axis range).  ``variant="literal-sqrt"`` takes a square root of
    the volume regardless of n instead.  Higher is more diverse; two
    coincident points score exactly 0.
    """
    if variant not in DIVERSITY_VARIANTS:
        raise ValueError(f"unknown diversity variant {variant!r}")
    n = _check_points(rows, min_axes=2)
    dists, mu, var_d, ranges, vol, score = _evaluate(rows, n, variant)
    return DiversityBreakdown(
        datasets=tuple(datasets) if datasets is not None else None,
        pairwise=tuple(dists),
        mean_distance=mu,
        distance_variance=var_d,
        max_variance=n / 4.0,
        axis_ranges=tuple(ranges),
        volume=vol,
        variant=variant,
        score=score,
    )


@dataclass(frozen=True)
class MetricRow:
    dataset: str
    difficulty: float
    variance: float | None
    present_count: int


@dataclass(frozen=True)
class MetricReport:
    """Per-dataset difficulty/variance plus corpus-level aggregates."""

    orientation: str
    rows: tuple[MetricRow, ...]

    def row(self, dataset: str) -> MetricRow:
        for r in self.rows:
            if r.dataset == dataset:
                return r
        raise KeyError(dataset)

    def _difficulties(self) -> list[float]:
        if not self.rows:
            raise NoDataError("no datasets to summarize")
        return [r.difficulty for r in self.rows]

    @property
    def mean_difficulty(self) -> float:
        return sum(self._difficulties()) / len(self.rows)

    @property
    def median_difficulty(self) -> float:
        vals = sorted(self._difficulties())
        m = len(vals) // 2
        return vals[m] if len(vals) % 2 else (vals[m - 1] + vals[m]) / 2.0


def metric_table(matrix: PerformanceMatrix,
                 orientation: str = "one-minus-mean") -> MetricReport:
    """Difficulty and Variance for every dataset, in matrix row order."""
    rows = []
    for dataset, row in zip(matrix.datasets, matrix.cells):
        rows.append(MetricRow(
            dataset=dataset,
            difficulty=difficulty(row, orientation),
            variance=variance(row),
            present_count=sum(v is not None for v in row),
        ))
    return MetricReport(orientation=orientation, rows=tuple(rows))
