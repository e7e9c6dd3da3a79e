"""Subset search: which k datasets jointly cover the space best (or worst).

Candidates are always drawn from the complete rows only — a dataset with
a gap has no position in the full space — and are enumerated over the
*sorted* dataset names so results cannot depend on input row order.
Ties are broken toward the lexicographically smallest name tuple, which
makes every search fully deterministic: candidates are ranked by the key
(sign * score, names), a total order.
"""

import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import ApsError, PerformanceMatrix
from .metrics import DimensionMismatchError, DiversityBreakdown, _evaluate, diversity

SEARCH_MODES = ("max", "min")


class SizeTooLargeError(ApsError):
    """Requested subset size exceeds the number of complete rows."""


class NoCompleteRowsError(ApsError):
    """The matrix has no complete row, so no candidate exists."""


class IncompleteDatasetError(ApsError):
    """A named dataset has a gap and cannot be scored as a point."""


class InvalidSelectionError(ApsError):
    """The dataset list itself is unusable (duplicates or < 2 names)."""


@dataclass(frozen=True)
class Selection:
    """One scored subset; ``datasets`` is always sorted."""

    datasets: tuple[str, ...]
    score: float
    rank: int


@dataclass(frozen=True)
class SearchResult:
    mode: str
    size: int
    variant: str
    candidates_evaluated: int
    top: tuple[Selection, ...]

    @property
    def best(self) -> Selection:
        return self.top[0]


def score_selection(matrix: PerformanceMatrix, datasets: Sequence[str],
                    variant: str = "nth-root") -> DiversityBreakdown:
    """Diversity of one named subset, with the full breakdown.

    Names are canonicalized (sorted) first, so any ordering of the same
    sets scores identically.  Duplicates and fewer than two names raise
    :class:`InvalidSelectionError`; a dataset with a gap raises
    :class:`IncompleteDatasetError` rather than being silently dropped.
    """
    names = list(datasets)
    if len(names) < 2:
        raise InvalidSelectionError(
            f"a selection needs at least 2 datasets, got {len(names)}")
    if len(set(names)) != len(names):
        raise InvalidSelectionError(f"duplicate dataset names in {names!r}")
    names.sort()
    rows = []
    for name in names:
        row = matrix.row(name)  # raises UnknownDatasetError
        if None in row:
            raise IncompleteDatasetError(
                f"dataset {name!r} has missing scores and no position "
                "in the full space")
        rows.append([float(v) for v in row])
    return diversity(rows, variant=variant, datasets=names)


def _eligible_points(matrix: PerformanceMatrix):
    if matrix.n_algorithms < 2:
        raise DimensionMismatchError(
            "search needs at least 2 algorithm axes")
    names = sorted(d for d in matrix.datasets if matrix.is_complete(d))
    if not names:
        raise NoCompleteRowsError("no complete rows to search over")
    points = {d: tuple(float(v) for v in matrix.row(d)) for d in names}
    return names, points


def _check_size(size: int, n_eligible: int) -> None:
    if size < 2:
        raise InvalidSelectionError(f"subset size must be >= 2, got {size}")
    if size > n_eligible:
        raise SizeTooLargeError(
            f"subset size {size} exceeds the {n_eligible} complete rows")


def _keyed(names, points, n_axes, variant, sign):
    """Rank key ``(sign * score, names)`` of one name tuple, and its score."""
    score = _evaluate([points[d] for d in names], n_axes, variant)[5]
    return (sign * score, names), score


def exhaustive_search(matrix: PerformanceMatrix, size: int, mode: str = "max",
                      top_k: int = 1,
                      variant: str = "nth-root") -> SearchResult:
    """Score every size-subset of the complete rows; return the top k.

    ``mode="max"`` ranks high scores first, ``"min"`` low scores first;
    either way ties fall to the lexicographically smaller name tuple.
    """
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    names, points = _eligible_points(matrix)
    _check_size(size, len(names))
    n_axes = matrix.n_algorithms
    sign = -1.0 if mode == "max" else 1.0
    best = heapq.nsmallest(
        top_k, (_keyed(c, points, n_axes, variant, sign)
                for c in combinations(names, size)),
        key=lambda item: item[0])
    top = tuple(Selection(datasets=names_, score=score, rank=i + 1)
                for i, ((_, names_), score) in enumerate(best))
    return SearchResult(mode=mode, size=size, variant=variant,
                        candidates_evaluated=math.comb(len(names), size),
                        top=top)


def greedy_search(matrix: PerformanceMatrix, size: int, mode: str = "max",
                  variant: str = "nth-root") -> SearchResult:
    """Build one subset incrementally: best pair, then best addition.

    Linear in candidates instead of combinatorial, for instances where
    the exhaustive scan is unaffordable.  No optimality guarantee; on
    the bundled fixture it lands within a few percent of the true
    optimum in max mode.  Same determinism rules as the exhaustive
    search.
    """
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    names, points = _eligible_points(matrix)
    _check_size(size, len(names))
    n_axes = matrix.n_algorithms
    sign = -1.0 if mode == "max" else 1.0
    evaluated = 0
    best_key, best_subset, best_score = None, None, None
    for pair in combinations(names, 2):
        key, score = _keyed(pair, points, n_axes, variant, sign)
        evaluated += 1
        if best_key is None or key < best_key:
            best_key, best_subset, best_score = key, pair, score
    current = list(best_subset)
    current_score = best_score
    while len(current) < size:
        best_key = best_subset = best_score = None
        have = set(current)
        for cand in names:
            if cand in have:
                continue
            subset = tuple(sorted(current + [cand]))
            key, score = _keyed(subset, points, n_axes, variant, sign)
            evaluated += 1
            if best_key is None or key < best_key:
                best_key, best_subset, best_score = key, subset, score
        current = list(best_subset)
        current_score = best_score
    top = (Selection(datasets=tuple(sorted(current)), score=current_score,
                     rank=1),)
    return SearchResult(mode=mode, size=size, variant=variant,
                        candidates_evaluated=evaluated, top=top)
