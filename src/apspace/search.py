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
from itertools import chain, combinations, islice
from typing import Sequence

import numpy as np

from .core import ApsError, PerformanceMatrix
from .metrics import (DimensionMismatchError, DiversityBreakdown, _check_variant,
                      _evaluate, diversity)

SEARCH_MODES = ("max", "min")

# Candidates scored per numpy batch: bounds the search's working memory.
_BATCH = 1024
# Far above the ~1e-15 gap between batched and scalar scores: a candidate
# whose batched key is within this of the cut-off is re-scored exactly.
_TIE_TOL = 1e-9


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
    for name in names:
        if not matrix.is_complete(name):  # raises UnknownDatasetError
            raise IncompleteDatasetError(
                f"dataset {name!r} has missing scores and no position "
                "in the full space")
    rows = matrix.values[[matrix.dataset_index(d) for d in names]].tolist()
    return diversity(rows, variant=variant, datasets=names)


def _keyed(idx, rows, n_axes, variant, sign):
    """Rank key ``(sign * score, idx)`` of one ascending tuple of indices
    into the sorted names, and its score.  Such tuples order exactly as
    the name tuples they stand for."""
    score = _evaluate([rows[i] for i in idx], n_axes, variant)[5]
    return (sign * score, idx), score


def _index_batches(n, size):
    """Every ``combinations(range(n), size)``, in order, as ``B x size``
    arrays of at most ``_BATCH`` rows; never all of them at once."""
    combos = combinations(range(n), size)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(combos, _BATCH)),
                           dtype=np.intp)
        if not flat.size:
            return
        yield flat.reshape(-1, size)


def _ranker(P, n_axes, variant, sign):
    """Return ``top(batches, top_k)``: the ``top_k`` smallest ``(key,
    score)`` of :func:`_keyed` over every row of ``batches``, ``B x k``
    arrays of indices into ``P``, the points of the sorted names.

    Rows are scored with numpy, the formula of ``metrics._evaluate`` over
    a distance matrix computed once.  numpy reduces in another order, so
    those scores can differ from the scalar ones in the last bits.  A row
    whose batched key lies more than ``_TIE_TOL`` above a cut-off (the
    ``top_k``-th batched key of its batch, or the worst exact key kept so
    far) is beaten outright by ``top_k`` others; every other row is
    re-scored by :func:`_keyed` and merged in ``(sign * score, names)``
    order, so scores, ties and near-ties come out exactly as the scalar
    search gives them.
    """
    rows = P.tolist()
    D = np.zeros((len(P), len(P)))
    for col in P.T:  # one n x n temporary per axis, not n x n x axes
        D += (col[:, None] - col[None, :]) ** 2
    np.sqrt(D, out=D)

    def batch_keys(idx):
        i, j = np.triu_indices(idx.shape[1], 1)
        var_d = D[idx[:, i], idx[:, j]].var(axis=1)
        rows = P[idx]
        vol = (rows.max(axis=1) - rows.min(axis=1)).prod(axis=1)
        coverage = (np.sqrt(vol) if variant == "literal-sqrt"
                    else vol ** (1.0 / n_axes))
        return sign * (1.0 - var_d / (n_axes / 4.0)) * coverage

    def top(batches, top_k):
        best = []
        for idx in batches:
            keys = batch_keys(idx)
            cut = (np.partition(keys, top_k - 1)[top_k - 1]
                   if len(keys) > top_k else math.inf)
            if len(best) == top_k:
                cut = min(cut, best[-1][0][0])
            near = idx[keys <= cut + _TIE_TOL].tolist()
            best = heapq.nsmallest(
                top_k, best + [_keyed(tuple(row), rows, n_axes, variant, sign)
                               for row in near],
                key=lambda item: item[0])
        return best

    return top


def _prepare(matrix: PerformanceMatrix, size: int, mode: str, variant: str):
    """Check a search's arguments; return the complete rows' names,
    sorted, and the :func:`_ranker` over their points in that order."""
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    _check_variant(variant)
    if matrix.n_algorithms < 2:
        raise DimensionMismatchError(
            "search needs at least 2 algorithm axes")
    rows = sorted(np.flatnonzero(matrix.complete).tolist(),
                  key=matrix.datasets.__getitem__)
    if not rows:
        raise NoCompleteRowsError("no complete rows to search over")
    if size < 2:
        raise InvalidSelectionError(f"subset size must be >= 2, got {size}")
    if size > len(rows):
        raise SizeTooLargeError(
            f"subset size {size} exceeds the {len(rows)} complete rows")
    sign = -1.0 if mode == "max" else 1.0
    return ([matrix.datasets[i] for i in rows],
            _ranker(matrix.values[rows], matrix.n_algorithms, variant, sign))


def exhaustive_search(matrix: PerformanceMatrix, size: int, mode: str = "max",
                      top_k: int = 1,
                      variant: str = "nth-root") -> SearchResult:
    """Score every size-subset of the complete rows; return the top k.

    ``mode="max"`` ranks high scores first, ``"min"`` low scores first;
    either way ties fall to the lexicographically smaller name tuple.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    names, top_of = _prepare(matrix, size, mode, variant)
    best = top_of(_index_batches(len(names), size), top_k)
    top = tuple(Selection(datasets=tuple(names[i] for i in idx), score=score,
                          rank=rank)
                for rank, ((_, idx), score) in enumerate(best, 1))
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
    names, top_of = _prepare(matrix, size, mode, variant)
    n = len(names)
    [((_, subset), score)] = top_of(_index_batches(n, 2), 1)
    evaluated = math.comb(n, 2)
    while len(subset) < size:
        rest = [i for i in range(n) if i not in subset]
        batch = np.sort(np.array([subset + (i,) for i in rest]), axis=1)
        [((_, subset), score)] = top_of([batch], 1)
        evaluated += len(rest)
    top = (Selection(datasets=tuple(names[i] for i in subset), score=score,
                     rank=1),)
    return SearchResult(mode=mode, size=size, variant=variant,
                        candidates_evaluated=evaluated, top=top)
