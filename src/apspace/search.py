"""Subset search: which k datasets jointly cover the space best (or worst).

Candidates are always drawn from the complete rows only — a dataset with
a gap has no position in the full space — and are keyed by the *sorted*
dataset names, in whatever order they are enumerated, so results cannot
depend on input row order.
Ties are broken toward the lexicographically smallest name tuple, which
makes every search fully deterministic: candidates are ranked by the key
(sign * score, names), a total order.
"""

import heapq
import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, islice, repeat
from typing import Sequence

import numpy as np

from .core import ApsError, PerformanceMatrix
from .metrics import (DimensionMismatchError, DiversityBreakdown, _check_variant,
                      _evaluate, diversity)

SEARCH_MODES = ("max", "min")

# Candidates per prefix block, at least one prefix: bounds the search's
# working memory.
_BATCH = 1024
# Far above the ~1e-15 gap between block and scalar keys: a candidate
# whose block key is within this of the cut-off is re-scored exactly.
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


def _prefix_blocks(n, size):
    """Every ``combinations(range(n), size)``, in blocks ``(pre, start,
    skip)`` of at most ``_BATCH`` pairs ``(b, j)``, or one prefix:
    ``pre[b] + (j,)`` for ``j >= start`` is a candidate unless ``skip[b,
    j - start]``.  Prefixes come in colex order (by last index, then
    lexicographic), so a block spans one or a few last indices."""
    ends = range(size - 2, n - 1)
    heads = chain.from_iterable(combinations(range(last), size - 2)
                                for last in ends)
    lasts = chain.from_iterable(repeat(last, math.comb(last, size - 2))
                                for last in ends)
    for first in lasts:
        count = max(1, _BATCH // (n - 1 - first))
        last = np.fromiter(chain((first,), islice(lasts, count - 1)),
                           np.intp)
        head = np.fromiter(chain.from_iterable(islice(heads, len(last))),
                           np.intp).reshape(len(last), size - 2)
        yield (np.column_stack([head, last]), first + 1,
               np.arange(first + 1, n) <= last[:, None])


def _block_keyer(P, n_axes, variant, sign):
    """Return ``keys(pre, start)``: the ``B x (n - start)`` keys ``sign *
    score`` of every ``pre[b] + (j,)`` with ``j >= start``, by the formula
    of ``metrics._evaluate`` over the points ``P``.  Each prefix's
    bounding box and its sums ``S1``/``S2`` of distances and squared
    distances are computed once for all its extensions; the distance
    variance is ``S2/m - (S1/m)**2``, clipped at 0."""
    D = np.zeros((len(P), len(P)))
    for col in P.T:  # one n x n temporary per axis, not n x n x axes
        D += (col[:, None] - col[None, :]) ** 2
    np.sqrt(D, out=D)
    PT = P.T.copy()

    def keys(pre, start):
        cols = pre.T
        m = math.comb(len(cols) + 1, 2)
        inner = D[cols[:, None], cols]  # each prefix pair twice
        outer = D[cols, start:]
        s1 = inner.sum(axis=(0, 1))[:, None] / 2 + outer.sum(axis=0)
        outer *= outer
        s2 = (inner * inner).sum(axis=(0, 1))[:, None] / 2 + outer.sum(axis=0)
        var_d = np.maximum(s2 / m - (s1 / m) ** 2, 0.0)
        box = PT[:, cols]
        ends = PT[:, None, start:]
        span = np.maximum(box.max(axis=1)[..., None], ends)
        span -= np.minimum(box.min(axis=1)[..., None], ends)
        vol = span.prod(axis=0)
        coverage = (np.sqrt(vol) if variant == "literal-sqrt"
                    else vol ** (1.0 / n_axes))
        return sign * (1.0 - var_d / (n_axes / 4.0)) * coverage

    return keys


def _bounded_blocks(Q, size, variant, cut):
    """Blocks, as :func:`_prefix_blocks` gives them, of the size-subsets
    of the rows of ``Q`` that the max-mode bound cannot rule out.

    The factor ``1 - Var(D)/(n/4)`` of a score lies in [0, 1], so a
    subset scores at most the coverage of its bounding box.  Every
    completion of a prefix, whose other members come after the prefix's
    last row, therefore scores at most the coverage of the box of the
    prefix and all those rows.  A prefix, at any depth, whose bound key
    ``-coverage`` lies more than ``_TIE_TOL`` above ``cut()``, the
    running cut-off key, is dropped with all its completions.

    Prefixes grow depth-first, at most ``_BATCH // n`` at a time.  Those
    of ``size - 1`` rows gather until there are that many, then go out
    by last row in blocks of about ``_BATCH`` candidates.  So working
    memory does not grow with the number of candidates."""
    n, n_axes = Q.shape
    tail_lo = np.minimum.accumulate(Q[::-1])[::-1]  # box of rows j..n-1
    tail_hi = np.maximum.accumulate(Q[::-1])[::-1]
    width = max(1, _BATCH // n)
    leaves = []  # (prefixes, bound keys) of size - 1 rows, not yet out

    def flush():
        pre, bound = (np.concatenate(part) for part in zip(*leaves))
        leaves.clear()
        by_last = np.argsort(pre[:, -1], kind="stable")
        pre, bound = pre[by_last], bound[by_last]
        at = 0
        while at < len(pre):
            stop = at + max(1, _BATCH // (n - 1 - pre[at, -1]))
            part = pre[at:stop][bound[at:stop] <= cut() + _TIE_TOL]
            at = stop
            if len(part):
                start = part[0, -1] + 1
                yield part, start, np.arange(start, n) <= part[:, -1:]

    def grow(pre, lo, hi):
        depth = pre.shape[1]
        last = pre[:, -1] if depth else np.full(1, -1)
        j = np.arange(last.min() + 1, n - size + depth + 1)
        vol = (np.maximum(hi[:, None], tail_hi[j])
               - np.minimum(lo[:, None], tail_lo[j])).prod(axis=2)
        bound = -(np.sqrt(vol) if variant == "literal-sqrt"
                  else vol ** (1.0 / n_axes))
        b, w = np.nonzero((j > last[:, None]) & (bound <= cut() + _TIE_TOL))
        pre, bound = np.column_stack([pre[b], j[w]]), bound[b, w]
        if depth + 2 == size:
            leaves.append((pre, bound))
            if sum(len(part) for part, _ in leaves) >= width:
                yield from flush()
            return
        row = Q[j[w]]
        lo, hi = np.minimum(lo[b], row), np.maximum(hi[b], row)
        for at in range(0, len(pre), width):
            keep = bound[at:at + width] <= cut() + _TIE_TOL
            if keep.any():
                yield from grow(pre[at:at + width][keep],
                                lo[at:at + width][keep],
                                hi[at:at + width][keep])

    yield from grow(np.empty((1, 0), np.intp), np.full((1, n_axes), np.inf),
                    np.full((1, n_axes), -np.inf))
    if leaves:
        yield from flush()


def _far_first(P):
    """Row order for :func:`_bounded_blocks`: farthest from the centroid
    first (squared distances, summed per row without BLAS; stable), so
    the first blocks hold extreme points and tail boxes shrink fast."""
    return np.argsort(-((P - P.mean(axis=0)) ** 2).sum(axis=1),
                      kind="stable")


def _ranker(P, n_axes, variant, sign, order=None):
    """Return ``top(blocks, top_k)``: the ``top_k`` smallest ``(key,
    score)`` of :func:`_keyed` over every candidate of ``blocks``, as
    :func:`_prefix_blocks` gives them, over ``P``, the points of the
    sorted names.  With ``order``, blocks index the rows of
    ``P[order]``, and each candidate is mapped back to ranks in the
    sorted names.  ``blocks`` may also be a function of ``cut()``, the
    running cut-off key (``math.inf`` until ``top_k`` are kept), that
    returns the blocks.

    :func:`_block_keyer` sums in another order than the scalar code, so
    its keys can differ from the scalar ones in the last bits.  A
    candidate whose key lies more than ``_TIE_TOL`` above a cut-off (the
    ``top_k``-th key of its block, or the worst exact key kept so far)
    is beaten outright by ``top_k`` others; every other candidate is
    re-scored by :func:`_keyed` and merged in ``(sign * score, names)``
    order, so scores, ties and near-ties come out exactly as the scalar
    search gives them.  A candidate whose box is flat on some axis needs
    no re-score: its coverage is exactly 0, and its factor is positive
    (its distances are at most ``sqrt(n_axes - 1)``), so it scores 0.0.
    """
    rows = P.tolist()
    rank = np.arange(len(P)) if order is None else order
    keys_of = _block_keyer(P[rank], n_axes, variant, sign)

    def top(blocks, top_k):
        best = []

        def worst():
            return best[-1][0][0] if len(best) == top_k else math.inf

        if callable(blocks):
            blocks = blocks(worst)
        for pre, start, skip in blocks:
            keys = keys_of(pre, start)
            keys[skip] = math.inf
            cut = worst()
            if keys.size > top_k:
                cut = min(cut, np.partition(keys, top_k - 1,
                                            axis=None)[top_k - 1])
            # real keys are finite, skipped ones are not
            bound = min(cut + _TIE_TOL, sys.float_info.max)
            b, w = np.nonzero(keys <= bound)
            if not len(b):
                continue
            idx = np.sort(rank[np.column_stack([pre[b], start + w])], axis=1)
            box = P[idx]
            flat = (box.max(axis=1) == box.min(axis=1)).any(axis=1)
            best = heapq.nsmallest(top_k, best + [
                ((sign * 0.0, tuple(i)), 0.0) if zero
                else _keyed(tuple(i), rows, n_axes, variant, sign)
                for i, zero in zip(idx.tolist(), flat.tolist())],
                key=lambda item: item[0])
        return best

    return top


def _prepare(matrix: PerformanceMatrix, size: int, mode: str, variant: str,
             extend: SearchResult | None = None):
    """Check a search's arguments; return the complete rows' names,
    sorted, their points in that order, and :func:`_ranker` over those
    points as a function of its ``order``.  ``extend`` is a greedy
    result to grow: same mode and variant, no larger than ``size``, over
    complete rows of ``matrix``, with the greedy count for its size."""
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
    names = [matrix.datasets[i] for i in rows]
    if extend is not None:
        if (extend.mode, extend.variant) != (mode, variant):
            raise ValueError(
                f"cannot extend a {extend.mode}/{extend.variant} result in "
                f"a {mode}/{variant} search")
        if extend.size > size:
            raise ValueError(f"cannot extend a size-{extend.size} result "
                             f"to size {size}")
        if not set(extend.best.datasets) <= set(names):
            raise ValueError("the result to extend names datasets that are "
                             "not complete rows of this matrix")
        if extend.candidates_evaluated != _greedy_count(len(names),
                                                        extend.size):
            raise ValueError("the result to extend is not a greedy result "
                             "over this matrix's complete rows")
    sign = -1.0 if mode == "max" else 1.0
    points = matrix.values[rows]
    return (names, points,
            partial(_ranker, points, matrix.n_algorithms, variant, sign))


def _greedy_count(n: int, size: int) -> int:
    return math.comb(n, 2) + sum(n - s for s in range(2, size))


def exhaustive_search(matrix: PerformanceMatrix, size: int, mode: str = "max",
                      top_k: int = 1,
                      variant: str = "nth-root") -> SearchResult:
    """The top k size-subsets of the complete rows, exactly.

    ``mode="max"`` ranks high scores first, ``"min"`` low scores first;
    either way ties fall to the lexicographically smaller name tuple.
    Min mode scores every subset.  Max mode, for subsets of at most
    half the rows, enumerates the rows farthest from the centroid first
    and skips every subset that the coverage bound of
    :func:`_bounded_blocks` rules out.  Larger subsets are scored in
    full: their prefix tree holds more nodes than there are candidates.
    ``candidates_evaluated`` is C(n, k) either way.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    names, points, ranker = _prepare(matrix, size, mode, variant)
    if mode == "max" and 2 * size <= len(names):
        order = _far_first(points)
        best = ranker(order)(
            partial(_bounded_blocks, points[order], size, variant), top_k)
    else:
        best = ranker()(_prefix_blocks(len(names), size), top_k)
    top = tuple(Selection(datasets=tuple(names[i] for i in idx), score=score,
                          rank=rank)
                for rank, ((_, idx), score) in enumerate(best, 1))
    return SearchResult(mode=mode, size=size, variant=variant,
                        candidates_evaluated=math.comb(len(names), size),
                        top=top)


def greedy_search(matrix: PerformanceMatrix, size: int, mode: str = "max",
                  variant: str = "nth-root",
                  extend: SearchResult | None = None) -> SearchResult:
    """Build one subset incrementally: best pair, then best addition.

    Scores every pair once, C(n, 2) candidates, then the n - s rows
    outside the subset at each addition, for instances where the
    exhaustive scan is unaffordable.  With ``extend``, a result this
    function returned for the same matrix, mode and variant and a size
    no larger, the search starts from that subset and runs only the
    remaining additions; the result is the one a fresh search gives.
    No optimality guarantee; on the bundled fixture it lands within a
    few percent of the true optimum in max mode.  Same determinism
    rules as the exhaustive search.
    """
    names, _, ranker = _prepare(matrix, size, mode, variant, extend)
    top_of = ranker()
    n = len(names)
    if extend is None:
        [((_, subset), score)] = top_of(_prefix_blocks(n, 2), 1)
    else:
        subset = tuple(map(names.index, extend.best.datasets))
        score = extend.best.score
    while len(subset) < size:
        skip = np.isin(np.arange(n), subset)[None]
        [((_, subset), score)] = top_of([(np.array([subset]), 0, skip)], 1)
    top = (Selection(tuple(names[i] for i in subset), score, rank=1),)
    return SearchResult(mode=mode, size=size, variant=variant,
                        candidates_evaluated=_greedy_count(n, size), top=top)
