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
from .metrics import (DIVERSITY_VARIANTS, DimensionMismatchError,
                      DiversityBreakdown, _check_variant, _coverage,
                      _evaluate, _factor, diversity)

# the first value is the default
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
                    variant: str = DIVERSITY_VARIANTS[0]
                    ) -> DiversityBreakdown:
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


def _prefix_blocks(n, size):
    """Every ``combinations(range(n), size)``, in blocks ``(pre, start,
    skip)``: ``pre[b] + (j,)`` for ``j >= start`` is a candidate unless
    ``skip[b, j - start]``.  Prefixes come in colex order (by last index,
    then lexicographic).

    Pairs come in row strips: the rows ``first, first + 1, ...`` as
    one-row prefixes, with ``start = first + 1``, up to ``8 * _BATCH``
    pairs ``(b, j)`` or one row.  A pair key is cheap, so strips are
    longer than other blocks, and it takes one buffer of gaps, reused
    on every axis (see :func:`_block_keyer`): scoring a strip holds a
    few arrays of at most ``max(8 * _BATCH, n)`` floats, 64 KB each
    below 8,193 rows, whatever the axis count.  Larger prefixes come in
    blocks of at most ``_BATCH`` pairs ``(b, j)``, or one prefix,
    spanning one or a few last indices."""
    if size == 2:
        first = 0
        while first < n - 1:
            stop = min(n - 1, first + max(1, 8 * _BATCH // (n - 1 - first)))
            rows = np.arange(first, stop)[:, None]
            yield rows, first + 1, np.arange(first + 1, n) <= rows
            first = stop
        return
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


def _distances(rows, PT):
    """Distances from each of the points ``rows`` to every point of
    ``PT``, the points as columns; each sums its squared gaps in axis
    order, so a distance has the same bits whichever rows ask for it."""
    out = np.zeros((len(rows), PT.shape[1]))
    for axis, col in enumerate(PT):  # one rows x n temporary per axis
        out += (rows[:, axis, None] - col[None, :]) ** 2
    return np.sqrt(out, out=out)


def _block_keyer(P, variant, sign, full=None):
    """Return ``keys(pre, start)``: the ``B x (n - start)`` keys ``sign *
    score`` of every ``pre[b] + (j,)`` with ``j >= start`` over the points
    ``P``, by ``metrics._factor`` and ``metrics._coverage``.  Each prefix's
    bounding box and its sums ``S1``/``S2`` of distances and squared
    distances are computed once for all its extensions; the distance
    variance is ``S2/m - (S1/m)**2``, clipped at 0.

    A block reads only the distances it needs.  A pair block (prefixes
    of one row, a row strip of :func:`_prefix_blocks`) reads none: one
    distance has variance exactly 0, so its key is ``sign * coverage``.
    The box of two points spans ``|x - y|`` on each axis, the bits of
    ``max - min``.  The volume multiplies the signed gaps ``x - y`` axis
    by axis, in the order of the scalar product, through one reused
    buffer, then takes one ``abs``: rounding does not depend on the
    sign, so ``|a * b|`` is the float ``|a| * |b|``, and the key is the
    bits the formula gives; it needs two ``B x (n - start)`` arrays.
    Other blocks read the n x n distance matrix ``full`` of
    :func:`_distances`, which every exhaustive search above pairs passes
    in; without it, as in greedy's addition step, a block computes its
    prefixes' own rows of distances, ``(k - 1) x n`` for one prefix.
    Every distance sums the same terms in axis order, so the keys do not
    depend on which of these paths computed them."""
    n_axes = P.shape[1]
    PT = P.T.copy()

    def keys(pre, start):
        cols = pre.T
        if len(cols) == 1:  # a pair's box spans |x - y| on each axis
            vol = PT[0][pre] - PT[0][start:]
            span = np.empty_like(vol)
            for col in PT[1:]:  # in axis order, as the scalar product runs
                vol *= np.subtract(col[pre], col[start:], out=span)
            np.abs(vol, out=vol)
            return sign * _coverage(vol, n_axes, variant)
        box = PT[:, cols]
        ends = PT[:, None, start:]
        span = np.maximum(box.max(axis=1)[..., None], ends)
        span -= np.minimum(box.min(axis=1)[..., None], ends)
        coverage = _coverage(span.prod(axis=0), n_axes, variant)
        if full is None:  # row at[r, b] of D: point r of prefix b
            D, at = _distances(P[pre.ravel()], PT), np.arange(pre.size)
            at = at.reshape(pre.shape).T
        else:
            D, at = full, cols
        m = math.comb(len(cols) + 1, 2)
        inner = D[at[:, None], cols]  # each prefix pair twice
        outer = D[at, start:]
        s1 = inner.sum(axis=(0, 1))[:, None] / 2 + outer.sum(axis=0)
        outer *= outer
        s2 = (inner * inner).sum(axis=(0, 1))[:, None] / 2 + outer.sum(axis=0)
        var_d = np.maximum(s2 / m - (s1 / m) ** 2, 0.0)
        return sign * _factor(var_d, n_axes) * coverage

    return keys


def _bounded_blocks(Q, size, variant, D, cut):
    """Blocks, as :func:`_prefix_blocks` gives them, of the size-subsets
    of the rows of ``Q`` that the max-mode bound cannot rule out; the
    search walks this tree for sizes 3 up to half the rows.  ``D`` is
    the distance matrix of ``Q`` from :func:`_distances`.

    A subset T of k rows scores ``metrics._factor`` of ``Var(D_T)``
    times ``metrics._coverage`` of its box volume.  Every completion of
    a prefix S, whose other members come after the prefix's last row,
    has a coverage of at most that of the box of the prefix and all
    those rows.  S fixes C(d, 2) of T's C(k, 2) distances, and by the
    law of total variance ``Var(D_T) >= C(d,2)/C(k,2) * Var(D_S)``; the
    factor falls as the variance grows, so T's is at most its value at
    that lower bound.  A score
    is therefore at most the box's coverage times that factor bound
    clipped at 0; ``Var(D_S)`` is ``S2/m - (S1/m)**2`` from the sums
    ``S1``/``S2`` of the m = C(d, 2) distances and their squares, which
    each prefix carries down the walk as it carries its box.  A prefix,
    at any depth, whose bound key ``-bound`` lies more than ``_TIE_TOL``
    above ``cut()``, the running cut-off key, is dropped with all its
    completions.

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

    def grow(pre, lo, hi, s1, s2):
        depth = pre.shape[1]
        last = pre[:, -1] if depth else np.full(1, -1)
        j = np.arange(last.min() + 1, n - size + depth + 1)
        vol = (np.maximum(hi[:, None], tail_hi[j])
               - np.minimum(lo[:, None], tail_lo[j])).prod(axis=2)
        bound = -_coverage(vol, n_axes, variant)
        b, w = divmod(np.flatnonzero((j > last[:, None])
                                    & (bound <= cut() + _TIE_TOL)), len(j))
        bound, s1, s2 = bound[b, w], s1[b], s2[b]
        if size > 3:  # the sums of a prefix that reaches three rows
            gaps = D[pre[b], j[w, None]]  # the new row to the prefix's rows
            s1 += gaps.sum(axis=1)
            s2 += (gaps * gaps).sum(axis=1)
        if depth >= 2:  # a prefix of three rows or more
            m = math.comb(depth + 1, 2)
            var_d = s2 / m - (s1 / m) ** 2
            bound *= np.maximum(
                _factor(var_d * (m / math.comb(size, 2)), n_axes), 0.0)
            keep = np.flatnonzero(bound <= cut() + _TIE_TOL)
            b, w, bound = b[keep], w[keep], bound[keep]
            s1, s2 = s1[keep], s2[keep]
        pre = np.column_stack([pre[b], j[w]])
        if depth + 2 == size:
            leaves.append((pre, bound))
            if sum(len(part) for part, _ in leaves) >= width:
                yield from flush()
            return
        row = Q[j[w]]
        parts = (pre, np.minimum(lo[b], row), np.maximum(hi[b], row), s1, s2)
        for at in range(0, len(pre), width):
            keep = bound[at:at + width] <= cut() + _TIE_TOL
            if keep.any():
                yield from grow(*(part[at:at + width][keep]
                                  for part in parts))

    yield from grow(np.empty((1, 0), np.intp), np.full((1, n_axes), np.inf),
                    np.full((1, n_axes), -np.inf), np.zeros(1), np.zeros(1))
    if leaves:
        yield from flush()


def _far_first(P):
    """Row order for :func:`_bounded_blocks`: farthest from the centroid
    first (squared distances, summed per row without BLAS; stable), so
    the first blocks hold extreme points and tail boxes shrink fast."""
    return np.argsort(-((P - P.mean(axis=0)) ** 2).sum(axis=1),
                      kind="stable")


def _seed_cut(Q, variant, sign, full, size, top_k):
    """A cut-off key that ``top_k`` size-subsets of the rows of ``Q``
    already reach, for the walk of :func:`_bounded_blocks` to start
    from; ``full`` is the distance matrix of ``Q`` (see
    :func:`_distances`).  A greedy chain starts at ``Q[0]``, the row
    farthest from the centroid, and adds the row of the best key until
    it holds ``size - 1`` rows; the seed is the ``top_k``-th smallest
    key of its ``n - size + 1`` extensions, or ``math.inf`` if there
    are fewer.  Each step is one :func:`_block_keyer` call, so the seed
    is a block key of real candidates, within about 1e-15 of their
    exact keys and far inside ``_TIE_TOL``."""
    n = len(Q)
    if n - size + 1 < top_k:
        return math.inf
    keys_of = _block_keyer(Q, variant, sign, full)
    chain = [0]
    while True:
        keys = keys_of(np.array([chain]), 0)[0]
        keys[chain] = math.inf
        if len(chain) == size - 1:
            return float(np.partition(keys, top_k - 1)[top_k - 1])
        chain.append(int(np.argmin(keys)))


def _top(P, variant, sign, blocks, top_k, order=None, full=None,
         cut=math.inf):
    """The ``top_k`` smallest ``((sign * score, idx), score)`` over every
    candidate of ``blocks``, as :func:`_prefix_blocks` gives them, where
    ``P`` holds the points of the sorted names and ``idx`` is a
    candidate's ascending tuple of indices into them; such tuples order
    exactly as the name tuples they stand for.  With ``order``, blocks
    index the rows of ``P[order]``, and each candidate is mapped back to
    ranks in the sorted names.  ``blocks`` may also be a function of
    ``cut()``, the running cut-off key, that returns the blocks.  That
    key is the lower of ``cut``, a key that ``top_k`` candidates are
    known to reach (see :func:`_seed_cut`), and the worst exact key kept
    once ``top_k`` are.  ``full``, if given, is the distance matrix of
    the rows the blocks index (see :func:`_block_keyer`).

    :func:`_block_keyer` sums in another order than the scalar code, so
    its keys can differ from the scalar ones in the last bits.  A
    candidate whose key lies more than ``_TIE_TOL`` above a cut-off (the
    ``top_k``-th key of its block, or the running cut-off) is beaten
    outright by ``top_k`` others.  The running cut-off cuts first; only
    when more than ``top_k`` keys of a block pass it are those
    partitioned, and their ``top_k``-th is the block's.  Every
    other candidate is re-scored by ``metrics._evaluate`` on its own
    points and merged in ``(sign * score, names)`` order, so scores,
    ties and near-ties come out exactly as the scalar search gives them.
    A candidate whose box is flat on some axis needs no re-score: its
    coverage is exactly 0, and its factor is positive (its distances are
    at most ``sqrt(n_axes - 1)``), so it scores 0.0.
    """
    n_axes = P.shape[1]
    rank = np.arange(len(P)) if order is None else order
    keys_of = _block_keyer(P if order is None else P[order], variant, sign,
                           full)
    best = []

    def worst():
        return min(best[-1][0][0], cut) if len(best) == top_k else cut

    if callable(blocks):
        blocks = blocks(worst)
    for pre, start, skip in blocks:
        keys = keys_of(pre, start)
        keys[skip] = math.inf
        # real keys are finite, skipped ones are not
        at = np.flatnonzero(keys <= min(worst() + _TIE_TOL,
                                        sys.float_info.max))
        if len(at) > top_k:
            near = keys.ravel()[at]
            at = at[near <= np.partition(near, top_k - 1)[top_k - 1]
                    + _TIE_TOL]
        if not len(at):
            continue
        b, w = divmod(at, keys.shape[1])
        idx = np.sort(rank[np.column_stack([pre[b], start + w])], axis=1)
        box = P[idx]
        flat = (box.max(axis=1) == box.min(axis=1)).any(axis=1)
        for i, vecs, zero in zip(idx.tolist(), box, flat.tolist()):
            score = (0.0 if zero
                     else _evaluate(vecs.tolist(), n_axes, variant)[5])
            best.append(((sign * score, tuple(i)), score))
        best = heapq.nsmallest(top_k, best, key=lambda item: item[0])
    return best


def _prepare(matrix: PerformanceMatrix, size: int, mode: str, variant: str,
             extend: SearchResult | None = None):
    """Check a search's arguments; return the complete rows' names,
    sorted, their read-only points in that order (both cached on the
    matrix), and the sign of the rank key (-1 in max mode, +1 in min
    mode).  ``extend`` is a greedy result to grow: same mode and
    variant, no larger than ``size``, over complete rows of ``matrix``,
    with the greedy count for its size."""
    if mode not in SEARCH_MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    _check_variant(variant)
    if matrix.n_algorithms < 2:
        raise DimensionMismatchError(
            "search needs at least 2 algorithm axes")
    names, points = matrix.complete_points
    if not names:
        raise NoCompleteRowsError("no complete rows to search over")
    if size < 2:
        raise InvalidSelectionError(f"subset size must be >= 2, got {size}")
    if size > len(names):
        raise SizeTooLargeError(
            f"subset size {size} exceeds the {len(names)} complete rows")
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
    return names, points, sign


def _greedy_count(n: int, size: int) -> int:
    return math.comb(n, 2) + sum(n - s for s in range(2, size))


def exhaustive_search(matrix: PerformanceMatrix, size: int,
                      mode: str = SEARCH_MODES[0], top_k: int = 1,
                      variant: str = DIVERSITY_VARIANTS[0]) -> SearchResult:
    """The top k size-subsets of the complete rows, exactly.

    ``mode="max"`` ranks high scores first, ``"min"`` low scores first;
    either way ties fall to the lexicographically smaller name tuple.
    Min mode scores every subset.  Max mode, for sizes 3 up to half the
    rows, enumerates the rows farthest from the centroid first and skips
    every subset that the bound of :func:`_bounded_blocks`, box coverage
    times a cap on the factor from a prefix's distance variance, rules
    out; the walk starts from the cut-off of :func:`_seed_cut`, which
    ``top_k`` subsets of a greedy chain already reach.  Other sizes are
    scored in full: pairs in the row strips of :func:`_prefix_blocks`,
    which cost less than the walk, and sizes above half the rows.  There
    the walk measured faster up to about two thirds of the rows, and
    slower near n, where its prefix tree holds more nodes than there are
    candidates.
    ``candidates_evaluated`` is C(n, k) either way.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    names, points, sign = _prepare(matrix, size, mode, variant)
    order, cut = None, math.inf
    if mode == "max" and 2 < size <= len(names) // 2:
        order = _far_first(points)
    Q = points if order is None else points[order]
    # one distance matrix, read by the walk and the block keyer
    full = _distances(Q, Q.T) if size > 2 else None
    if order is None:
        blocks = _prefix_blocks(len(names), size)
    else:
        blocks = partial(_bounded_blocks, Q, size, variant, full)
        cut = _seed_cut(Q, variant, sign, full, size, top_k)
    best = _top(points, variant, sign, blocks, top_k, order, full, cut)
    top = tuple(Selection(datasets=tuple(names[i] for i in idx), score=score,
                          rank=rank)
                for rank, ((_, idx), score) in enumerate(best, 1))
    return SearchResult(mode=mode, size=size, variant=variant,
                        candidates_evaluated=math.comb(len(names), size),
                        top=top)


def greedy_search(matrix: PerformanceMatrix, size: int,
                  mode: str = SEARCH_MODES[0],
                  variant: str = DIVERSITY_VARIANTS[0],
                  extend: SearchResult | None = None) -> SearchResult:
    """Build one subset incrementally: best pair, then best addition.

    Scores every pair once, C(n, 2) candidates, then the n - s rows
    outside the subset at each addition, for instances where the
    exhaustive scan is unaffordable.  With ``extend``, a result this
    function returned for the same matrix, mode and variant and a size
    no larger, the search starts from that subset and runs only the
    remaining additions; the result is the one a fresh search gives.
    The pair step reads no distances: it scores row strips, each pair's
    volume the product of ``|x - y|`` over the axes.  Each addition
    reads only its subset's rows of distances, so memory grows with n
    times the number of axes, not n².  No optimality guarantee; on the
    bundled fixture it lands within a few percent of the true optimum
    in max mode.  Same determinism rules as the exhaustive search.
    """
    names, points, sign = _prepare(matrix, size, mode, variant, extend)
    n = len(names)
    if extend is None:
        [((_, subset), score)] = _top(points, variant, sign,
                                      _prefix_blocks(n, 2), 1)
    else:
        subset = tuple(map(names.index, extend.best.datasets))
        score = extend.best.score
    while len(subset) < size:
        skip = np.zeros((1, n), bool)
        skip[0, list(subset)] = True
        [((_, subset), score)] = _top(points, variant, sign,
                                      [(np.array([subset]), 0, skip)], 1)
    top = (Selection(tuple(names[i] for i in subset), score, rank=1),)
    return SearchResult(mode=mode, size=size, variant=variant,
                        candidates_evaluated=_greedy_count(n, size), top=top)
