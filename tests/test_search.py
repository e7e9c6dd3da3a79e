import math
import tracemalloc
from functools import partial
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_matrix, random_matrix
from apspace import search
from apspace.core import UnknownDatasetError, build_matrix
from apspace.metrics import DimensionMismatchError, _evaluate, diversity
from apspace.search import (IncompleteDatasetError, InvalidSelectionError,
                            NoCompleteRowsError, SizeTooLargeError,
                            exhaustive_search, greedy_search, score_selection)

TRIANGLE = {
    "a": [0.0, 0.0],
    "b": [0.9, 0.0],
    "c": [0.0, 0.9],
    "gappy": [0.5, None],
}


# ------------------------------------------------------------ score_selection

def test_score_selection_order_independent(fixture_matrix):
    forward = score_selection(fixture_matrix, ["Food", "Jester"])
    backward = score_selection(fixture_matrix, ["Jester", "Food"])
    assert forward == backward
    assert forward.datasets == ("Food", "Jester")


def test_score_selection_published_quadruple(fixture_matrix):
    out = score_selection(fixture_matrix, [
        "Jester", "Amazon_Arts_Crafts_and_Sewing", "Amazon_Digital_Music",
        "Amazon_Gift_Cards"])
    assert out.score == pytest.approx(0.3825, abs=1e-3)


def test_score_selection_rejects_bad_lists(fixture_matrix):
    with pytest.raises(InvalidSelectionError):
        score_selection(fixture_matrix, ["Jester"])
    with pytest.raises(InvalidSelectionError):
        score_selection(fixture_matrix, ["Jester", "Jester"])
    with pytest.raises(UnknownDatasetError):
        score_selection(fixture_matrix, ["Jester", "NoSuchDataset"])
    with pytest.raises(IncompleteDatasetError):
        score_selection(fixture_matrix, ["Jester", "Epinions"])


# ---------------------------------------------------------- exhaustive search

def test_exhaustive_pair_on_triangle():
    m = make_matrix(TRIANGLE)
    res = exhaustive_search(m, 2, "max")
    assert res.candidates_evaluated == 3  # gappy row is not a candidate
    assert res.best.datasets == ("b", "c")  # the hypotenuse pair
    assert res.best.rank == 1


def test_exhaustive_scores_match_score_selection(fixture_matrix):
    res = exhaustive_search(fixture_matrix, 2, "max", top_k=5)
    for sel in res.top:
        assert sel.score == score_selection(fixture_matrix,
                                            sel.datasets).score


def test_exhaustive_fixture_max_pair(fixture_matrix):
    """Max-mode pairs come in row strips, as in min mode; the bounded
    walk starts at size 3."""
    with mock.patch.object(search, "_bounded_blocks",
                           side_effect=RuntimeError("bounded walk")):
        res = exhaustive_search(fixture_matrix, 2, "max", top_k=3)
        with pytest.raises(RuntimeError, match="bounded walk"):
            exhaustive_search(fixture_matrix, 3, "max", top_k=3)
    assert res.candidates_evaluated == math.comb(39, 2)
    assert [s.datasets for s in res.top] == [
        ("Food", "Jester"),
        ("Jester", "RentTheRunway"),
        ("Amazon_Prime_Pantry", "Jester"),
    ]
    assert res.best.score == pytest.approx(0.4698181335, abs=1e-9)
    assert [s.rank for s in res.top] == [1, 2, 3]


def test_exhaustive_fixture_min_pair_tie_break(fixture_matrix):
    """Three pairs tie at exactly zero; canonical order must pick the
    lexicographically first and keep the other two right behind it."""
    res = exhaustive_search(fixture_matrix, 2, "min", top_k=3)
    assert [s.datasets for s in res.top] == [
        ("FourSquareNYC", "MarketBiasModcloth"),
        ("GoogleLocalAlaska", "MarketBiasModcloth"),
        ("LibraryThing", "RentTheRunway"),
    ]
    assert all(s.score == 0.0 for s in res.top)


def test_exhaustive_top_k_truncation():
    m = make_matrix(TRIANGLE)
    res = exhaustive_search(m, 2, "max", top_k=10)
    assert len(res.top) == 3  # only C(3, 2) candidates exist


def test_exhaustive_input_order_independent(rng):
    m = random_matrix(rng, 9, 3)
    res = exhaustive_search(m, 3, "max", top_k=4)
    # rebuild the same matrix with rows fed in reverse order
    records = [(d, a, m.cells[i][j])
               for i, d in reversed(list(enumerate(m.datasets)))
               for j, a in enumerate(m.algorithms)]
    res2 = exhaustive_search(build_matrix(records), 3, "max", top_k=4)
    assert res == res2


def test_exhaustive_identical_points_tie_break():
    m = make_matrix({n: [0.5, 0.5] for n in ("d", "c", "b", "a")})
    for mode in ("max", "min"):
        res = exhaustive_search(m, 2, mode)
        assert res.best.datasets == ("a", "b")
        assert res.best.score == 0.0


def test_exhaustive_dominates_random_subsets(fixture_matrix, rng):
    best = exhaustive_search(fixture_matrix, 4, "max").best.score
    worst = exhaustive_search(fixture_matrix, 4, "min").best.score
    eligible = sorted(d for d in fixture_matrix.datasets
                      if fixture_matrix.is_complete(d))
    for _ in range(1000):
        pick = list(rng.choice(len(eligible), size=4, replace=False))
        names = [eligible[i] for i in pick]
        score = score_selection(fixture_matrix, names).score
        assert worst <= score <= best


def test_exhaustive_errors():
    m = make_matrix(TRIANGLE)
    with pytest.raises(SizeTooLargeError):
        exhaustive_search(m, 4)  # only 3 complete rows
    with pytest.raises(InvalidSelectionError):
        exhaustive_search(m, 1)
    with pytest.raises(ValueError):
        exhaustive_search(m, 2, mode="median")
    with pytest.raises(ValueError):
        exhaustive_search(m, 2, top_k=0)
    all_gappy = build_matrix([("d1", "a", 0.5), ("d1", "b", None),
                              ("d2", "a", None), ("d2", "b", 0.5)])
    with pytest.raises(NoCompleteRowsError):
        exhaustive_search(all_gappy, 2)
    single_axis = make_matrix({"a": [0.1], "b": [0.2], "c": [0.3]})
    with pytest.raises(DimensionMismatchError):
        exhaustive_search(single_axis, 2)


# -------------------------------------------------------------- greedy search

def test_greedy_seeds_with_the_best_pair(fixture_matrix):
    greedy = greedy_search(fixture_matrix, 2, "max")
    exact = exhaustive_search(fixture_matrix, 2, "max")
    assert greedy.best.datasets == exact.best.datasets
    assert greedy.best.score == exact.best.score
    assert greedy.candidates_evaluated == math.comb(39, 2)


def test_greedy_fixture_quadruple(fixture_matrix):
    res = greedy_search(fixture_matrix, 4, "max")
    assert res.best.datasets == ("Amazon_Magazine_Subscriptions", "Food",
                                 "Jester", "MovieLensLatestSmall")
    assert res.best.score == pytest.approx(0.4434343698, abs=1e-9)
    assert res.candidates_evaluated == math.comb(39, 2) + 37 + 36


def test_greedy_never_beats_exhaustive(fixture_matrix):
    for size in (3, 4):
        g_max = greedy_search(fixture_matrix, size, "max").best.score
        e_max = exhaustive_search(fixture_matrix, size, "max").best.score
        assert g_max <= e_max
        g_min = greedy_search(fixture_matrix, size, "min").best.score
        e_min = exhaustive_search(fixture_matrix, size, "min").best.score
        assert g_min >= e_min


def test_greedy_never_beats_exhaustive_random(rng):
    for _ in range(20):
        m = random_matrix(rng, 8, 3, prefix="r")
        size = int(rng.integers(3, 6))
        for mode in ("max", "min"):
            g = greedy_search(m, size, mode).best.score
            e = exhaustive_search(m, size, mode).best.score
            assert g <= e if mode == "max" else g >= e


def test_greedy_result_shape(fixture_matrix):
    res = greedy_search(fixture_matrix, 3, "min")
    assert len(res.top) == 1
    assert res.best.rank == 1
    assert res.best.datasets == tuple(sorted(res.best.datasets))


def test_greedy_errors():
    m = make_matrix(TRIANGLE)
    with pytest.raises(SizeTooLargeError):
        greedy_search(m, 4)
    with pytest.raises(ValueError):
        greedy_search(m, 2, mode="best")


@pytest.mark.parametrize("search", [exhaustive_search, greedy_search])
def test_searches_reject_unknown_variant(fixture_matrix, search):
    # no silent fallback to the nth-root score
    with pytest.raises(ValueError) as info:
        search(fixture_matrix, 2, variant="bogus")
    assert str(info.value) == "unknown diversity variant 'bogus'"


# ------------------------------------- batched search vs scalar reference

@st.composite
def tied_matrices(draw, drawn=(2, 7), copies=(0, 3)):
    """Small matrices with 1-2 decimal scores and duplicated rows, so
    exact ties occur; dataset names are not in sorted row order.  The
    ``drawn`` and ``copies`` ranges bound how many rows are drawn and
    how many copies of them are added."""
    n_axes = draw(st.integers(2, 4))
    value = st.one_of(st.integers(0, 10).map(lambda v: v / 10),
                      st.integers(0, 100).map(lambda v: v / 100))
    rows = draw(st.lists(st.lists(value, min_size=n_axes, max_size=n_axes),
                         min_size=drawn[0], max_size=drawn[1]))
    rows += [rows[i] for i in draw(st.lists(
        st.integers(0, len(rows) - 1), min_size=copies[0],
        max_size=copies[1]))]
    names = draw(st.permutations([f"d{i:02d}" for i in range(len(rows))]))
    return make_matrix(dict(zip(names, rows)))


def _complete_names(matrix):
    return sorted(d for d in matrix.datasets if matrix.is_complete(d))


def _scalar_key(matrix, names, mode, variant):
    score = score_selection(matrix, names, variant).score
    return (-score if mode == "max" else score, names)


def _scalar_exhaustive(matrix, size, mode, variant, top_k):
    ranked = sorted(_scalar_key(matrix, c, mode, variant)
                    for c in combinations(_complete_names(matrix), size))
    return [(names, score_selection(matrix, names, variant).score)
            for _, names in ranked[:top_k]]


def _unpruned(matrix, size, mode, variant, top_k):
    """``[(datasets, score, rank)]`` of the plain block scan over every
    candidate, with no bound and rows in name order."""
    names = _complete_names(matrix)
    P = matrix.values[[matrix.dataset_index(d) for d in names]]
    top = search._top(P, variant, -1.0 if mode == "max" else 1.0,
                      search._prefix_blocks(len(names), size), top_k)
    return [(tuple(names[i] for i in idx), score, rank)
            for rank, ((_, idx), score) in enumerate(top, 1)]


def _scalar_greedy(matrix, size, mode, variant):
    names = _complete_names(matrix)
    key = partial(_scalar_key, matrix, mode=mode, variant=variant)
    current = min(combinations(names, 2), key=key)
    evaluated = math.comb(len(names), 2)
    while len(current) < size:
        options = [tuple(sorted(current + (d,)))
                   for d in names if d not in current]
        evaluated += len(options)
        current = min(options, key=key)
    return current, score_selection(matrix, current, variant).score, evaluated


@settings(deadline=None)
@given(matrix=tied_matrices(), data=st.data(),
       batch=st.sampled_from([1, 2, 5, search._BATCH]))
def test_exhaustive_matches_scalar_reference(matrix, data, batch):
    """Every rank, name tuple and exact score float equals the scalar
    brute force, whatever the batch size the candidates stream in."""
    size = data.draw(st.integers(2, min(5, len(matrix.datasets))))
    with mock.patch.object(search, "_BATCH", batch):
        for mode in ("max", "min"):
            for variant in ("nth-root", "literal-sqrt"):
                res = exhaustive_search(matrix, size, mode, top_k=3,
                                        variant=variant)
                want = _scalar_exhaustive(matrix, size, mode, variant, 3)
                assert [(s.datasets, s.score) for s in res.top] == want
                assert [s.rank for s in res.top] == list(
                    range(1, len(want) + 1))
                assert res.candidates_evaluated == math.comb(
                    len(matrix.datasets), size)


@settings(deadline=None)
@given(matrix=tied_matrices(drawn=(8, 12), copies=(2, 4)), data=st.data(),
       mode=st.sampled_from(["max", "min"]),
       variant=st.sampled_from(["nth-root", "literal-sqrt"]),
       batch=st.sampled_from([1, 7, search._BATCH]))
def test_bounded_search_matches_unpruned_scan(matrix, data, mode, variant,
                                              batch):
    """With 10-16 rows, the bounded max-mode search prunes after its
    first blocks, from size 4 on by the distance-variance bound too;
    ranks, name tuples, exact score floats and the candidate count still
    equal the scan over every candidate."""
    n = len(matrix.datasets)
    size = data.draw(st.integers(2, min(6, n)))
    top_k = data.draw(st.integers(1, 4))
    with mock.patch.object(search, "_BATCH", batch):
        res = exhaustive_search(matrix, size, mode, top_k=top_k,
                                variant=variant)
        assert [(s.datasets, s.score, s.rank) for s in res.top] == \
            _unpruned(matrix, size, mode, variant, top_k)
    assert res.candidates_evaluated == math.comb(n, size)


def test_bounded_search_matches_unpruned_scan_on_corpus(fixture_matrix):
    for size, count in ((5, 575757), (6, 3262623)):
        res = exhaustive_search(fixture_matrix, size, "max", top_k=3)
        assert res.candidates_evaluated == count
        assert [(s.datasets, s.score, s.rank) for s in res.top] == \
            _unpruned(fixture_matrix, size, "max", "nth-root", 3)


def _assert_seed_is_safe(matrix, size, top_k, variant):
    """The seed of :func:`search._seed_cut`, on the walk's own rows and
    distances, is ``math.inf`` when the chain has fewer than ``top_k``
    extensions and otherwise never below the exact ``top_k``-th key
    (the unpruned scan's ``top_k``-th score, re-scored by the scalar
    formula), up to block-key rounding far inside ``_TIE_TOL``; and the
    seeded search equals the unpruned scan."""
    names = _complete_names(matrix)
    P = matrix.values[[matrix.dataset_index(d) for d in names]]
    Q = P[search._far_first(P)]
    seed = search._seed_cut(Q, variant, -1.0, search._distances(Q, Q.T),
                            size, top_k)
    want = _unpruned(matrix, size, "max", variant, top_k)
    if len(names) - size + 1 < top_k:
        assert seed == math.inf
    else:
        assert seed >= -want[top_k - 1][1] - 1e-12
    res = exhaustive_search(matrix, size, "max", top_k=top_k,
                            variant=variant)
    assert [(s.datasets, s.score, s.rank) for s in res.top] == want


@settings(deadline=None)
@given(matrix=tied_matrices(drawn=(6, 9), copies=(0, 3)), data=st.data(),
       variant=st.sampled_from(["nth-root", "literal-sqrt"]))
def test_seeded_cut_never_prunes_the_top(matrix, data, variant):
    """On 6-12 rows with exact ties, at every walked size 3..n//2 and
    top_k 1..5, the seed cuts no true top-k candidate."""
    size = data.draw(st.integers(3, len(matrix.datasets) // 2))
    _assert_seed_is_safe(matrix, size, data.draw(st.integers(1, 5)), variant)


_SIX = {f"d{i}": [i / 10, (i * i % 7) / 10] for i in range(6)}
_IDENTICAL = {f"d{i:02d}": [0.25, 0.75] for i in range(40)}


@pytest.mark.parametrize("variant", ["nth-root", "literal-sqrt"])
@pytest.mark.parametrize("rows, size, top_k",
                         [(_SIX, 3, 5), (_IDENTICAL, 3, 5),
                          (_IDENTICAL, 4, 3)],
                         ids=["six-no-seed", "identical-k3", "identical-k4"])
def test_seeded_cut_edge_cases(variant, rows, size, top_k):
    """Six rows at size 3 leave the chain 4 extensions, fewer than top-5,
    so there is no seed; on 40 identical rows every key ties the seed."""
    _assert_seed_is_safe(make_matrix(rows), size, top_k, variant)


_points = st.one_of(st.floats(0, 1), st.integers(0, 10).map(lambda v: v / 10))


@given(data=st.data(), size=st.integers(3, 6), n_axes=st.integers(2, 6))
def test_prefix_fixes_a_share_of_the_distance_variance(data, size, n_axes):
    """The law of total variance behind the bound of
    :func:`search._bounded_blocks`: the C(d, 2) distances among d >= 3
    of k points carry at least their share of the variance of all C(k, 2)
    distances, ``Var(D_T) >= C(d,2)/C(k,2) * Var(D_S)``, up to rounding."""
    rows = data.draw(st.lists(st.lists(_points, min_size=n_axes,
                                       max_size=n_axes),
                              min_size=size, max_size=size))
    d = data.draw(st.integers(3, size))
    whole = diversity(rows).distance_variance
    prefix = diversity(rows[:d]).distance_variance
    assert whole >= math.comb(d, 2) / math.comb(size, 2) * prefix - 1e-12


def _count_block_scored():
    """Patch :func:`search._block_keyer` so every block it scores adds
    its number of keys to the returned list's one entry."""
    keyer, scored = search._block_keyer, [0]

    def counting_keyer(*args):
        keys_of = keyer(*args)

        def keys(pre, start):
            keys = keys_of(pre, start)
            scored[0] += keys.size
            return keys
        return keys
    return mock.patch.object(search, "_block_keyer", counting_keyer), scored


def test_bounded_search_scores_a_fraction_of_the_corpus(fixture_matrix):
    """At k=3 the seeded cut-off leaves under 800 of the 9,139 triples'
    keys to the block keyer (the seed's own keys included), where an
    unseeded walk keys 1,197 while its first block sets the cut-off.
    At k=4 the bound leaves under a quarter of the 82,251 quadruples;
    min mode has no bound and scores all of them.  From k=5 on, the
    distance variance of a prefix of three or more rows caps the factor
    too: the box alone leaves 56,867 keys at k=5 and 455,710 at k=6, the
    two bounds together under 15,000 and 40,000."""
    patch, scored = _count_block_scored()
    with patch:
        exhaustive_search(fixture_matrix, 3, "max", top_k=3)
        assert 0 < scored[0] <= 800
        scored[0] = 0
        exhaustive_search(fixture_matrix, 4, "max", top_k=3)
        assert 0 < scored[0] <= 82251 / 4
        scored[0] = 0
        exhaustive_search(fixture_matrix, 4, "min", top_k=3)
        assert scored[0] >= 82251
        for size, most in ((5, 15000), (6, 40000)):
            scored[0] = 0
            exhaustive_search(fixture_matrix, size, "max", top_k=3)
            assert 0 < scored[0] <= most


@pytest.mark.parametrize("mode", ["max", "min"])
@pytest.mark.parametrize("size", [3, 4, 37])
def test_exhaustive_search_builds_one_distance_matrix(fixture_matrix, mode,
                                                      size):
    """Every exhaustive search above pairs builds one 39 x 39 distance
    matrix up front; in max mode the walk and the block keyer both read
    it, beyond half the rows the plain scan does."""
    with mock.patch.object(search, "_distances",
                           wraps=search._distances) as distances:
        exhaustive_search(fixture_matrix, size, mode, top_k=3)
    assert [len(call.args[0]) for call in distances.call_args_list] == [39]


@pytest.mark.parametrize("mode, rescored", [("max", [3, 3, 3, 3]),
                                             ("min", [0, 4, 11, 14])])
def test_tie_band_rescores_on_corpus(fixture_matrix, mode, rescored):
    """How many candidates ``_top`` re-scores with the scalar formula on
    the corpus, top-3, k=2..5: the band within ``_TIE_TOL`` of the
    cut-off, less the flat boxes that score 0.0 unscored.  Each block's
    selection must neither widen nor narrow that band.  Max mode's walk
    starts from the seeded cut-off of :func:`search._seed_cut`, so no
    first block re-scores a band that the final cut-off excludes."""
    counts = []
    for size in range(2, 6):
        with mock.patch.object(search, "_evaluate",
                               wraps=search._evaluate) as evaluate:
            exhaustive_search(fixture_matrix, size, mode, top_k=3)
        counts.append(evaluate.call_count)
    assert counts == rescored


@settings(deadline=None)
@given(matrix=tied_matrices(), data=st.data())
def test_greedy_matches_scalar_reference(matrix, data):
    size = data.draw(st.integers(2, len(matrix.datasets)))
    for mode in ("max", "min"):
        for variant in ("nth-root", "literal-sqrt"):
            res = greedy_search(matrix, size, mode, variant=variant)
            assert (res.best.datasets, res.best.score,
                    res.candidates_evaluated) == _scalar_greedy(
                        matrix, size, mode, variant)


@settings(deadline=None)
@given(matrix=tied_matrices(), mode=st.sampled_from(["max", "min"]),
       variant=st.sampled_from(["nth-root", "literal-sqrt"]))
def test_greedy_extend_chain_matches_scalar_reference(matrix, mode, variant):
    """Each size grown from the result of the size before equals a fresh
    scalar greedy search, count included."""
    res = None
    for size in range(2, len(matrix.datasets) + 1):
        res = greedy_search(matrix, size, mode, variant, extend=res)
        assert (res.best.datasets, res.best.score,
                res.candidates_evaluated) == _scalar_greedy(
                    matrix, size, mode, variant)


def test_greedy_extend_errors(fixture_matrix):
    pair = greedy_search(fixture_matrix, 2)
    triple = greedy_search(fixture_matrix, 3, extend=pair)
    with pytest.raises(ValueError, match="cannot extend a max/nth-root "
                                         "result in a min/nth-root search"):
        greedy_search(fixture_matrix, 3, "min", extend=pair)
    with pytest.raises(ValueError, match="in a max/literal-sqrt search"):
        greedy_search(fixture_matrix, 3, variant="literal-sqrt", extend=pair)
    with pytest.raises(ValueError, match="size-3 result to size 2"):
        greedy_search(fixture_matrix, 2, extend=triple)
    with pytest.raises(ValueError, match="not a greedy result"):
        greedy_search(fixture_matrix, 4,
                      extend=exhaustive_search(fixture_matrix, 3))
    # "gappy" is complete here and has a gap in TRIANGLE
    corners = greedy_search(make_matrix(
        {"a": [0.0, 0.0], "b": [0.5, 0.4], "gappy": [1.0, 1.0]}), 2)
    assert corners.best.datasets == ("a", "gappy")
    with pytest.raises(ValueError, match="not complete rows"):
        greedy_search(make_matrix(TRIANGLE), 3, extend=corners)
    # the exhaustive best pair is the greedy pair; an equal size is kept
    assert greedy_search(fixture_matrix, 3,
                         extend=exhaustive_search(fixture_matrix, 2)) == triple
    assert greedy_search(fixture_matrix, 3, extend=triple) == triple


@st.composite
def float_matrices(draw):
    """Small matrices of arbitrary scores in [0, 1]."""
    n_axes = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.floats(0, 1), min_size=n_axes,
                                  max_size=n_axes),
                         min_size=2, max_size=10))
    return make_matrix({f"d{i:02d}": row for i, row in enumerate(rows)})


@settings(deadline=None)
@given(matrix=st.one_of(tied_matrices(), float_matrices()), data=st.data(),
       batch=st.sampled_from([1, 5, search._BATCH]))
def test_block_keys_match_scalar_scores(matrix, data, batch):
    """Every candidate key of the prefix kernel is within 1e-12 of the
    scalar score, far inside the re-scoring band ``_TIE_TOL``: over the
    exhaustive blocks, which hold each subset exactly once, and over a
    greedy block, whose extensions also lie below its prefix.

    A keyer given the n x n distance matrix reads it; one without it
    computes each block's own rows of distances, for the greedy block
    and for a block of two prefixes alike.  Both give the same keys.  A
    pair block reads no distance: one distance has variance exactly 0,
    so its key is ``sign * coverage``."""
    names = _complete_names(matrix)
    P = matrix.values[[matrix.dataset_index(d) for d in names]]
    n, n_axes = P.shape
    size = data.draw(st.integers(2, min(6, n)))
    subset = sorted(data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                       min_size=size - 1,
                                       max_size=size - 1)))
    pair = data.draw(st.lists(st.sampled_from(names), min_size=2, max_size=2,
                              unique=True))
    assert score_selection(matrix, pair).distance_variance == 0.0
    with mock.patch.object(search, "_BATCH", batch):
        blocks = list(search._prefix_blocks(n, size))
    greedy = (np.array([subset]), 0, np.isin(np.arange(n), subset)[None])
    for sign in (-1.0, 1.0):
        for variant in ("nth-root", "literal-sqrt"):
            keys_of = search._block_keyer(P, n_axes, variant, sign,
                                          search._distances(P, P.T))
            rows_of = search._block_keyer(P, n_axes, variant, sign)
            before = rows_of(*greedy[:2])
            seen = []
            for pre, start, skip in [greedy, *blocks]:
                keys = keys_of(pre, start)
                vol = np.zeros_like(keys)
                for b, w in zip(*np.nonzero(~skip)):
                    idx = tuple(sorted([*pre[b].tolist(), start + int(w)]))
                    *_, vol[b, w], want = _evaluate(P[list(idx)].tolist(),
                                                    n_axes, variant)
                    assert abs(keys[b, w] - sign * want) <= 1e-12
                    seen.append(idx)
                if size == 2:
                    coverage = (np.sqrt(vol) if variant == "literal-sqrt"
                                else vol ** (1.0 / n_axes))
                    assert (keys[~skip] == sign * coverage[~skip]).all()
            # after the greedy block's candidates, every subset once
            assert sorted(seen[n - size + 1:]) == list(
                combinations(range(n), size))
            twice = rows_of(np.array([subset, subset]), 0)
            assert (twice == before).all()
            assert (keys_of(*greedy[:2]) == before).all()


@settings(deadline=None)
@given(matrix=tied_matrices(drawn=(2, 50), copies=(0, 10)),
       batch=st.sampled_from([1, 5, search._BATCH]))
def test_pair_strips_match_scalar_reference(matrix, batch):
    """Pairs come in row strips of consecutive rows, at most ``8 *
    _BATCH`` candidates or one row: patched small, one row's pairs split
    over strips; at the default, every row lands in one strip.  Over
    2-60 rows with tied and duplicated rows, the exhaustive top 3 and
    greedy's pair equal the scalar brute force, in both modes and both
    variants."""
    names = _complete_names(matrix)
    n, pairs = len(names), list(combinations(names, 2))
    with mock.patch.object(search, "_BATCH", batch):
        strips = list(search._prefix_blocks(n, 2))
        for pre, start, skip in strips:
            assert (pre[:, 0] == np.arange(start - 1,
                                           start - 1 + len(pre))).all()
            assert skip.size <= max(8 * batch, n - start)
        assert sum((~skip).sum() for *_, skip in strips) == len(pairs)
        for variant in ("nth-root", "literal-sqrt"):
            score = {p: score_selection(matrix, p, variant).score
                     for p in pairs}
            for mode, sign in (("max", -1.0), ("min", 1.0)):
                want = sorted(pairs, key=lambda p: (sign * score[p], p))
                res = exhaustive_search(matrix, 2, mode, top_k=3,
                                        variant=variant)
                assert [(s.datasets, s.score) for s in res.top] == [
                    (p, score[p]) for p in want[:3]]
                res = greedy_search(matrix, 2, mode, variant)
                assert (res.best.datasets, res.best.score) == (
                    want[0], score[want[0]])


@pytest.mark.parametrize("batch", [search._BATCH, 7])
def test_exhaustive_matches_scalar_reference_on_corpus(fixture_matrix,
                                                       batch):
    """All 9,139 triples of the 39 complete corpus rows against the
    scalar brute force; with 7, blocks split inside one last index and
    span several."""
    want = _scalar_exhaustive(fixture_matrix, 3, "min", "nth-root", 3)
    with mock.patch.object(search, "_BATCH", batch):
        res = exhaustive_search(fixture_matrix, 3, "min", top_k=3)
    assert res.candidates_evaluated == 9139
    assert [(s.datasets, s.score) for s in res.top] == want


def test_exhaustive_ties_merge_across_batches():
    """All 4,845 quadruples tie at 0.0 and span several batches; the
    first name tuples win in both modes."""
    m = make_matrix({f"d{i:02d}": [0.25, 0.75, 0.5] for i in range(20)})
    assert math.comb(20, 4) > 2 * search._BATCH
    for mode in ("max", "min"):
        res = exhaustive_search(m, 4, mode, top_k=3)
        assert res.candidates_evaluated == 4845
        assert [(s.datasets, s.score, s.rank) for s in res.top] == [
            (("d00", "d01", "d02", "d03"), 0.0, 1),
            (("d00", "d01", "d02", "d04"), 0.0, 2),
            (("d00", "d01", "d02", "d05"), 0.0, 3),
        ]


def test_exhaustive_memory_does_not_grow_with_candidates(rng):
    """Candidates stream in fixed-size batches: going from k=3 to k=4 on
    40 rows multiplies them by 9.25 but must not multiply peak memory."""
    m = random_matrix(rng, 40, 5)
    peaks = {}
    for size in (3, 4):
        tracemalloc.start()
        try:
            exhaustive_search(m, size, "max", top_k=3)
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] < 2 * 2**20
    assert peaks[4] < 2 * peaks[3]


def test_greedy_memory_is_linear_in_rows(rng):
    """Greedy's pair and addition steps read no n x n distance matrix:
    on 1,000 rows, 8 MB of it, the whole search peaks under 2 MB."""
    m = random_matrix(rng, 1000, 4)
    tracemalloc.start()
    try:
        pair = greedy_search(m, 2)
        greedy_search(m, 3, extend=pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("n_rows, n_axes", [(2000, 8), (500, 40)])
def test_greedy_pair_strips_memory(rng, n_rows, n_axes):
    """A pair strip holds up to ``8 * _BATCH`` keys and takes no
    temporary per axis, and only the candidates near the cut-off are
    copied out as Python floats, not every row: greedy's pair step on
    2,000×8 and on a wide 500×40 input peaks under 1.2 MB.  One
    axis-wide temporary of a strip alone would take 2.5 MB at 40 axes,
    and a Python copy of every row 0.6 MB at 2,000×8."""
    m = random_matrix(rng, n_rows, n_axes)
    tracemalloc.start()
    try:
        greedy_search(m, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2**20


def test_bounded_search_memory_when_nothing_prunes():
    """On 40 identical rows every bound ties the cut-off, so the max-mode
    search keeps every prefix (all 91,390 quadruples reach the block
    keyer); its peak memory still must not grow from k=3 to k=4."""
    m = make_matrix({f"d{i:02d}": [0.25, 0.75] for i in range(40)})
    patch, scored = _count_block_scored()
    peaks = {}
    with patch:
        for size in (3, 4):
            tracemalloc.start()
            try:
                res = exhaustive_search(m, size, "max", top_k=3)
                peaks[size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.top[0] == search.Selection(
                tuple(f"d{i:02d}" for i in range(size)), 0.0, 1)
    assert scored[0] >= math.comb(40, 3) + math.comb(40, 4)
    assert peaks[4] < 2 * 2**20
    assert peaks[4] < 2 * peaks[3]
