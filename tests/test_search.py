import math
import tracemalloc
from functools import partial
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_matrix, random_matrix
from apspace import search
from apspace.core import UnknownDatasetError, build_matrix
from apspace.metrics import DimensionMismatchError
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
    res = exhaustive_search(fixture_matrix, 2, "max", top_k=3)
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
def tied_matrices(draw):
    """Small matrices with 1-2 decimal scores and duplicated rows, so
    exact ties occur; dataset names are not in sorted row order."""
    n_axes = draw(st.integers(2, 4))
    value = st.one_of(st.integers(0, 10).map(lambda v: v / 10),
                      st.integers(0, 100).map(lambda v: v / 100))
    rows = draw(st.lists(st.lists(value, min_size=n_axes, max_size=n_axes),
                         min_size=2, max_size=7))
    rows += [rows[i] for i in draw(st.lists(
        st.integers(0, len(rows) - 1), max_size=3))]
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
@given(matrix=tied_matrices(), data=st.data())
def test_greedy_matches_scalar_reference(matrix, data):
    size = data.draw(st.integers(2, len(matrix.datasets)))
    for mode in ("max", "min"):
        for variant in ("nth-root", "literal-sqrt"):
            res = greedy_search(matrix, size, mode, variant=variant)
            assert (res.best.datasets, res.best.score,
                    res.candidates_evaluated) == _scalar_greedy(
                        matrix, size, mode, variant)


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
