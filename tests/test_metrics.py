import math
from itertools import permutations

import pytest

from conftest import make_matrix
from apspace.ingest import parse_wide
from apspace.metrics import (DimensionMismatchError, IncompletePointError,
                             NoDataError, TooFewPointsError, difficulty,
                             diversity, metric_table, variance)


# ---------------------------------------------------------------- difficulty

def test_difficulty_is_one_minus_mean():
    assert difficulty([0.2, 0.4]) == pytest.approx(0.7)
    assert difficulty([0.0, 0.0]) == 1.0
    assert difficulty([1.0, 1.0]) == 0.0


def test_difficulty_ignores_gaps():
    assert difficulty([0.4, None, None]) == pytest.approx(0.6)


def test_difficulty_raw_mean_orientation():
    row = [0.2, 0.6]
    assert difficulty(row, "raw-mean") == pytest.approx(0.4)
    assert difficulty(row) + difficulty(row, "raw-mean") == pytest.approx(1.0)


def test_difficulty_errors():
    with pytest.raises(NoDataError):
        difficulty([None, None])
    with pytest.raises(ValueError):
        difficulty([0.5], orientation="upside-down")


def test_difficulty_fixture_spot_values(fixture_matrix):
    assert difficulty(fixture_matrix.row("Jester")) == pytest.approx(
        0.5163, abs=5e-5)
    assert difficulty(fixture_matrix.row("FilmTrust")) == pytest.approx(
        0.6614, abs=5e-5)


# ------------------------------------------------------------------ variance

def test_variance_two_values_is_their_gap():
    assert variance([0.2, 0.6]) == pytest.approx(0.4)


def test_variance_undefined_below_two_values():
    assert variance([0.5]) is None
    assert variance([0.5, None, None]) is None
    assert variance([]) is None


def test_variance_identical_values():
    assert variance([0.3, 0.3, 0.3]) == 0.0


def test_variance_three_values_by_hand():
    # pairs: |.1-.2|, |.1-.4|, |.2-.4| -> (0.1 + 0.3 + 0.2) / 3
    assert variance([0.1, 0.2, 0.4]) == pytest.approx(0.2)


def test_variance_translation_invariant(rng):
    for _ in range(200):
        row = rng.random(int(rng.integers(2, 7))) * 0.5
        shift = float(rng.random() * 0.4)
        base = variance(list(row))
        assert variance(list(row + shift)) == pytest.approx(base, abs=1e-12)


def test_variance_brute_force_oracle(rng):
    """Ordered-pair double loop / m(m-1) must agree with the mean over
    unordered pairs."""
    for _ in range(1000):
        row = [float(v) for v in rng.random(int(rng.integers(2, 7)))]
        m = len(row)
        brute = sum(abs(a - b) for a in row for b in row) / (m * (m - 1))
        assert abs(variance(row) - brute) <= 1e-12


def test_variance_bounded_by_unit_interval(rng):
    for _ in range(200):
        row = [float(v) for v in rng.random(int(rng.integers(2, 7)))]
        assert 0.0 <= variance(row) <= 1.0


def test_variance_fixture_spot_values(fixture_matrix):
    assert variance(fixture_matrix.row("Epinions")) == pytest.approx(
        0.3035, abs=5e-5)
    assert variance(fixture_matrix.row("Amazon_Office_Products")) == \
        pytest.approx(0.0079, abs=5e-5)


# ------------------------------------------------------------------ distance

def test_pairwise_distances_triangle():
    assert diversity([(0, 0), (3, 0), (0, 4)]).pairwise == (3.0, 4.0, 5.0)


def test_pairwise_distances_pair_order():
    # (i, j) with i < j, row-major
    d = diversity([(0, 0), (1, 0), (3, 0)]).pairwise
    assert d == (1.0, 3.0, 2.0)


def test_pairwise_distances_errors():
    with pytest.raises(TooFewPointsError):
        diversity([(0, 0)])
    with pytest.raises(IncompletePointError):
        diversity([(0, 0), (1, None)])
    with pytest.raises(DimensionMismatchError):
        diversity([(0, 0), (1, 1, 1)])


def test_pairwise_distance_fixture_neighbors(fixture_matrix):
    rows = [fixture_matrix.row(d) for d in ("MovieLens1m", "MovieLens100k")]
    assert diversity(rows).pairwise[0] == pytest.approx(0.0652379, abs=1e-6)


# ----------------------------------------------------------------- diversity

def test_diversity_coincident_points_score_zero():
    out = diversity([[0.4, 0.4], [0.4, 0.4]])
    assert out.score == 0.0
    assert out.volume == 0.0
    assert out.axis_ranges == (0.0, 0.0)


def test_diversity_breakdown_fields():
    out = diversity([[0.0, 0.0], [0.4, 0.9]], datasets=["p", "q"])
    assert out.datasets == ("p", "q")
    assert out.max_variance == 0.5  # n/4 with n=2
    assert out.distance_variance == 0.0  # a single pair has no spread
    assert out.pairwise == (pytest.approx(math.hypot(0.4, 0.9)),)
    assert out.volume == pytest.approx(0.36)
    assert out.variant == "nth-root"
    assert out.score == pytest.approx(math.sqrt(0.36))


def test_diversity_two_points_geometric_mean_of_ranges(rng):
    """With one pair the distance variance vanishes, so the score is
    exactly the nth root of the bounding volume."""
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        p, q = rng.random(n), rng.random(n)
        out = diversity([list(p), list(q)])
        expected = math.prod(abs(p - q)) ** (1.0 / n)
        assert abs(out.score - expected) <= 1e-12


def test_diversity_permutation_invariant(rng):
    pts = [list(v) for v in rng.random((4, 3))]
    base = diversity(pts).score
    for perm in permutations(range(4)):
        assert diversity([pts[i] for i in perm]).score == pytest.approx(
            base, abs=1e-12)


def test_diversity_translation_invariant(rng):
    for _ in range(300):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        pts = rng.random((k, n)) * 0.5
        shift = rng.random(n) * 0.4
        a = diversity([list(r) for r in pts]).score
        b = diversity([list(r) for r in pts + shift]).score
        assert abs(a - b) <= 1e-12


def test_diversity_literal_sqrt_variant():
    pts = [[0.0, 0.0, 0.0], [0.2, 0.3, 0.4]]
    nth = diversity(pts).score
    lit = diversity(pts, variant="literal-sqrt").score
    vol = 0.2 * 0.3 * 0.4
    assert nth == pytest.approx(vol ** (1 / 3))
    assert lit == pytest.approx(math.sqrt(vol))
    assert nth != lit


def test_diversity_errors():
    with pytest.raises(TooFewPointsError):
        diversity([[0.1, 0.2]])
    with pytest.raises(IncompletePointError):
        diversity([[0.1, 0.2], [0.3, None]])
    with pytest.raises(DimensionMismatchError):
        diversity([[0.1, 0.2], [0.3, 0.4, 0.5]])
    with pytest.raises(DimensionMismatchError):
        diversity([[0.1], [0.2]])  # a 1-axis space has no volume to cover
    with pytest.raises(ValueError):
        diversity([[0.1, 0.2], [0.3, 0.4]], variant="cubic")


# -------------------------------------------------------------- metric_table

def test_metric_table_fixture_extremes(fixture_matrix):
    table = metric_table(fixture_matrix)
    hardest = max(table.rows, key=lambda r: r.difficulty)
    assert hardest.dataset == "Amazon_Electronics"
    assert hardest.difficulty == pytest.approx(0.9893, abs=5e-5)
    calmest = min((r for r in table.rows if r.variance is not None),
                  key=lambda r: r.variance)
    assert calmest.dataset == "Amazon_CDs_and_Vinyl"
    assert calmest.variance == pytest.approx(0.0028, abs=5e-5)
    noisiest = max((r for r in table.rows if r.variance is not None),
                   key=lambda r: r.variance)
    assert noisiest.dataset == "Epinions"


def test_metric_table_row_order_and_counts(fixture_matrix):
    table = metric_table(fixture_matrix)
    assert tuple(r.dataset for r in table.rows) == fixture_matrix.datasets
    assert sum(r.present_count for r in table.rows) == 268
    assert sum(r.variance is None for r in table.rows) == 8


def test_metric_table_aggregates(fixture_matrix):
    table = metric_table(fixture_matrix)
    assert table.mean_difficulty == pytest.approx(0.886422, abs=1e-6)
    assert table.median_difficulty == pytest.approx(0.9217, abs=1e-6)


def test_metric_table_orientation_passthrough():
    m = make_matrix({"d": [0.2, 0.4]})
    raw = metric_table(m, "raw-mean")
    assert raw.orientation == "raw-mean"
    assert raw.row("d").difficulty == pytest.approx(0.3)


def test_metric_table_unknown_row():
    table = metric_table(make_matrix({"d": [0.5]}))
    with pytest.raises(KeyError):
        table.row("nope")


def test_median_even_row_count():
    m = make_matrix({"a": [0.1], "b": [0.2], "c": [0.3], "d": [0.4]})
    table = metric_table(m, "raw-mean")
    assert table.median_difficulty == pytest.approx(0.25)


def test_empty_table_aggregates_raise_no_data():
    table = metric_table(parse_wide("dataset,a,b\n"))
    assert table.rows == ()
    with pytest.raises(NoDataError):
        table.mean_difficulty
    with pytest.raises(NoDataError):
        table.median_difficulty
