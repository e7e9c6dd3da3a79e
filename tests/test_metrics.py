import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import make_matrix
from apspace.core import PerformanceMatrix, left_sum
from apspace.ingest import parse_wide, validate
from apspace.metrics import (DIFFICULTY_ORIENTATIONS, DimensionMismatchError,
                             IncompletePointError, NoDataError,
                             TooFewPointsError, difficulty, diversity,
                             metric_table, variance)
from apspace.pca import _column_means


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


def test_metric_table_refuses_bad_input():
    with pytest.raises(ValueError, match="unknown orientation 'flipped'"):
        metric_table(make_matrix({"d": [0.5]}), "flipped")
    # build_matrix refuses an all-gap row; a matrix built directly can hold one
    m = PerformanceMatrix(algorithms=("a", "b"), datasets=("d", "e"),
                          cells=((0.5, None), (None, None)))
    with pytest.raises(NoDataError, match="at least one present score"):
        metric_table(m)


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


def test_float_sums_add_left_to_right_on_every_python():
    # sum() gives 1.0 here from Python 3.12 on
    assert left_sum([0.1] * 10) == 0.9999999999999999
    row = [0.1] * 10
    assert difficulty(row, "raw-mean") == 0.9999999999999999 / 10
    table = metric_table(make_matrix({"d": row}), "raw-mean")
    assert table.rows[0].difficulty == 0.9999999999999999 / 10
    assert table.mean_difficulty == 0.9999999999999999 / 10


# the least subnormal and -0.0 test the order and the sign of each sum
_scores = st.one_of(st.none(), st.floats(0.0, 1.0),
                    st.sampled_from([-0.0, 5e-324, 0.1, 1.0]))


@st.composite
def _gappy_rows(draw):
    # past 8 columns numpy's own sums would add in another order
    width = draw(st.integers(1, 10))
    return draw(st.lists(
        st.lists(_scores, min_size=width, max_size=width)
        .filter(lambda row: row.count(None) < width), max_size=10)), width


def _scalar_mean(values):
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


@given(_gappy_rows(), st.sampled_from(DIFFICULTY_ORIENTATIONS))
@example(([], 3), "one-minus-mean")                    # header only
@example(([[0.3], [-0.0], [5e-324]], 1), "raw-mean")   # one column
@example(([[None, 0.1, None], [5e-324, -0.0, None]], 3), "raw-mean")
@example(([[-0.0, 0.5], [-0.0, None]], 2), "raw-mean")  # a -0.0 column
def test_bulk_summaries_match_the_scalar_path_bit_for_bit(drawn, orientation):
    rows, width = drawn
    lines = [["dataset", *(f"a{j}" for j in range(width))]]
    lines += [[f"d{i}", *("" if v is None else repr(v) for v in row)]
              for i, row in enumerate(rows)]
    m = parse_wide("".join(",".join(line) + "\n" for line in lines))
    counts = [width - row.count(None) for row in m.cells]

    table = metric_table(m, orientation)
    assert [(r.dataset, repr(r.difficulty), repr(r.variance),
             repr(r.present_count)) for r in table.rows] == [
        (d, repr(difficulty(row, orientation)), repr(variance(row)), repr(n))
        for d, row, n in zip(m.datasets, m.cells, counts)]

    report = validate(m)
    assert (report.present_cells, report.missing_cells) == (
        sum(counts), len(rows) * width - sum(counts))
    assert sum("single present score" in w for w in report.warnings) == sum(
        width > 1 and n == 1 for n in counts)

    columns = [[v for v in column if v is not None]
               for column in zip(*m.cells)] or [[]] * width
    means = _column_means(m.values, np.isnan(m.values))
    assert [repr(float(v)) for v in means] == [
        repr(_scalar_mean(column) if column else 0.0) for column in columns]
