"""Acceptance gate: every published figure the fixture can reproduce.

One test per criterion, each printing a single PASS line with the
measured numbers (visible with ``pytest -v -s`` or on failure).  Two
sub-clauses are recorded as strict expected failures because the
fixture data itself contradicts them; see the test docstrings.
"""

import math
import time

import numpy as np
import pytest

from apspace.ingest import load_thesis_matrix, load_thesis_metric_columns
from apspace.metrics import diversity, metric_table, variance
from apspace.pca import pca_project, pearson
from apspace.search import exhaustive_search, greedy_search, score_selection
from apspace.cli import run

MATRIX = load_thesis_matrix()
PUBLISHED = load_thesis_metric_columns()

# Reference selections with their published diversity scores
SELECTIONS = [
    (("Food", "Jester"), 0.4698),
    (("Food", "Jester", "MovieLensLatestSmall"), 0.4468),
    (("Amazon_Magazine_Subscriptions", "FilmTrust", "Food", "Jester"), 0.4459),
    (("FourSquareNYC", "MarketBiasModcloth"), 0.0002),
    (("Amazon_Musical_Instruments", "Amazon_Prime_Pantry", "RentTheRunway"),
     0.0059),
    (("Amazon_Arts_Crafts_and_Sewing", "Amazon_Digital_Music", "Food",
      "RentTheRunway"), 0.0462),
    (("MovieLens100k", "MovieLens1m", "MovieLensLatestSmall"), 0.0399),
    (("Amazon_Arts_Crafts_and_Sewing", "Amazon_Digital_Music",
      "Amazon_Gift_Cards"), 0.0473),
    (("Amazon_Arts_Crafts_and_Sewing", "Amazon_Digital_Music",
      "Amazon_Gift_Cards", "Jester"), 0.3825),
]


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_difficulty_golden():
    started = time.perf_counter()
    table = metric_table(MATRIX)
    worst = 0.0
    for row in table.rows:
        err = abs(row.difficulty - PUBLISHED[row.dataset][0])
        worst = max(worst, err)
        assert err <= 5e-5, (row.dataset, row.difficulty)
    assert table.row("Jester").difficulty == pytest.approx(0.5163, abs=5e-5)
    assert table.row("Amazon_Electronics").difficulty == pytest.approx(
        0.9893, abs=5e-5)
    assert table.row("FilmTrust").difficulty == pytest.approx(0.6614, abs=5e-5)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("criterion 1 (difficulty golden)",
           f"71/71 rows within 5e-5 (max err {worst:.2e}) in {elapsed:.3f}s")


def test_criterion_2_variance_golden():
    worst = 0.0
    defined = 0
    for dataset in MATRIX.datasets:
        computed = variance(MATRIX.row(dataset))
        published = PUBLISHED[dataset][1]
        if published is None:
            assert computed is None, dataset
            continue
        defined += 1
        err = abs(computed - published)
        worst = max(worst, err)
        assert err <= 5e-5, (dataset, computed)
    assert variance(MATRIX.row("Epinions")) == pytest.approx(0.3035, abs=5e-5)
    assert variance(MATRIX.row("Amazon_CDs_and_Vinyl")) == pytest.approx(
        0.0028, abs=5e-5)
    assert variance(MATRIX.row("Amazon_Office_Products")) == pytest.approx(
        0.0079, abs=5e-5)
    report("criterion 2 (variance golden)",
           f"{defined} defined rows within 5e-5 (max err {worst:.2e}), "
           f"{71 - defined} undefined rows match")


def test_criterion_3_aggregate_statistics():
    table = metric_table(MATRIX)
    assert table.mean_difficulty == pytest.approx(0.886, abs=2e-3)
    assert table.median_difficulty == pytest.approx(0.921, abs=2e-3)
    report("criterion 3 (aggregates)",
           f"mean {table.mean_difficulty:.4f} ~ 0.886, "
           f"median {table.median_difficulty:.4f} ~ 0.921")


def test_criterion_4_diversity_golden_table():
    details = []
    for names, published in SELECTIONS:
        score = score_selection(MATRIX, names).score
        if published == 0.0002:
            # printed as 0.0002; recomputation from 4-decimal inputs
            # collapses it to exactly zero
            assert score <= 5e-4, names
        else:
            assert score == pytest.approx(published, abs=1e-3), names
        details.append(f"{score:.4f}~{published}")
    report("criterion 4 (diversity golden)", ", ".join(details))


def test_criterion_5_exhaustive_search_reproduction():
    started = time.perf_counter()
    results = {}
    for size, mode in ((2, "max"), (3, "max"), (4, "max"),
                       (2, "min"), (3, "min")):
        results[(size, mode)] = exhaustive_search(MATRIX, size, mode, top_k=3)
    elapsed = time.perf_counter() - started
    assert results[(2, "max")].best.datasets == SELECTIONS[0][0]
    assert results[(3, "max")].best.datasets == SELECTIONS[1][0]
    assert results[(4, "max")].best.datasets == SELECTIONS[2][0]
    assert results[(3, "min")].best.datasets == SELECTIONS[4][0]
    # the min pair is an exact three-way tie at 0.0; canonical name order
    # puts the reference pair first — flag the tie rather than hide it
    min_pair = results[(2, "min")]
    assert min_pair.best.datasets == SELECTIONS[3][0]
    tied = [s for s in min_pair.top if s.score == min_pair.best.score]
    flag = (f"; FLAG: rank-1 of min size 2 is a {len(tied)}-way tie at 0.0, "
            "canonical order selects the reference pair" if len(tied) > 1
            else "")
    assert elapsed < 10.0
    report("criterion 5 (exhaustive reproduction)",
           f"max 2/3/4 and min 2/3 all rank-1 in {elapsed:.2f}s{flag}")


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the recorded min-mode size-4 selection scores 0.0462 on its own "
           "data but ranks 1306 of 82251; the true minimum is "
           "{Amazon_Musical_Instruments, Amazon_Prime_Pantry, Food, "
           "RentTheRunway} at 0.0130, so rank-1 (and even top-3) placement "
           "is unreachable")
def test_criterion_5_min_size_4_reproduction():
    recorded = SELECTIONS[5][0]
    result = exhaustive_search(MATRIX, 4, "min", top_k=3)
    print(f"min size 4 rank-1: {result.best.datasets} "
          f"at {result.best.score:.4f}; recorded set scores "
          f"{score_selection(MATRIX, recorded).score:.4f}")
    assert recorded in [s.datasets for s in result.top]


def test_criterion_6_pca_reconstruction():
    table = metric_table(MATRIX)
    zero = pca_project(MATRIX, 2, "zero-fill")
    r1, r2 = (float(v) for v in zero.explained_variance_ratio)
    assert r1 == pytest.approx(0.852, abs=0.03)
    assert r2 == pytest.approx(0.0825, abs=0.03)
    # the documented reproduction mode nails the published figures
    mean = pca_project(MATRIX, 2, "mean-fill")
    m1, m2 = (float(v) for v in mean.explained_variance_ratio)
    assert m1 == pytest.approx(0.852, abs=5e-4)
    assert m2 == pytest.approx(0.0825, abs=5e-4)
    diffs = [table.row(d).difficulty for d in mean.dataset_ids]
    rho = abs(pearson(mean.coordinates[:, 0], diffs))
    assert rho >= 0.90
    assert rho == pytest.approx(0.95, abs=1e-3)
    report("criterion 6 (pca reconstruction)",
           f"zero-fill ratios {r1:.4f}/{r2:.4f} within 0.03; "
           f"mean-fill {m1:.4f}/{m2:.4f} with |rho| {rho:.4f} ~ 0.95")


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="zero-fill imputation yields |rho| = 0.8996, a hair under the "
           "0.90 bound; mean-fill imputation reproduces the recorded 0.95 "
           "and is asserted in criterion 6 instead")
def test_criterion_6_zero_fill_correlation_bound():
    table = metric_table(MATRIX)
    zero = pca_project(MATRIX, 2, "zero-fill")
    diffs = [table.row(d).difficulty for d in zero.dataset_ids]
    rho = abs(pearson(zero.coordinates[:, 0], diffs))
    print(f"zero-fill |rho| = {rho:.6f}")
    assert rho >= 0.90


def test_criterion_7a_variance_brute_force(rng):
    for _ in range(1000):
        row = [float(v) for v in rng.random(int(rng.integers(2, 7)))]
        m = len(row)
        brute = sum(abs(a - b) for a in row for b in row) / (m * (m - 1))
        assert abs(variance(row) - brute) <= 1e-12
    report("criterion 7a (variance oracle)", "1000 random rows within 1e-12")


def test_criterion_7b_diversity_invariances(rng):
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        pts = rng.random((k, n)) * 0.5
        base = diversity([list(r) for r in pts]).score
        perm = rng.permutation(k)
        assert diversity([list(pts[i]) for i in perm]).score == pytest.approx(
            base, abs=1e-12)
        shift = rng.random(n) * 0.4
        assert diversity([list(r) for r in pts + shift]).score == \
            pytest.approx(base, abs=1e-12)
    report("criterion 7b (diversity invariance)",
           "1000 permutation + translation checks within 1e-12")


def test_criterion_7c_two_point_geometric_mean(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        p, q = rng.random(n), rng.random(n)
        score = diversity([list(p), list(q)]).score
        assert abs(score - math.prod(abs(p - q)) ** (1 / n)) <= 1e-12
    report("criterion 7c (2-point diversity)",
           "1000 pairs equal geometric mean of ranges within 1e-12")


def test_criterion_7d_pca_properties(rng):
    from conftest import random_matrix
    checked = 0
    for _ in range(15):
        m = random_matrix(rng, int(rng.integers(4, 16)),
                          int(rng.integers(2, 7)), prefix="p")
        n = m.n_algorithms
        proj = pca_project(m, k=n)
        np.testing.assert_allclose(proj.components @ proj.components.T,
                                   np.eye(n), atol=1e-9)
        assert float(proj.explained_variance_ratio.sum()) == pytest.approx(
            1.0, abs=1e-9)
        data = np.array([[float(v) for v in row] for row in m.cells])
        np.testing.assert_allclose(proj.coordinates @ proj.components,
                                   data - proj.column_means, atol=1e-9)
        checked += 1
    report("criterion 7d (pca properties)",
           f"orthonormality/ratio-sum/reconstruction on {checked} matrices")


def test_criterion_7e_exhaustive_dominates_random(rng):
    best = exhaustive_search(MATRIX, 3, "max").best.score
    eligible = sorted(d for d in MATRIX.datasets if MATRIX.is_complete(d))
    for _ in range(1000):
        pick = rng.choice(len(eligible), size=3, replace=False)
        names = [eligible[i] for i in pick]
        assert score_selection(MATRIX, names).score <= best
    report("criterion 7e (search dominance)",
           "exhaustive max >= 1000 random triples")


def test_criterion_7f_greedy_never_beats_exhaustive():
    pairs = []
    for size in (2, 3, 4):
        for mode in ("max", "min"):
            g = greedy_search(MATRIX, size, mode).best.score
            e = exhaustive_search(MATRIX, size, mode).best.score
            if mode == "max":
                assert g <= e
            else:
                assert g >= e
            pairs.append(f"{mode}{size}")
    report("criterion 7f (greedy bound)",
           f"greedy within exhaustive bound for {', '.join(pairs)}")


def test_criterion_7g_round_trips(rng):
    from conftest import random_matrix
    from apspace.ingest import parse_long, parse_wide, write_long, write_wide
    for _ in range(50):
        m = random_matrix(rng, int(rng.integers(1, 10)),
                          int(rng.integers(1, 6)),
                          missing_rate=float(rng.random() * 0.5), prefix="t")
        assert parse_wide(write_wide(m)) == m
        assert parse_long(write_long(m)) == m
    report("criterion 7g (round trips)", "50 random matrices, both formats")


def test_criterion_7h_svg_well_formed():
    import xml.etree.ElementTree as ET
    from apspace.viz import mini_aps_grid, pca_scatter_svg
    grid = mini_aps_grid(MATRIX)
    assert len(grid.plots) == 10
    for label, svg in grid.plots:
        root = ET.fromstring(svg)
        count = sum(1 for el in root.iter()
                    if el.tag.endswith("}circle"))
        x, y = label.split("_vs_")
        jx, jy = MATRIX.algorithm_index(x), MATRIX.algorithm_index(y)
        expected = sum(1 for row in MATRIX.cells
                       if row[jx] is not None and row[jy] is not None)
        assert count == expected
    scatter = pca_scatter_svg(pca_project(MATRIX, 2, "zero-fill"))
    assert sum(1 for el in ET.fromstring(scatter).iter()
               if el.tag.endswith("}circle")) == 71
    report("criterion 7h (svg checks)",
           "10 panels well-formed with exact circle counts, scatter has 71")


def test_criterion_8_row_order_determinism(tmp_path):
    from apspace.ingest import fixture_path
    header, *rows = fixture_path("thesis_scores.csv").read_text(
        encoding="utf-8").splitlines()
    outputs = []
    for name, ordered in (("as_given", rows), ("reversed", rows[::-1])):
        source = tmp_path / f"{name}.csv"
        source.write_text("\n".join([header, *ordered]) + "\n",
                          encoding="utf-8")
        out = tmp_path / name
        code = run(["select", "--size", "2..4", "--top", "3",
                    "-i", str(source), "-o", str(out)])
        assert code == 0
        outputs.append((out / "selections.csv").read_bytes())
    assert outputs[0] == outputs[1]
    report("criterion 8 (determinism)",
           "selections.csv byte-identical for input rows as given "
           "and reversed")
