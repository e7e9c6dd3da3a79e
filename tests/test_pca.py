import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_matrix, random_matrix
from apspace import pca
from apspace.core import LengthMismatchError
from apspace.metrics import metric_table
from apspace.pca import (BadComponentCountError, ConstantInputError,
                         NoConvergenceError, NotSymmetricError,
                         TooFewRowsError, covariance, eigh_symmetric,
                         pca_project, pearson)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


# ---------------------------------------------------------------- covariance

def test_covariance_by_hand():
    # centered data: two points at +-(1, 1)
    c = covariance([[1.0, 1.0], [-1.0, -1.0]])
    np.testing.assert_allclose(c, [[2.0, 2.0], [2.0, 2.0]])


def test_covariance_matches_loop_oracle(rng):
    x = rng.standard_normal((20, 4))
    x = x - x.mean(axis=0)
    c = covariance(x)
    m, n = x.shape
    manual = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            manual[i, j] = sum(x[r, i] * x[r, j] for r in range(m)) / (m - 1)
    np.testing.assert_allclose(c, manual, atol=1e-12)


def test_covariance_too_few_rows():
    with pytest.raises(TooFewRowsError):
        covariance([[1.0, 2.0]])


# ------------------------------------------------------------ eigensolver

def test_eigh_diagonal_passthrough():
    vals, vecs = eigh_symmetric([[3.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(vals, [3.0, 1.0])
    np.testing.assert_allclose(vecs, np.eye(2))


def test_eigh_identity_is_stable():
    vals, vecs = eigh_symmetric(np.eye(3))
    np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(vecs, np.eye(3))


def test_eigh_two_by_two_exchange():
    vals, vecs = eigh_symmetric([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(vals, [1.0, -1.0], atol=1e-12)
    r = math.sqrt(0.5)
    # sign rule: the largest-magnitude entry (first on ties) is positive
    np.testing.assert_allclose(vecs, [[r, r], [r, -r]], atol=1e-12)


def test_eigh_rank_one():
    vals, vecs = eigh_symmetric([[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(vals, [2.0, 0.0], atol=1e-12)
    r = math.sqrt(0.5)
    np.testing.assert_allclose(np.abs(vecs[:, 0]), [r, r], atol=1e-12)
    assert vecs[0, 0] > 0


def test_eigh_zero_matrix():
    vals, vecs = eigh_symmetric(np.zeros((3, 3)))
    np.testing.assert_allclose(vals, np.zeros(3))
    np.testing.assert_allclose(vecs, np.eye(3))


def test_eigh_reconstructs_random_matrices(rng):
    for n in (2, 3, 5, 8, 12):
        a = random_symmetric(rng, n)
        vals, vecs = eigh_symmetric(a)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-8)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)
        assert all(vals[i] >= vals[i + 1] for i in range(n - 1))
        # eigenvalues agree with an independent solver
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(a)[::-1],
                                   atol=1e-9)


def test_eigh_deterministic(rng):
    a = random_symmetric(rng, 6)
    v1, e1 = eigh_symmetric(a)
    v2, e2 = eigh_symmetric(a)
    assert np.array_equal(v1, v2)
    assert np.array_equal(e1, e2)


def test_eigh_accepts_tiny_asymmetry():
    a = np.array([[1.0, 0.5], [0.5 + 1e-12, 2.0]])
    vals, _ = eigh_symmetric(a)
    assert vals[0] > vals[1]


def test_eigh_rejects_asymmetry_and_shape():
    with pytest.raises(NotSymmetricError):
        eigh_symmetric([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSymmetricError):
        eigh_symmetric(np.zeros((2, 3)))


def test_eigh_sweep_cap(rng, monkeypatch):
    a = random_symmetric(rng, 8)
    monkeypatch.setattr(pca, "_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergenceError,
                       match="^no convergence after 1 Jacobi sweeps$"):
        eigh_symmetric(a)
    # an already-diagonal input needs no sweeps at all
    monkeypatch.setattr(pca, "_MAX_SWEEPS", 0)
    vals, _ = eigh_symmetric(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(vals, [2.0, 1.0])


def _reference_eigh(a, max_sweeps=100):
    """The slice-based Jacobi solver, kept as the referee of the list one."""
    a = np.array(a, dtype=float)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    v = np.eye(n)
    fro = math.sqrt(float((a * a).sum()))
    sweeps = 0
    while True:
        stripped = a.copy()
        np.fill_diagonal(stripped, 0.0)
        off = math.sqrt(float((stripped * stripped).sum()))
        if off <= 1e-12 * fro:
            break
        if sweeps >= max_sweeps:
            raise NoConvergenceError(
                f"no convergence after {max_sweeps} Jacobi sweeps")
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                theta = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    v = v[:, order]
    for j in range(n):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0.0:
            v[:, j] = -v[:, j]
    return vals, v


@st.composite
def symmetric_matrices(draw):
    """Dense, repeated-eigenvalue, diagonal and zero-heavy inputs, n = 1..20."""
    n = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["dense", "few-values", "repeated",
                                 "diagonal"]))
    if kind == "repeated":
        # Q diag(lam) Q^T with each eigenvalue drawn from a set of two
        seed = draw(st.integers(0, 2**32 - 1))
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        lam = draw(st.lists(st.sampled_from([0.0, 2.5]), min_size=n,
                            max_size=n))
        a = q @ np.diag(lam) @ q.T
        return (a + a.T) / 2.0
    if kind == "few-values":
        entry = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5])
    else:
        entry = st.floats(-1e3, 1e3, allow_nan=False) | st.just(0.0)
    if kind == "diagonal":
        return np.diag(draw(st.lists(entry, min_size=n, max_size=n)))
    upper = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    a = np.triu(np.array(upper, dtype=float).reshape(n, n))
    return a + np.triu(a, 1).T


def _outcome(solve):
    try:
        return solve()
    except NoConvergenceError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices())
def test_eigh_matches_slice_reference(a):
    vals, vecs = eigh_symmetric(a)
    want_vals, want_vecs = _reference_eigh(a)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(vecs, want_vecs)
    # one sweep is too few for most inputs: both must fail, or agree
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pca, "_MAX_SWEEPS", 1)
        got = _outcome(lambda: eigh_symmetric(a))
    want = _outcome(lambda: _reference_eigh(a, max_sweeps=1))
    if isinstance(want, str):
        assert got == want == "no convergence after 1 Jacobi sweeps"
    else:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


# ---------------------------------------------------------------- projection

def test_pca_project_centers_and_reconstructs(rng):
    m = random_matrix(rng, 12, 4)
    proj = pca_project(m, k=4)
    # coordinates are centered per component
    np.testing.assert_allclose(proj.coordinates.mean(axis=0), np.zeros(4),
                               atol=1e-9)
    # full-rank projection loses nothing
    x = np.array([[float(v) for v in row] for row in m.cells])
    np.testing.assert_allclose(proj.coordinates @ proj.components,
                               x - proj.column_means, atol=1e-9)
    # components are orthonormal rows
    np.testing.assert_allclose(proj.components @ proj.components.T,
                               np.eye(4), atol=1e-10)


def test_pca_ratios_sum_to_one_over_spectrum(rng):
    m = random_matrix(rng, 15, 5)
    proj = pca_project(m, k=2)
    total = proj.eigenvalues / proj.eigenvalues.sum()
    assert float(total.sum()) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(proj.explained_variance_ratio, total[:2],
                               atol=1e-15)


def test_pca_collinear_points_have_one_component():
    m = make_matrix({f"d{i}": [0.1 * i, 0.2 * i, 0.05 * i] for i in range(5)})
    proj = pca_project(m, k=1)
    assert proj.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)


def test_pca_identical_rows_degenerate():
    # 0.25/0.5 center to exactly zero, so total variance is exactly 0
    # and the ratio guard (rather than fp noise) decides the output
    m = make_matrix({"a": [0.25, 0.5], "b": [0.25, 0.5], "c": [0.25, 0.5]})
    proj = pca_project(m, k=2)
    np.testing.assert_allclose(proj.explained_variance_ratio, [0.0, 0.0])


def test_pca_imputation_row_selection(fixture_matrix):
    complete = pca_project(fixture_matrix, 2, "complete-rows-only")
    assert len(complete.dataset_ids) == 39
    for mode in ("zero-fill", "mean-fill"):
        proj = pca_project(fixture_matrix, 2, mode)
        assert proj.dataset_ids == fixture_matrix.datasets


def test_pca_mean_fill_uses_present_column_means():
    m = make_matrix({"a": [0.2, 0.4], "b": [0.6, None], "c": [0.4, 0.8]})
    proj = pca_project(m, k=2, imputation="mean-fill")
    # column means over filled data equal the present-value means
    np.testing.assert_allclose(proj.column_means, [0.4, 0.6], atol=1e-12)


def test_pca_zero_fill_drags_toward_origin():
    m = make_matrix({"a": [0.2, 0.4], "b": [0.6, None], "c": [0.4, 0.8]})
    proj = pca_project(m, k=2, imputation="zero-fill")
    assert proj.column_means[1] == pytest.approx((0.4 + 0.0 + 0.8) / 3)


def test_pca_fixture_ratios_per_mode(fixture_matrix):
    zero = pca_project(fixture_matrix, 2, "zero-fill")
    np.testing.assert_allclose(zero.explained_variance_ratio,
                               [0.83873075, 0.09758829], atol=1e-6)
    mean = pca_project(fixture_matrix, 2, "mean-fill")
    np.testing.assert_allclose(mean.explained_variance_ratio,
                               [0.85199918, 0.08250972], atol=1e-6)
    full = pca_project(fixture_matrix, 2, "complete-rows-only")
    np.testing.assert_allclose(full.explained_variance_ratio,
                               [0.96269990, 0.01762184], atol=1e-6)


def test_pca_project_deterministic(fixture_matrix):
    a = pca_project(fixture_matrix, 2, "mean-fill")
    b = pca_project(fixture_matrix, 2, "mean-fill")
    assert np.array_equal(a.coordinates, b.coordinates)
    assert np.array_equal(a.components, b.components)


def test_pca_project_errors():
    m = make_matrix({"a": [0.1, 0.2], "b": [0.3, 0.4]})
    with pytest.raises(BadComponentCountError):
        pca_project(m, k=0)
    with pytest.raises(BadComponentCountError):
        pca_project(m, k=3)
    with pytest.raises(ValueError):
        pca_project(m, k=1, imputation="median-fill")
    gappy = make_matrix({"a": [0.1, 0.2], "b": [0.3, None]})
    with pytest.raises(TooFewRowsError):
        pca_project(gappy, k=1)  # only one complete row survives


# ------------------------------------------------------------------- pearson

def test_pearson_exact_correlations():
    a = [1.0, 2.0, 3.0, 4.0]
    assert pearson(a, [2 * v + 1 for v in a]) == pytest.approx(1.0)
    assert pearson(a, [-3 * v + 7 for v in a]) == pytest.approx(-1.0)
    assert pearson([1, -1, 1, -1], [1, 1, -1, -1]) == pytest.approx(0.0)


def test_pearson_affine_invariance(rng):
    a = rng.standard_normal(30)
    b = rng.standard_normal(30)
    base = pearson(a, b)
    assert pearson(a, 3.0 * b + 2.0) == pytest.approx(base, abs=1e-12)
    assert pearson(a, -2.0 * b) == pytest.approx(-base, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(LengthMismatchError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConstantInputError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConstantInputError):
        pearson([1.0], [2.0])


def test_pearson_fixture_difficulty_alignment(fixture_matrix):
    """Component 1 of the projection tracks difficulty almost perfectly."""
    table = metric_table(fixture_matrix)
    proj = pca_project(fixture_matrix, 2, "mean-fill")
    diffs = [table.row(d).difficulty for d in proj.dataset_ids]
    assert abs(pearson(proj.coordinates[:, 0], diffs)) == pytest.approx(
        0.95038474, abs=1e-6)
