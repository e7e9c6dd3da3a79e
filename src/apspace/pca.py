"""Principal-component projection of the performance space.

Built from first principles on purpose: sample covariance, a cyclic
Jacobi eigensolver, and a centered projection.  ``numpy`` supplies array
arithmetic only — none of ``numpy.linalg`` is used — so every number
here is reproducible from the code on this page.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ApsError, LengthMismatchError, PerformanceMatrix

# the first value is the default
IMPUTATION_MODES = ("complete-rows-only", "zero-fill", "mean-fill")
# Jacobi sweeps before eigh_symmetric gives up
_MAX_SWEEPS = 100


class TooFewRowsError(ApsError):
    """Fewer than two observations; covariance is undefined."""


class NotSymmetricError(ApsError):
    """The eigensolver was handed a non-square or asymmetric matrix."""


class NoConvergenceError(ApsError):
    """Jacobi sweeps hit the cap without reaching the off-diagonal target."""


class BadComponentCountError(ApsError):
    """Requested component count is outside 1..n_axes."""


class ConstantInputError(ApsError):
    """Correlation of a zero-variance sequence is undefined."""


def covariance(data) -> np.ndarray:
    """Sample covariance (1/(m-1)) of an (m, n) array.

    Expects column-centered input; this is not re-checked, callers that
    center themselves would otherwise pay for it twice.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise TooFewRowsError(
            f"covariance needs a 2-D array with >= 2 rows, got shape {x.shape}")
    return x.T @ x / (x.shape[0] - 1)


def eigh_symmetric(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps the strict upper triangle in row-major order, rotating each
    (p, q) plane to zero that entry, until the off-diagonal Frobenius
    mass drops below 1e-12 of the matrix norm.  Returns eigenvalues in
    descending order (stable sort, so equal values keep their sweep
    order) and the matching eigenvectors as columns.  Each vector is
    sign-fixed so its largest-magnitude entry (lowest index on ties) is
    positive, making the output fully deterministic.  Raises
    :class:`NoConvergenceError` after ``_MAX_SWEEPS`` sweeps.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    if a.size and float(np.abs(a - a.T).max()) > 1e-9 * scale:
        raise NotSymmetricError("matrix is not symmetric within 1e-9")
    a = (a + a.T) / 2.0  # fold in any sub-tolerance asymmetry
    n = a.shape[0]
    fro = math.sqrt(float((a * a).sum()))  # invariant under the rotations
    # Rotate Python lists: at these sizes numpy's per-slice call cost
    # dominates, and each element sees the same IEEE multiplies and
    # subtractions as the row and column slice updates would give it.
    # ``vt[j]`` is column j of the eigenvector matrix.
    a = a.tolist()
    vt = np.eye(n).tolist()
    sweeps = 0
    while True:
        # sum the off-diagonal entries directly: subtracting the diagonal
        # mass from the total cancels catastrophically near convergence
        stripped = np.array(a, dtype=float).reshape(n, n)
        np.fill_diagonal(stripped, 0.0)
        off = math.sqrt(float((stripped * stripped).sum()))
        if off <= 1e-12 * fro:
            break
        if sweeps >= _MAX_SWEEPS:
            raise NoConvergenceError(
                f"no convergence after {_MAX_SWEEPS} Jacobi sweeps")
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # exact symmetry since the fold: a rotation writes one float
                # to an entry and its mirror, so rows p, q are columns p, q
                rp, rq = ([c * x - s * y for x, y in zip(a[p], a[q])],
                          [s * x + c * y for x, y in zip(a[p], a[q])])
                rp[p], rq[q] = c * rp[p] - s * rp[q], s * rq[p] + c * rq[q]
                rp[q] = rq[p] = 0.0
                for row, x, y in zip(a, rp, rq):
                    row[p], row[q] = x, y
                a[p], a[q] = rp, rq
                vt[p], vt[q] = ([c * x - s * y for x, y in zip(vt[p], vt[q])],
                                [s * x + c * y for x, y in zip(vt[p], vt[q])])
    vals = np.array([a[j][j] for j in range(n)], dtype=float)
    # C order: BLAS may round the projection differently for another layout
    v = np.array(vt, dtype=float).reshape(n, n).T.copy()
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    v = v[:, order]
    for j in range(n):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0.0:
            v[:, j] = -v[:, j]
    return vals, v


@dataclass(frozen=True, eq=False)
class PcaProjection:
    """A k-component projection of the dataset point cloud."""

    dataset_ids: tuple[str, ...]
    coordinates: np.ndarray            # (m, k) projected points
    components: np.ndarray             # (k, n) rows are unit axis vectors
    explained_variance_ratio: np.ndarray  # (k,) of the full-spectrum total
    eigenvalues: np.ndarray            # full spectrum, descending
    column_means: np.ndarray           # (n,) centering offsets
    imputation: str


def pca_project(matrix: PerformanceMatrix, k: int = 2,
                imputation: str = IMPUTATION_MODES[0]) -> PcaProjection:
    """Project datasets onto the top-k principal axes of their spread.

    Gap handling is explicit via ``imputation``:

    * ``complete-rows-only`` — drop datasets with any gap (default);
    * ``zero-fill``          — gaps become 0.0 (treats a missing result
      as a zero score, which drags those points toward the origin);
    * ``mean-fill``          — gaps become their column's present-value
      mean (``matrix.present_mean(axis=0)``), i.e. missing results are
      assumed unremarkable.  This is the mode that reproduces the
      bundled fixture's published figures.
    """
    if imputation not in IMPUTATION_MODES:
        raise ValueError(f"unknown imputation mode {imputation!r}")
    n = matrix.n_algorithms
    if not 1 <= k <= n:
        raise BadComponentCountError(
            f"component count {k} outside 1..{n}")
    if imputation == "complete-rows-only":
        names = [d for d, ok in zip(matrix.datasets, matrix.complete) if ok]
        x = matrix.values[matrix.complete]
    else:
        fills = (matrix.present_mean(axis=0)
                 if imputation == "mean-fill" else 0.0)
        names = list(matrix.datasets)
        x = np.where(matrix.present, matrix.values, fills)
    if len(x) < 2:
        raise TooFewRowsError(
            f"projection needs >= 2 usable rows, got {len(x)}")
    means = x.mean(axis=0)
    centered = x - means
    vals, vecs = eigh_symmetric(covariance(centered))
    total = float(vals.sum())
    ratios = vals / total if total > 0.0 else np.zeros_like(vals)
    return PcaProjection(
        dataset_ids=tuple(names),
        coordinates=centered @ vecs[:, :k],
        components=vecs[:, :k].T.copy(),
        explained_variance_ratio=ratios[:k].copy(),
        eigenvalues=vals,
        column_means=means,
        imputation=imputation,
    )


def pearson(a, b) -> float:
    """Pearson correlation of two equal-length sequences.

    Raises :class:`LengthMismatchError` on different lengths and
    :class:`ConstantInputError` when either side has zero variance
    (including length < 2, where variance is vacuously zero).
    """
    xa = np.asarray(a, dtype=float).ravel()
    xb = np.asarray(b, dtype=float).ravel()
    if xa.shape != xb.shape:
        raise LengthMismatchError(
            f"length mismatch: {xa.shape[0]} vs {xb.shape[0]}")
    da = xa - xa.mean() if xa.size else xa
    db = xb - xb.mean() if xb.size else xb
    denom = math.sqrt(float((da * da).sum()) * float((db * db).sum()))
    if denom == 0.0:
        raise ConstantInputError(
            "correlation undefined for constant (or < 2 element) input")
    return float((da * db).sum() / denom)
