"""Algorithm performance spaces.

A benchmark run produces a datasets x algorithms matrix of scores; this
package treats that matrix as a geometric space (axes = algorithms,
points = datasets) and offers per-dataset difficulty/variance metrics,
diversity scoring and subset search over it, PCA projection, and SVG
scatter plots.  See the ``aps`` command for the batch front end.
"""

from .core import (ApsError, DuplicateCellError, EmptyRowError,
                   InvalidLabelError, LengthMismatchError, PerformanceMatrix,
                   ScoreOutOfRangeError, UnknownAlgorithmError,
                   UnknownDatasetError, ZeroColumnError, build_matrix,
                   complete_rows)
from .ingest import (ValidationReport, load_thesis_matrix, parse_long,
                     parse_wide, validate, write_long, write_wide)
from .metrics import (DiversityBreakdown, MetricReport, MetricRow, difficulty,
                      diversity, metric_table, pairwise_distances, variance)
from .pca import PcaProjection, covariance, eigh_symmetric, pca_project, pearson
from .search import (SearchResult, Selection, exhaustive_search, greedy_search,
                     score_selection)
from .viz import (GridResult, HighlightGroup, PlotSpec, mini_aps_grid,
                  mini_aps_svg, pca_scatter_svg)

__version__ = "0.1.0"

__all__ = [
    "ApsError", "DuplicateCellError", "EmptyRowError", "InvalidLabelError",
    "LengthMismatchError", "PerformanceMatrix",
    "ScoreOutOfRangeError", "UnknownAlgorithmError", "UnknownDatasetError",
    "ZeroColumnError", "build_matrix", "complete_rows",
    "ValidationReport", "load_thesis_matrix", "parse_long", "parse_wide",
    "validate", "write_long", "write_wide",
    "DiversityBreakdown", "MetricReport", "MetricRow", "difficulty",
    "diversity", "metric_table", "pairwise_distances", "variance",
    "PcaProjection", "covariance", "eigh_symmetric", "pca_project", "pearson",
    "SearchResult", "Selection", "exhaustive_search", "greedy_search",
    "score_selection",
    "GridResult", "HighlightGroup", "PlotSpec", "mini_aps_grid",
    "mini_aps_svg", "pca_scatter_svg",
    "__version__",
]
