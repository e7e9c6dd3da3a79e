"""Deterministic SVG scatter plots, emitted as plain text.

No plotting library: every element is written with fixed formatting
(coordinates at 2 decimals), so the same inputs always produce the same
bytes.  Two plot families:

* mini plots — one algorithm axis vs another, scores normalized by the
  max among the datasets actually plotted, ticks at 0 / 0.5 / 1;
* PCA scatter — a 2-component projection, optionally colored by a
  per-dataset metric on a two-color gradient.

Every document is 600 x 600 px with the same frame; a :class:`PlotSpec`
picks only the highlight groups and the legend title.  Every point is a
``<circle>`` of radius 4 px carrying a ``<title>`` child with the
dataset name, which browsers show as a hover tooltip.
"""

import math
import re
from dataclasses import dataclass
from html import escape as _html_escape
from itertools import combinations, compress, permutations
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (ApsError, LengthMismatchError, PerformanceMatrix,
                   ZeroColumnError)
from .metrics import DimensionMismatchError
from .pca import BadComponentCountError, PcaProjection

_HEX_COLOR = re.compile(r"^#[0-9a-fA-F]{6}$")
# not allowed in an XML 1.0 document, not even as a character reference
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

_POINT_COLOR = "#4477aa"
_HIGHLIGHT_FALLBACK = "#cc3311"
_GRADIENT_LOW = "#2c7bb6"
_GRADIENT_HIGH = "#d7191c"
_NEUTRAL = "#999999"
_AXIS_COLOR = "#333333"

# every document is _SIZE x _SIZE px; the plot area spans these pixels,
# and each point is a circle of radius _RADIUS px
_SIZE = 600.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 62.0, 582.0, 18.0, 522.0
_RADIUS = 4.0


class NoPlottablePointsError(ApsError):
    """No dataset has a present score on both requested axes."""


class SameAlgorithmError(ApsError):
    """A scatter of an algorithm against itself was requested."""


@dataclass(frozen=True)
class HighlightGroup:
    """Color every dataset whose name starts with ``prefix``."""

    name: str
    prefix: str
    color: str = _HIGHLIGHT_FALLBACK

    def __post_init__(self):
        if not self.name:
            raise ValueError("highlight group needs a name")
        if not self.prefix:
            raise ValueError(f"highlight group {self.name!r} needs a prefix")
        if not _HEX_COLOR.match(self.color):
            raise ValueError(f"highlight group {self.name!r} color must be "
                             f"#rrggbb, got {self.color!r}")


@dataclass(frozen=True)
class PlotSpec:
    """What a plot shows beyond its data.

    ``highlight_groups`` colors datasets by name prefix, such as the
    MovieLens family, the first matching group winning, and draws them
    over the plain points.  ``color_by`` titles the legend of a PCA
    scatter shaded by a metric.  The geometry is fixed (see the module).
    """

    highlight_groups: tuple[HighlightGroup, ...] = ()
    color_by: str | None = None


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text and put U+FFFD for each
    character XML 1.0 does not allow; quotes are left as is."""
    return _NOT_XML.sub("\ufffd", _html_escape(text, quote=False))


def _lerp_color(low: str, high: str, t: float) -> str:
    channels = []
    for i in (1, 3, 5):
        a, b = int(low[i:i + 2], 16), int(high[i:i + 2], 16)
        channels.append(round(a + (b - a) * t))
    return "#{:02x}{:02x}{:02x}".format(*channels)


def _x(frac):
    """Pixel column of a fraction of the x axis, a float or an array."""
    return _LEFT + frac * (_RIGHT - _LEFT)


def _y(frac):
    """Pixel row of a fraction of the y axis, a float or an array."""
    return _BOTTOM - frac * (_BOTTOM - _TOP)


def _text(x: float, y: float, label: str, size: int = 11,
          anchor: str | None = "middle", rotate: bool = False,
          suffix: str = "") -> str:
    """``label`` escaped, then ``suffix`` as written; ``rotate`` turns it
    a quarter turn counter-clockwise about its anchor point."""
    x, y = _fmt(x), _fmt(y)
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="rotate(-90 {x} {y})"' if rotate else ""
    return (f'<text x="{x}" y="{y}" font-family="sans-serif" '
            f'font-size="{size}"{anchor}{turn}>{_escape(label)}{suffix}</text>')


def _rect(x: float, y: float, width: float, height: float, paint: str) -> str:
    return (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" {paint}/>')


def _tick(x1: float, y1: float, x2: float, y2: float) -> str:
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{_AXIS_COLOR}" stroke-width="1"/>')


def _document(x_label: str, y_label: str, ticks: tuple[str, str, str],
              circles: Iterable[str], legend: Iterable[str] = ()) -> str:
    """One plot: background, frame, the ``ticks`` labels at 0, 0.5 and 1
    of both axes, axis titles, then ``circles`` and ``legend``."""
    size = _fmt(_SIZE)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             _rect(0.0, 0.0, _SIZE, _SIZE, 'fill="#ffffff"'),
             _rect(_LEFT, _TOP, _RIGHT - _LEFT, _BOTTOM - _TOP,
                   f'fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"')]
    for frac, label in zip((0.0, 0.5, 1.0), ticks):
        px, py = _x(frac), _y(frac)
        parts += [_tick(px, _BOTTOM, px, _BOTTOM + 5),
                  _text(px, _BOTTOM + 18, label),
                  _tick(_LEFT - 5, py, _LEFT, py),
                  _text(_LEFT - 8, py + 4, label, anchor="end")]
    parts += [_text((_LEFT + _RIGHT) / 2, _BOTTOM + 38, x_label, size=13),
              _text(_LEFT - 40, (_TOP + _BOTTOM) / 2, y_label, size=13,
                    rotate=True),
              *circles, *legend, "</svg>"]
    return "\n".join(parts) + "\n"


def _point_tails(spec: PlotSpec, names: Sequence[str],
                 fills: Sequence[str] | None = None
                 ) -> tuple[list[int], list[str]]:
    """Draw order of the points and each one's circle text after ``cy``.

    With ``fills``, point ``i`` takes ``fills[i]`` and input order is
    kept.  Otherwise a point takes the color of the first highlight
    group whose prefix matches its name, else the plain color; plain
    points are drawn first, then each group in turn, so highlights stay
    on top.  ``tails`` follows the draw order.
    """
    groups = spec.highlight_groups
    colors = (_POINT_COLOR, *(g.color for g in groups))
    layers = [0] * len(names)
    if fills is None and groups:  # no per-point scan for plain plots
        layers = [next((n for n, g in enumerate(groups, 1)
                        if name.startswith(g.prefix)), 0) for name in names]
    order = sorted(range(len(names)), key=layers.__getitem__)  # stable
    if fills is None:
        fills = [colors[layer] for layer in layers]
    r = _fmt(_RADIUS)
    tails = [f' r="{r}" fill="{fills[i]}"><title>{_escape(names[i])}</title>'
             '</circle>' for i in order]
    return order, tails


def _pixel_text(px: np.ndarray) -> list[str]:
    """Pixel coordinates computed by numpy, formatted as :func:`_fmt` does.

    :func:`_x`/:func:`_y` over a float64 array do the same IEEE
    divide, multiply and add per point as over one Python float.
    """
    return [f"{p:.2f}" for p in px.tolist()]


def _circles(cx: Iterable[str], cy: Iterable[str],
             tails: Iterable[str]) -> list[str]:
    """One circle per point from its formatted pixel coordinates and its
    text after ``cy`` (see :func:`_point_tails`)."""
    return [f'<circle cx="{x}" cy="{y}"{tail}'
            for x, y, tail in zip(cx, cy, tails)]


class _MiniPlots:
    """What every mini plot of one matrix shares, built once per grid.

    The scores as float64 with NaN for gaps, the mask of present cells,
    each column's max and each dataset's circle text, all in draw order.
    Most plots of a grid scale an axis by its column's own max, so that
    column's pixel text is formatted once per axis and kept as a numpy
    string array: at most two per column, however many pairs plot it.
    A plot whose datasets leave the column max out formats the text of
    its own points and keeps none of it.
    """

    def __init__(self, matrix: PerformanceMatrix, spec: PlotSpec):
        self.matrix = matrix
        order, self.tails = _point_tails(spec, matrix.datasets)
        self.values = matrix.values[order]
        self.present = ~np.isnan(self.values)
        self._column_max = np.fmax.reduce(self.values, axis=0,
                                          initial=-np.inf)
        self._text: dict[tuple[Callable, int], np.ndarray] = {}

    def _axis_text(self, to_pixel: Callable, j: int, peak: float,
                   both: np.ndarray) -> list[str]:
        """Pixel text of column ``j`` scaled by ``peak`` and placed by
        ``to_pixel`` (:func:`_x` or :func:`_y`), for the datasets in
        ``both``."""
        if peak != self._column_max[j]:
            return _pixel_text(to_pixel(self.values[both, j] / peak))
        if (to_pixel, j) not in self._text:
            self._text[to_pixel, j] = np.array(
                _pixel_text(to_pixel(self.values[:, j] / peak)))
        return self._text[to_pixel, j][both].tolist()

    def scope(self, algo_x: str, algo_y: str
              ) -> tuple[int, int, float, float]:
        """Column indices and axis peaks of one plot, all that
        :meth:`svg` needs; raises the error that makes the plot
        impossible."""
        if algo_x == algo_y:
            raise SameAlgorithmError(
                f"cannot plot algorithm {algo_x!r} against itself")
        jx = self.matrix.algorithm_index(algo_x)
        jy = self.matrix.algorithm_index(algo_y)
        both = self.present[:, jx] & self.present[:, jy]
        if not both.any():
            raise NoPlottablePointsError(
                f"no dataset has scores for both {algo_x!r} and {algo_y!r}")
        max_x = float(self.values[both, jx].max())
        max_y = float(self.values[both, jy].max())
        if max_x <= 0.0:
            raise ZeroColumnError(
                f"axis {algo_x!r} has no positive score among plotted datasets")
        if max_y <= 0.0:
            raise ZeroColumnError(
                f"axis {algo_y!r} has no positive score among plotted datasets")
        return jx, jy, max_x, max_y

    def svg(self, jx: int, jy: int, max_x: float, max_y: float) -> str:
        """The document of the plot :meth:`scope` returned."""
        both = self.present[:, jx] & self.present[:, jy]
        algorithms = self.matrix.algorithms
        return _document(algorithms[jx], algorithms[jy], ("0", "0.5", "1"),
                         _circles(self._axis_text(_x, jx, max_x, both),
                                  self._axis_text(_y, jy, max_y, both),
                                  compress(self.tails, both.tolist())))


class PlotSequence(Sequence[tuple[str, str]]):
    """The ``(label, svg document)`` of each plottable pair of a grid.

    Sized and re-iterable, but lazy: indexing renders that one document
    and every iteration renders afresh.  Only each pair's scope (see
    :meth:`_MiniPlots.scope`) is kept, so memory holds only the
    documents the caller keeps.  ``labels`` needs no rendering, and a
    slice is a sequence over fewer pairs that renders nothing either.
    Two sequences compare by identity, not by their documents: compare
    ``list(plots)`` for that.
    """

    def __init__(self, plotter: _MiniPlots,
                 scopes: Sequence[tuple[int, int, float, float]]):
        self._plotter = plotter
        self._scopes = tuple(scopes)
        names = plotter.matrix.algorithms
        self.labels = tuple(f"{names[jx]}_vs_{names[jy]}"
                            for jx, jy, _, _ in self._scopes)

    def __len__(self) -> int:
        return len(self._scopes)

    def __getitem__(self, index: int | slice
                    ) -> "tuple[str, str] | PlotSequence":
        if isinstance(index, slice):
            return PlotSequence(self._plotter, self._scopes[index])
        return self.labels[index], self._plotter.svg(*self._scopes[index])


@dataclass(frozen=True)
class GridResult:
    """The pairwise mini plots of a grid plus warnings for the skipped
    pairs.  ``plots`` renders on access (see :class:`PlotSequence`), so
    two results are equal only when they share that sequence."""

    plots: PlotSequence
    warnings: tuple[str, ...]


def mini_aps_svg(matrix: PerformanceMatrix, algo_x: str, algo_y: str,
                 spec: PlotSpec | None = None) -> str:
    """One 2-D slice of the space: ``algo_x`` scores against ``algo_y``.

    Only datasets with a present score on *both* axes appear; each axis
    is normalized by its own max among those datasets, so the best
    plotted dataset per axis sits at 1.0.  Highlighted groups (by name
    prefix) are drawn after the plain points so they stay visible.
    """
    plotter = _MiniPlots(matrix, spec or PlotSpec())
    return plotter.svg(*plotter.scope(algo_x, algo_y))


def mini_aps_grid(matrix: PerformanceMatrix, spec: PlotSpec | None = None,
                  ordered: bool = False) -> GridResult:
    """Every pairwise mini plot, labeled ``<x>_vs_<y>``.

    Unordered pairs by default (x before y in matrix column order);
    ``ordered=True`` renders both orientations.  Every pair is checked
    here, before any document is rendered: pairs with no common dataset
    are skipped with a warning instead of failing the batch, and a
    :class:`ZeroColumnError` is raised at the first pair that has one.
    The documents themselves render only when ``plots`` is read, each
    from the scope its pair was checked with.
    """
    if matrix.n_algorithms < 2:
        raise DimensionMismatchError("grid needs at least 2 algorithms")
    plotter = _MiniPlots(matrix, spec or PlotSpec())
    pairs = permutations if ordered else combinations
    scopes, warnings = [], []
    for x, y in pairs(matrix.algorithms, 2):
        try:
            scopes.append(plotter.scope(x, y))
        except NoPlottablePointsError:
            warnings.append(f"{x} vs {y}: no datasets with both scores; skipped")
    return GridResult(plots=PlotSequence(plotter, scopes),
                      warnings=tuple(warnings))


def _legend(title: str, low_label: str, high_label: str,
            constant: bool) -> list[str]:
    """Horizontal gradient strip under the x-axis title."""
    y = _BOTTOM + 48.0
    seg_w = 20.0
    parts = [_text(_LEFT, y + 11, title, anchor="end", suffix=":&#160;")]
    if constant:
        return [*parts,
                _rect(_LEFT + 4, y, seg_w, 14.0, f'fill="{_GRADIENT_LOW}"'),
                _text(_LEFT + seg_w + 10, y + 11, low_label, anchor=None)]
    for i in range(8):
        color = _lerp_color(_GRADIENT_LOW, _GRADIENT_HIGH, i / 7.0)
        parts.append(_rect(_LEFT + 4 + i * seg_w, y, seg_w, 14.0,
                           f'fill="{color}"'))
    return [*parts,
            _text(_LEFT + 4, y + 26, low_label, anchor="start"),
            _text(_LEFT + 4 + 8 * seg_w, y + 26, high_label, anchor="end")]


def pca_scatter_svg(projection: PcaProjection,
                    metric_values=None,
                    spec: PlotSpec | None = None) -> str:
    """Scatter of a 2-component projection.

    Axis labels carry the explained-variance share of each component at
    two significant figures.  When ``metric_values`` is given (one value
    per projected dataset, ``None`` entries allowed), points are filled
    on a low-to-high gradient with a legend; missing values render
    neutral gray.  A constant metric gets a single-swatch legend.  A NaN
    or infinite value raises ``ValueError``: only ``None`` marks a
    missing value.
    """
    spec = spec or PlotSpec()
    if projection.coordinates.shape[1] != 2:
        raise BadComponentCountError(
            "scatter needs a 2-component projection, got "
            f"{projection.coordinates.shape[1]}")
    names = projection.dataset_ids
    if metric_values is not None and len(metric_values) != len(names):
        raise LengthMismatchError(
            f"{len(metric_values)} metric values for {len(names)} datasets")
    xs = projection.coordinates[:, 0]
    ys = projection.coordinates[:, 1]
    spans = []
    for arr in (xs, ys):
        lo, hi = float(arr.min()), float(arr.max())
        pad = 0.05 * (hi - lo) if hi > lo else 0.5
        spans.append((lo - pad, hi + pad))
    (x_lo, x_hi), (y_lo, y_hi) = spans
    pct = [float(r) * 100.0 for r in projection.explained_variance_ratio[:2]]
    x_label = f"component 1 ({pct[0]:.2g}% of variance)"
    y_label = f"component 2 ({pct[1]:.2g}% of variance)"
    ticks = (f"{x_lo:.2f}", f"{(x_lo + x_hi) / 2:.2f}", f"{x_hi:.2f}")

    fills = None
    legend = []
    if metric_values is not None:
        for name, v in zip(names, metric_values):
            if v is not None and not math.isfinite(v):
                raise ValueError(
                    f"dataset {name!r} has metric value {v!r}; values must "
                    "be finite, and None marks a missing value")
        present = [v for v in metric_values if v is not None]
        if not present:
            raise NoPlottablePointsError("every metric value is missing")
        v_lo, v_hi = min(present), max(present)
        constant = v_hi == v_lo
        span = v_hi - v_lo if not constant else 1.0  # constant: all low
        fills = [_NEUTRAL if v is None else
                 _lerp_color(_GRADIENT_LOW, _GRADIENT_HIGH, (v - v_lo) / span)
                 for v in metric_values]
        legend = _legend(spec.color_by or "metric", f"{v_lo:.4f}",
                         "" if constant else f"{v_hi:.4f}", constant)
    order, tails = _point_tails(spec, names, fills)
    fx = (xs[order] - x_lo) / (x_hi - x_lo)
    fy = (ys[order] - y_lo) / (y_hi - y_lo)
    return _document(x_label, y_label, ticks,
                     _circles(_pixel_text(_x(fx)), _pixel_text(_y(fy)), tails),
                     legend)
