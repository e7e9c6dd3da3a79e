"""Deterministic SVG scatter plots, emitted as plain text.

No plotting library: every element is written with fixed formatting
(coordinates at 2 decimals), so the same inputs always produce the same
bytes.  Two plot families:

* mini plots — one algorithm axis vs another, scores normalized by the
  max among the datasets actually plotted, ticks at 0 / 0.5 / 1;
* PCA scatter — a 2-component projection, optionally colored by a
  per-dataset metric on a two-color gradient.

Every point is a ``<circle>`` carrying a ``<title>`` child with the
dataset name, which browsers show as a hover tooltip.
"""

import re
from dataclasses import dataclass
from html import escape as _html_escape
from itertools import combinations, compress, permutations
from typing import Iterable, Sequence

import numpy as np

from .core import (ApsError, LengthMismatchError, PerformanceMatrix,
                   ZeroColumnError)
from .metrics import DimensionMismatchError
from .pca import BadComponentCountError, PcaProjection

_HEX_COLOR = re.compile(r"^#[0-9a-fA-F]{6}$")

_POINT_COLOR = "#4477aa"
_HIGHLIGHT_FALLBACK = "#cc3311"
_GRADIENT_LOW = "#2c7bb6"
_GRADIENT_HIGH = "#d7191c"
_NEUTRAL = "#999999"
_AXIS_COLOR = "#333333"

_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 18.0
_MARGIN_BOTTOM = 78.0


class NoPlottablePointsError(ApsError):
    """No dataset has a present score on both requested axes."""


class SameAlgorithmError(ApsError):
    """A scatter of an algorithm against itself was requested."""


def _check_color(value: str, what: str) -> str:
    if not _HEX_COLOR.match(value):
        raise ValueError(f"{what} must be #rrggbb, got {value!r}")
    return value


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
        _check_color(self.color, f"highlight group {self.name!r} color")


@dataclass(frozen=True)
class PlotSpec:
    """Rendering knobs shared by all plot kinds."""

    width_px: float = 600.0
    height_px: float = 600.0
    point_radius_px: float = 4.0
    point_color: str = _POINT_COLOR
    highlight_groups: tuple[HighlightGroup, ...] = ()
    color_by: str | None = None

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("plot dimensions must be positive")
        if self.point_radius_px <= 0:
            raise ValueError("point radius must be positive")
        _check_color(self.point_color, "point color")


@dataclass(frozen=True)
class GridResult:
    """All pairwise mini plots plus warnings for the skipped pairs."""

    plots: tuple[tuple[str, str], ...]   # (label, svg document)
    warnings: tuple[str, ...]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text; quotes are left as is."""
    return _html_escape(text, quote=False)


def _lerp_color(low: str, high: str, t: float) -> str:
    channels = []
    for i in (1, 3, 5):
        a, b = int(low[i:i + 2], 16), int(high[i:i + 2], 16)
        channels.append(round(a + (b - a) * t))
    return "#{:02x}{:02x}{:02x}".format(*channels)


class _Frame:
    """Maps unit/data coordinates onto the pixel plot area."""

    def __init__(self, spec: PlotSpec):
        self.spec = spec
        self.left = _MARGIN_LEFT
        self.right = spec.width_px - _MARGIN_RIGHT
        self.top = _MARGIN_TOP
        self.bottom = spec.height_px - _MARGIN_BOTTOM

    def x(self, frac: float) -> float:
        return self.left + frac * (self.right - self.left)

    def y(self, frac: float) -> float:
        return self.bottom - frac * (self.bottom - self.top)


def _open_svg(spec: PlotSpec) -> list[str]:
    w, h = _fmt(spec.width_px), _fmt(spec.height_px)
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0.00" y="0.00" width="{w}" height="{h}" fill="#ffffff"/>',
    ]


def _axes(frame: _Frame, x_label: str, y_label: str,
          tick_labels: tuple[str, str, str]) -> list[str]:
    """Plot border, 0/0.5/1 ticks on both axes, and axis titles."""
    parts = []
    parts.append(
        f'<rect x="{_fmt(frame.left)}" y="{_fmt(frame.top)}" '
        f'width="{_fmt(frame.right - frame.left)}" '
        f'height="{_fmt(frame.bottom - frame.top)}" '
        f'fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>')
    for frac, label in zip((0.0, 0.5, 1.0), tick_labels):
        px = frame.x(frac)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(frame.bottom)}" '
            f'x2="{_fmt(px)}" y2="{_fmt(frame.bottom + 5)}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(frame.bottom + 18)}" '
            f'font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{_escape(label)}</text>')
        py = frame.y(frac)
        parts.append(
            f'<line x1="{_fmt(frame.left - 5)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(frame.left)}" y2="{_fmt(py)}" '
            f'stroke="{_AXIS_COLOR}" stroke-width="1"/>')
        parts.append(
            f'<text x="{_fmt(frame.left - 8)}" y="{_fmt(py + 4)}" '
            f'font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{_escape(label)}</text>')
    mid_x = (frame.left + frame.right) / 2
    mid_y = (frame.top + frame.bottom) / 2
    parts.append(
        f'<text x="{_fmt(mid_x)}" y="{_fmt(frame.bottom + 38)}" '
        f'font-family="sans-serif" font-size="13" '
        f'text-anchor="middle">{_escape(x_label)}</text>')
    parts.append(
        f'<text x="{_fmt(frame.left - 40)}" y="{_fmt(mid_y)}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 {_fmt(frame.left - 40)} {_fmt(mid_y)})">'
        f'{_escape(y_label)}</text>')
    return parts


def _point_tails(spec: PlotSpec, names: Sequence[str],
                 fills: Sequence[str] | None = None
                 ) -> tuple[list[int], list[str]]:
    """Draw order of the points and each one's circle text after ``cy``.

    With ``fills``, point ``i`` takes ``fills[i]`` and input order is
    kept.  Otherwise a point takes the color of the first highlight
    group whose prefix matches its name, else ``point_color``; plain
    points are drawn first, then each group in turn, so highlights stay
    on top.  ``tails`` follows the draw order.
    """
    groups = spec.highlight_groups
    colors = (spec.point_color, *(g.color for g in groups))
    layers = [0] * len(names)
    if fills is None and groups:  # no per-point scan for plain plots
        layers = [next((n for n, g in enumerate(groups, 1)
                        if name.startswith(g.prefix)), 0) for name in names]
    order = sorted(range(len(names)), key=layers.__getitem__)  # stable
    if fills is None:
        fills = [colors[layer] for layer in layers]
    r = _fmt(spec.point_radius_px)
    tails = [f' r="{r}" fill="{fills[i]}"><title>{_escape(names[i])}</title>'
             '</circle>' for i in order]
    return order, tails


def _pixel_text(px: np.ndarray) -> list[str]:
    """Pixel coordinates computed by numpy, formatted as :func:`_fmt` does.

    ``_Frame.x``/``_Frame.y`` over a float64 array do the same IEEE
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
    and each dataset's circle text, all in draw order.  Most plots of a
    grid scale an axis by the same column max, so each column's pixel
    text is formatted once per (axis, max) and kept as a numpy string
    array, which holds it in a third of the memory of a list of ``str``.
    """

    def __init__(self, matrix: PerformanceMatrix, spec: PlotSpec):
        self.matrix = matrix
        self.spec = spec
        self.frame = _Frame(spec)
        order, self.tails = _point_tails(spec, matrix.datasets)
        self.values = matrix.values[order]
        self.present = ~np.isnan(self.values)
        self._text: dict[tuple[str, int, float], np.ndarray] = {}

    def _column_text(self, axis: str, j: int, peak: float) -> np.ndarray:
        key = (axis, j, peak)
        if key not in self._text:
            to_pixel = self.frame.x if axis == "x" else self.frame.y
            self._text[key] = np.array(
                _pixel_text(to_pixel(self.values[:, j] / peak)))
        return self._text[key]

    def svg(self, algo_x: str, algo_y: str) -> str:
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
        parts = _open_svg(self.spec)
        parts += _axes(self.frame, algo_x, algo_y, ("0", "0.5", "1"))
        parts += _circles(self._column_text("x", jx, max_x)[both].tolist(),
                          self._column_text("y", jy, max_y)[both].tolist(),
                          compress(self.tails, both.tolist()))
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def mini_aps_svg(matrix: PerformanceMatrix, algo_x: str, algo_y: str,
                 spec: PlotSpec | None = None) -> str:
    """One 2-D slice of the space: ``algo_x`` scores against ``algo_y``.

    Only datasets with a present score on *both* axes appear; each axis
    is normalized by its own max among those datasets, so the best
    plotted dataset per axis sits at 1.0.  Highlighted groups (by name
    prefix) are drawn after the plain points so they stay visible.
    """
    return _MiniPlots(matrix, spec or PlotSpec()).svg(algo_x, algo_y)


def mini_aps_grid(matrix: PerformanceMatrix, spec: PlotSpec | None = None,
                  ordered: bool = False) -> GridResult:
    """Every pairwise mini plot, labeled ``<x>_vs_<y>``.

    Unordered pairs by default (x before y in matrix column order);
    ``ordered=True`` renders both orientations.  Pairs with no common
    dataset are skipped with a warning instead of failing the batch.
    """
    if matrix.n_algorithms < 2:
        raise DimensionMismatchError("grid needs at least 2 algorithms")
    plotter = _MiniPlots(matrix, spec or PlotSpec())
    pairs = permutations if ordered else combinations
    plots, warnings = [], []
    for x, y in pairs(matrix.algorithms, 2):
        try:
            svg = plotter.svg(x, y)
        except NoPlottablePointsError:
            warnings.append(f"{x} vs {y}: no datasets with both scores; skipped")
            continue
        plots.append((f"{x}_vs_{y}", svg))
    return GridResult(plots=tuple(plots), warnings=tuple(warnings))


def _legend(frame: _Frame, title: str, low_label: str, high_label: str,
            constant: bool) -> list[str]:
    """Horizontal gradient strip under the x-axis title."""
    parts = []
    y = frame.bottom + 48.0
    x0 = frame.left
    seg_w = 20.0
    parts.append(
        f'<text x="{_fmt(x0)}" y="{_fmt(y + 11)}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{_escape(title)}:&#160;</text>')
    if constant:
        parts.append(
            f'<rect x="{_fmt(x0 + 4)}" y="{_fmt(y)}" width="{_fmt(seg_w)}" '
            f'height="14.00" fill="{_GRADIENT_LOW}"/>')
        parts.append(
            f'<text x="{_fmt(x0 + seg_w + 10)}" y="{_fmt(y + 11)}" '
            f'font-family="sans-serif" font-size="11">'
            f'{_escape(low_label)}</text>')
        return parts
    for i in range(8):
        color = _lerp_color(_GRADIENT_LOW, _GRADIENT_HIGH, i / 7.0)
        parts.append(
            f'<rect x="{_fmt(x0 + 4 + i * seg_w)}" y="{_fmt(y)}" '
            f'width="{_fmt(seg_w)}" height="14.00" fill="{color}"/>')
    parts.append(
        f'<text x="{_fmt(x0 + 4)}" y="{_fmt(y + 26)}" '
        f'font-family="sans-serif" font-size="11" text-anchor="start">'
        f'{_escape(low_label)}</text>')
    parts.append(
        f'<text x="{_fmt(x0 + 4 + 8 * seg_w)}" y="{_fmt(y + 26)}" '
        f'font-family="sans-serif" font-size="11" text-anchor="end">'
        f'{_escape(high_label)}</text>')
    return parts


def pca_scatter_svg(projection: PcaProjection,
                    metric_values=None,
                    spec: PlotSpec | None = None) -> str:
    """Scatter of a 2-component projection.

    Axis labels carry the explained-variance share of each component at
    two significant figures.  When ``metric_values`` is given (one value
    per projected dataset, ``None`` entries allowed), points are filled
    on a low-to-high gradient with a legend; missing values render
    neutral gray.  A constant metric gets a single-swatch legend.
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
    frame = _Frame(spec)
    pct = [float(r) * 100.0 for r in projection.explained_variance_ratio[:2]]
    x_label = f"component 1 ({pct[0]:.2g}% of variance)"
    y_label = f"component 2 ({pct[1]:.2g}% of variance)"
    tick_of = lambda lo, hi: (f"{lo:.2f}", f"{(lo + hi) / 2:.2f}", f"{hi:.2f}")
    parts = _open_svg(spec)
    parts += _axes(frame, x_label, y_label, tick_of(x_lo, x_hi))

    fills = None
    legend = []
    if metric_values is not None:
        present = [v for v in metric_values if v is not None]
        if not present:
            raise NoPlottablePointsError("every metric value is missing")
        v_lo, v_hi = min(present), max(present)
        constant = v_hi == v_lo
        span = v_hi - v_lo if not constant else 1.0  # constant: all low
        fills = [_NEUTRAL if v is None else
                 _lerp_color(_GRADIENT_LOW, _GRADIENT_HIGH, (v - v_lo) / span)
                 for v in metric_values]
        legend = _legend(frame, spec.color_by or "metric", f"{v_lo:.4f}",
                         "" if constant else f"{v_hi:.4f}", constant)
    order, tails = _point_tails(spec, names, fills)
    fx = (xs[order] - x_lo) / (x_hi - x_lo)
    fy = (ys[order] - y_lo) / (y_hi - y_lo)
    parts += _circles(_pixel_text(frame.x(fx)), _pixel_text(frame.y(fy)),
                      tails)
    parts += legend
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
