import hashlib
from itertools import permutations
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import make_matrix
from apspace.core import (LengthMismatchError, UnknownAlgorithmError,
                          ZeroColumnError, build_matrix)
from apspace.metrics import DimensionMismatchError
from apspace.pca import BadComponentCountError, PcaProjection, pca_project
from apspace.viz import (HighlightGroup, NoPlottablePointsError, PlotSpec,
                         SameAlgorithmError, _MiniPlots, _fmt, _pixel_text,
                         _x, _y, mini_aps_grid, mini_aps_svg,
                         pca_scatter_svg)

SVG_NS = "{http://www.w3.org/2000/svg}"


def circles(svg: str):
    """Parse the document and pull out (cx, cy, fill, title) per point."""
    root = ET.fromstring(svg)
    out = []
    for el in root.iter(f"{SVG_NS}circle"):
        title = el.find(f"{SVG_NS}title")
        out.append((el.get("cx"), el.get("cy"), el.get("fill"),
                    None if title is None else title.text))
    return out


def tiny_projection(coords, ratios=(0.6, 0.3), ids=None):
    coords = np.asarray(coords, dtype=float)
    k = coords.shape[1]
    ids = tuple(ids or (f"p{i}" for i in range(coords.shape[0])))
    return PcaProjection(
        dataset_ids=ids,
        coordinates=coords,
        components=np.eye(k),
        explained_variance_ratio=np.asarray(ratios[:k], dtype=float),
        eigenvalues=np.asarray(ratios, dtype=float),
        column_means=np.zeros(k),
        imputation="complete-rows-only",
    )


# ------------------------------------------------------------------ mini plot

def test_mini_svg_is_well_formed(fixture_matrix):
    svg = mini_aps_svg(fixture_matrix, "BPR", "ItemKNN")
    root = ET.fromstring(svg)  # raises on malformed XML
    assert root.tag == f"{SVG_NS}svg"


def test_mini_plots_only_shared_datasets(fixture_matrix):
    pts = circles(mini_aps_svg(fixture_matrix, "BPR", "ItemKNN"))
    both = [d for d, row in zip(fixture_matrix.datasets, fixture_matrix.cells)
            if row[0] is not None and row[1] is not None]
    assert len(pts) == len(both) == 63
    assert {p[3] for p in pts} == set(both)


def test_mini_normalization_puts_best_at_the_corner(fixture_matrix):
    # Jester tops both axes, so it must sit at the top-right of the frame
    pts = circles(mini_aps_svg(fixture_matrix, "BPR", "SGL"))
    jester = next(p for p in pts if p[3] == "Jester")
    assert jester[0] == "582.00"  # width - right margin
    assert jester[1] == "18.00"   # top margin


def test_mini_single_dataset_plot():
    m = make_matrix({"only": [0.3, 0.2]})
    pts = circles(mini_aps_svg(m, "algo0", "algo1"))
    assert len(pts) == 1
    assert (pts[0][0], pts[0][1]) == ("582.00", "18.00")


def test_mini_axis_tick_labels(fixture_matrix):
    svg = mini_aps_svg(fixture_matrix, "BPR", "ItemKNN")
    for label in (">0<", ">0.5<", ">1<", ">BPR<", ">ItemKNN<"):
        assert label in svg


def test_mini_byte_deterministic(fixture_matrix):
    a = mini_aps_svg(fixture_matrix, "MultiVAE", "NeuMF")
    b = mini_aps_svg(fixture_matrix, "MultiVAE", "NeuMF")
    assert a == b


def test_mini_highlight_groups_color_and_order(fixture_matrix):
    spec = PlotSpec(highlight_groups=(
        HighlightGroup("movielens", "MovieLens", "#ff0000"),))
    pts = circles(mini_aps_svg(fixture_matrix, "BPR", "ItemKNN", spec))
    red = [p for p in pts if p[2] == "#ff0000"]
    assert {p[3] for p in red} == {d for d in fixture_matrix.datasets
                                  if d.startswith("MovieLens")
                                  and fixture_matrix.row(d)[0] is not None}
    # highlights are drawn last so they stay on top
    assert all(p[2] == "#ff0000" for p in pts[-len(red):])


def test_mini_first_matching_group_wins():
    m = make_matrix({"abx": [0.5, 0.5], "aby": [0.6, 0.6]})
    spec = PlotSpec(highlight_groups=(
        HighlightGroup("narrow", "abx", "#00ff00"),
        HighlightGroup("broad", "ab", "#0000ff"),
    ))
    pts = circles(mini_aps_svg(m, "algo0", "algo1", spec))
    fills = {p[3]: p[2] for p in pts}
    assert fills == {"abx": "#00ff00", "aby": "#0000ff"}


def test_mini_errors(fixture_matrix):
    with pytest.raises(SameAlgorithmError):
        mini_aps_svg(fixture_matrix, "BPR", "BPR")
    with pytest.raises(UnknownAlgorithmError):
        mini_aps_svg(fixture_matrix, "BPR", "NoSuchAlgo")
    disjoint = make_matrix({"a": [0.5, None], "b": [None, 0.5]})
    with pytest.raises(NoPlottablePointsError):
        mini_aps_svg(disjoint, "algo0", "algo1")
    zeros = make_matrix({"a": [0.0, 0.5], "b": [0.0, 0.7]})
    with pytest.raises(ZeroColumnError):
        mini_aps_svg(zeros, "algo0", "algo1")


def test_xml_escaping_in_names():
    m = make_matrix({"a&b<c>": [0.5, 0.5]}, algorithms=["x&y", "p<q"])
    svg = mini_aps_svg(m, "x&y", "p<q")
    pts = circles(svg)  # parsing succeeds => escaping worked
    assert pts[0][3] == "a&b<c>"


def test_characters_xml_forbids_become_replacement_characters():
    m = make_matrix({"bell\x07 \x01!": [0.5, 0.5]},
                    algorithms=["x\x1by", "p\ufffeq"])
    svg = mini_aps_svg(m, "x\x1by", "p\ufffeq")
    assert circles(svg)[0][3] == "bell\ufffd \ufffd!"
    assert ">x\ufffdy<" in svg and ">p\ufffdq<" in svg


# ---------------------------------------------------------------------- grid

def test_grid_fixture_unordered(fixture_matrix):
    grid = mini_aps_grid(fixture_matrix)
    assert len(grid.plots) == 10  # C(5, 2)
    assert grid.warnings == ()
    assert grid.plots[0][0] == "BPR_vs_ItemKNN"
    labels = [label for label, _ in grid.plots]
    assert labels == sorted_pairs_in_matrix_order(fixture_matrix)


def sorted_pairs_in_matrix_order(matrix):
    names = matrix.algorithms
    return [f"{names[i]}_vs_{names[j]}"
            for i in range(len(names)) for j in range(i + 1, len(names))]


def test_grid_ordered_doubles_the_panels(fixture_matrix):
    grid = mini_aps_grid(fixture_matrix, ordered=True)
    assert len(grid.plots) == 20
    labels = {label for label, _ in grid.plots}
    assert "BPR_vs_ItemKNN" in labels and "ItemKNN_vs_BPR" in labels


def test_grid_skips_pairs_without_common_datasets():
    m = make_matrix({"d1": [0.5, 0.5, None], "d2": [None, 0.5, 0.5]})
    grid = mini_aps_grid(m)
    assert [label for label, _ in grid.plots] == ["algo0_vs_algo1",
                                                  "algo1_vs_algo2"]
    assert grid.warnings == (
        "algo0 vs algo2: no datasets with both scores; skipped",)


def test_grid_plots_is_a_re_iterable_sequence(fixture_matrix):
    plots = mini_aps_grid(fixture_matrix, ordered=True).plots
    assert len(plots) == 20
    first, again = list(plots), list(plots)
    assert first == again
    assert plots[0] == first[0] and plots[-1] == first[-1]
    assert plots[3] == ("BPR_vs_SGL",
                        mini_aps_svg(fixture_matrix, "BPR", "SGL"))
    with pytest.raises(IndexError):
        plots[20]
    # a slice is lazy too, not a pair of (label, svg) tuples
    part = plots[1:3]
    assert len(part) == 2 and part.labels == plots.labels[1:3]
    assert list(part) == first[1:3]


def test_grid_scopes_each_pair_once(fixture_matrix, monkeypatch):
    """Rendering reads the scope the grid kept for the pair."""
    scoped = []
    scope = _MiniPlots.scope

    def counted(self, x, y):
        scoped.append((x, y))
        return scope(self, x, y)

    monkeypatch.setattr(_MiniPlots, "scope", counted)
    plots = mini_aps_grid(fixture_matrix, ordered=True).plots
    assert len(scoped) == 20
    rendered = [*plots, *plots[2:5], plots[7]]
    assert len(rendered) == 24 and len(scoped) == 20


def test_grid_two_algorithms_single_panel():
    m = make_matrix({"d": [0.5, 0.6]})
    assert len(mini_aps_grid(m).plots) == 1


def test_grid_needs_two_algorithms():
    with pytest.raises(DimensionMismatchError):
        mini_aps_grid(make_matrix({"d": [0.5]}))


# --------------------------------------------------------------- pca scatter

def test_pca_scatter_fixture(fixture_matrix):
    proj = pca_project(fixture_matrix, 2, "mean-fill")
    svg = pca_scatter_svg(proj)
    assert len(circles(svg)) == 71
    # explained-variance shares at two significant figures
    assert "component 1 (85% of variance)" in svg
    assert "component 2 (8.3% of variance)" in svg


def test_pca_scatter_percent_formatting():
    svg = pca_scatter_svg(tiny_projection([[0.0, 0.0], [1.0, 1.0]],
                                          ratios=(0.12345, 0.04321)))
    assert "component 1 (12% of variance)" in svg
    assert "component 2 (4.3% of variance)" in svg


def test_pca_scatter_byte_deterministic(fixture_matrix):
    proj = pca_project(fixture_matrix, 2, "zero-fill")
    assert pca_scatter_svg(proj) == pca_scatter_svg(proj)


def test_pca_scatter_metric_gradient():
    proj = tiny_projection([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
    svg = pca_scatter_svg(proj, metric_values=[0.0, 1.0, None],
                          spec=PlotSpec(color_by="difficulty"))
    pts = circles(svg)
    fills = {p[3]: p[2] for p in pts}
    assert fills["p0"] == "#2c7bb6"  # low end
    assert fills["p1"] == "#d7191c"  # high end
    assert fills["p2"] == "#999999"  # missing metric value
    assert "difficulty" in svg       # legend title
    assert "0.0000" in svg and "1.0000" in svg


def test_pca_scatter_constant_metric():
    proj = tiny_projection([[0.0, 0.0], [1.0, 1.0]])
    svg = pca_scatter_svg(proj, metric_values=[0.4, 0.4])
    pts = circles(svg)
    assert {p[2] for p in pts} == {"#2c7bb6"}
    assert "0.4000" in svg


def test_pca_scatter_highlights_without_metric():
    proj = tiny_projection([[0.0, 0.0], [1.0, 1.0]], ids=("plain", "marked"))
    spec = PlotSpec(highlight_groups=(
        HighlightGroup("m", "marked", "#ff00ff"),))
    pts = circles(pca_scatter_svg(proj, spec=spec))
    assert pts[-1][3] == "marked" and pts[-1][2] == "#ff00ff"


def test_pca_scatter_errors(fixture_matrix):
    one_d = tiny_projection([[0.0], [1.0]], ratios=(1.0,))
    with pytest.raises(BadComponentCountError):
        pca_scatter_svg(one_d)
    proj = tiny_projection([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(LengthMismatchError):
        pca_scatter_svg(proj, metric_values=[0.5])
    with pytest.raises(NoPlottablePointsError):
        pca_scatter_svg(proj, metric_values=[None, None])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 np.float64("nan")])
def test_pca_scatter_refuses_non_finite_metric_values(bad):
    proj = tiny_projection([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2]])
    with pytest.raises(ValueError) as info:
        pca_scatter_svg(proj, metric_values=[0.5, bad, None])
    message = str(info.value)
    assert "'p1'" in message and repr(bad) in message
    assert "None marks a missing value" in message
    # None is the missing value, drawn neutral gray
    fills = {p[3]: p[2] for p in circles(
        pca_scatter_svg(proj, metric_values=[0.5, 0.7, None]))}
    assert fills == {"p0": "#2c7bb6", "p1": "#d7191c", "p2": "#999999"}


# ------------------------------------------------------------------ PlotSpec

def test_plot_spec_validation():
    with pytest.raises(ValueError):
        HighlightGroup("g", "", "#112233")
    with pytest.raises(ValueError):
        HighlightGroup("g", "pfx", "not-a-color")
    with pytest.raises(ValueError):
        HighlightGroup("", "pfx")


def test_numpy_pixels_match_scalar_arithmetic():
    # points are placed by numpy over whole columns; each coordinate must
    # be the float, and the text, that the scalar _x/_y path gives
    values = np.random.default_rng(5).random(2000)
    peak = float(values.max())
    fracs = values / peak
    scalar = [v / peak for v in values.tolist()]
    assert fracs.tolist() == scalar
    for to_pixel in (_x, _y):
        assert to_pixel(fracs).tolist() == [to_pixel(f) for f in scalar]
        assert _pixel_text(to_pixel(fracs)) == [_fmt(to_pixel(f))
                                                for f in scalar]


# ------------------------------------------------------------- byte pinning

# sha256 of the documents below, recorded before the circle-drawing code
# was merged into one helper; perfbench/pins.json only covers plots
# without highlight groups.
_HIGHLIGHT_SHA256 = (
    "e8d5f44d0dd8eed88fba6be566180b8a9c86c8d8ddc0ea4d53405fced0f89abd")


def test_highlight_svg_bytes_pinned(fixture_matrix):
    h = hashlib.sha256()
    for order in (("A", "Amazon", "MovieLens"), ("Amazon", "A", "MovieLens")):
        spec = PlotSpec(highlight_groups=tuple(
            HighlightGroup(f"g{i}", prefix, color)
            for i, (prefix, color) in enumerate(
                zip(order, ("#112233", "#445566", "#778899")))))
        for label, svg in mini_aps_grid(fixture_matrix, spec,
                                        ordered=True).plots:
            h.update(label.encode() + svg.encode())
        proj = pca_project(fixture_matrix, 2, "mean-fill")
        values = [None if i % 7 == 0 else i / 71
                  for i in range(len(proj.dataset_ids))]
        for metric_values in (None, values, [0.25] * len(values)):
            h.update(pca_scatter_svg(proj, metric_values, spec).encode())
    assert h.hexdigest() == _HIGHLIGHT_SHA256


# sha256 of an ordered mini grid and two PCA scatters of a gappy 60 x 6
# matrix with hostile labels, recorded before the points were placed by
# numpy and their titles formatted once per grid.
_HOSTILE_SHA256 = (
    "519a6cab80b61644d6a71a6ffee55bf27f1ed8f009656fc3d4da14a375979ce7")

_HOSTILE_ALGORITHMS = ("Q&A", "algo<1>", 'say "hi"', "naïve", "x'y>z",
                       "plain")


def _hostile_matrix():
    stems = ("A&B", "A<c>", "Amé", 'A"q"', "b'x", "漢字", "plain")
    records = []
    for i in range(60):
        name = f"{stems[i % len(stems)]} {i}"
        for j, algorithm in enumerate(_HOSTILE_ALGORITHMS):
            gap = (i * 7 + j * 3) % 5 == 0 and j != i % 6
            records.append((name, algorithm,
                            None if gap else ((i * 37 + j * 11) % 97) / 96))
    return build_matrix(records)


def test_hostile_labels_svg_bytes_pinned():
    m = _hostile_matrix()
    spec = PlotSpec(highlight_groups=(
        HighlightGroup("amp", "A&", "#112233"),
        HighlightGroup("a", "A", "#445566")))
    grid = mini_aps_grid(m, spec, ordered=True)
    assert len(grid.plots) == 30
    plots = dict(grid.plots)
    for x, y in permutations(_HOSTILE_ALGORITHMS, 2):
        assert mini_aps_svg(m, x, y, spec) == plots[f"{x}_vs_{y}"]
    h = hashlib.sha256()
    for label, svg in grid.plots:
        ET.fromstring(svg)
        h.update(label.encode() + svg.encode())
    proj = pca_project(m, 2, "mean-fill")
    values = [None if i % 4 == 1 else (i % 9) / 8
              for i in range(len(proj.dataset_ids))]
    for metric_values in (None, values):
        svg = pca_scatter_svg(proj, metric_values, spec)
        ET.fromstring(svg)
        h.update(svg.encode())
    assert h.hexdigest() == _HOSTILE_SHA256
