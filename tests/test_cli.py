import hashlib
import inspect
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import apspace
from conftest import make_matrix, random_matrix
from apspace.cli import RunConfig, _build_parser, _write_atomic, run
from apspace.ingest import (INPUT_FORMATS, fixture_path, load_thesis_matrix,
                            parse_csv, write_long, write_wide)
from apspace.metrics import (DIFFICULTY_ORIENTATIONS, DIVERSITY_VARIANTS,
                             difficulty, diversity, metric_table)
from apspace.pca import IMPUTATION_MODES, pca_project
from apspace.search import (SEARCH_MODES, exhaustive_search, greedy_search,
                            score_selection)
from apspace.viz import PlotSpec, pca_scatter_svg

FIXTURE = str(fixture_path("thesis_scores.csv"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def read(path):
    return path.read_text(encoding="utf-8")


@pytest.fixture
def outdir(tmp_path):
    return tmp_path / "out"


def test_validate_prints_summary(capsys):
    assert run(["validate", "-i", FIXTURE]) == 0
    captured = capsys.readouterr()
    assert "datasets: 71" in captured.out
    assert "complete rows: 39" in captured.out
    assert captured.out.count("warning:") == 40
    # resolved configuration goes to stderr, one line per RunConfig field
    keys = [line.split(" = ")[0].removeprefix("config: ")
            for line in captured.err.splitlines()
            if line.startswith("config: ")]
    assert keys == [f.name for f in fields(RunConfig)]
    assert "worker_count" not in captured.err
    assert "config: diversity_variant = nth-root" in captured.err


def test_metrics_golden_row(outdir, capsys):
    assert run(["metrics", "-i", FIXTURE, "-o", str(outdir)]) == 0
    text = read(outdir / "metrics.csv")
    lines = text.splitlines()
    assert lines[0] == "dataset,difficulty,variance,present_count"
    assert "Jester,0.5163,0.0193,5" in lines
    # undefined variance is an empty field, not a number
    assert any(line.startswith("Netflix,") and ",," in line for line in lines)
    assert len(lines) == 72


def test_select_golden_row(outdir):
    assert run(["select", "--size", "2..2", "--mode", "max", "--top", "1",
                "-i", FIXTURE, "-o", str(outdir)]) == 0
    lines = read(outdir / "selections.csv").splitlines()
    assert lines[0] == "rank,size,datasets,score"
    assert lines[1] == "1,2,Food;Jester,0.4698"
    assert len(lines) == 2


def test_select_size_range_and_top(outdir):
    assert run(["select", "--size", "2..3", "--top", "2",
                "-i", FIXTURE, "-o", str(outdir)]) == 0
    lines = read(outdir / "selections.csv").splitlines()[1:]
    assert [line.split(",")[:2] for line in lines] == [
        ["1", "2"], ["2", "2"], ["1", "3"], ["2", "3"]]


def test_select_greedy_strategy(outdir):
    assert run(["select", "--size", "4..4", "--strategy", "greedy",
                "-i", FIXTURE, "-o", str(outdir)]) == 0
    lines = read(outdir / "selections.csv").splitlines()
    assert lines[1].startswith("1,4,")
    assert "Jester" in lines[1]


# sha256 of the corpus selections.csv, recorded at 8ef4a5d, before the
# search's scorer became one function (``search._top``) and max-mode
# pairs left the bounded walk for the row strips.
SELECTIONS_SHA256 = {
    ("exhaustive", "max", "nth-root"):
        "55548ec32b046112c54e2f966150b63e8e65f4c6171934d57e07feefa7369720",
    ("exhaustive", "max", "literal-sqrt"):
        "365af171a52b869934622cc35a198a310508aac97b402540f095a3ef0098e044",
    ("exhaustive", "min", "nth-root"):
        "831a963c47817b711c292588399cd0b03429b23d9c5367c6b5e2362ce76e74fd",
    ("exhaustive", "min", "literal-sqrt"):
        "e1c35f58acddeb246b2f09a8f7f774584cd5abdd981e09dbc2734bda6e4e0bfb",
    ("greedy", "max", "nth-root"):
        "183cfa260425f7b3cc58edae0ee9145e0b8154ee3e3c797bd1b6d57d1f3945c5",
    ("greedy", "max", "literal-sqrt"):
        "efe180a90dd73a112913be5cd352bd648789c40ad4c4934f418b660d5abda94a",
    ("greedy", "min", "nth-root"):
        "bf90776120c8a014f93981dd3a0c02a2d353d671db419a69c93952d237bd177d",
    ("greedy", "min", "literal-sqrt"):
        "e2fd2a595436a8b6dc2a370213d64c5bf4a1b83e684376a99f2508efbeb55e3f",
}


@pytest.mark.parametrize("strategy, mode, variant", sorted(SELECTIONS_SHA256))
def test_select_corpus_bytes_are_pinned(outdir, strategy, mode, variant):
    """Exhaustive ``--size 2..5 --top 3`` and greedy ``--size 2..8`` on
    the corpus write the pinned bytes, in both modes and variants."""
    extra = (["--size", "2..5", "--top", "3"] if strategy == "exhaustive"
             else ["--size", "2..8"])
    assert run(["select", "--strategy", strategy, "--mode", mode,
                "--diversity-variant", variant, *extra,
                "-i", FIXTURE, "-o", str(outdir)]) == 0
    digest = hashlib.sha256((outdir / "selections.csv").read_bytes())
    assert digest.hexdigest() == SELECTIONS_SHA256[strategy, mode, variant]


@pytest.mark.parametrize("mode", ["max", "min"])
def test_select_greedy_range_equals_single_sizes(tmp_path, mode):
    """A size range grows one greedy path; each size's row is what a run
    for that size alone writes."""
    argv = ["select", "--strategy", "greedy", "--mode", mode, "-i", FIXTURE]
    assert run([*argv, "--size", "2..6", "-o", str(tmp_path / "all")]) == 0
    single = []
    for size in range(2, 7):
        out = tmp_path / str(size)
        assert run([*argv, "--size", f"{size}..{size}", "-o", str(out)]) == 0
        single += read(out / "selections.csv").splitlines()[1:]
    assert read(tmp_path / "all" / "selections.csv").splitlines()[1:] == single


@pytest.mark.parametrize("argv, first_line", [
    (["plot", "mini", "--color-by", "variance"], "usage: aps plot mini "),
    (["plot", "pca", "--ordered"], "usage: aps plot pca "),
    (["select", "--size", "2..3", "--strategy", "greedy", "--top", "3"],
     "config: "),
    (["plot", "pca", "--color-by", "variance",
      "--difficulty-orientation", "raw-mean"], "config: "),
], ids=["mini-color-by", "pca-ordered", "greedy-top", "pca-orientation"])
def test_flag_the_command_cannot_honour_is_a_usage_error(tmp_path, capsys,
                                                         argv, first_line):
    out = tmp_path / "out"
    assert run([*argv, "-i", FIXTURE, "-o", str(out)]) == 1
    assert not out.exists()
    # an unknown flag gets the usage of the command it was given to
    assert capsys.readouterr().err.startswith(first_line)


@pytest.mark.parametrize("argv, message", [
    (["select", "--size", "nope"], "bad --size 'nope'; expected N or A..B"),
    (["select", "--size", "3..2"], "bad --size '3..2'; need 2 <= A <= B"),
    (["select", "--size", "2", "--top", "0"], "--top must be >= 1, got 0"),
    (["select", "--size", "2", "--strategy", "greedy", "--top", "2"],
     "--top 2 needs --strategy exhaustive; greedy builds one subset per size"),
    (["pca", "--components", "0"], "--components must be >= 1, got 0"),
    (["plot", "pca", "--difficulty-orientation", "raw-mean"],
     "--difficulty-orientation needs --color-by difficulty; "
     "no other plot reads an orientation"),
], ids=["size-text", "size-range", "top", "greedy-top", "components",
        "pca-orientation"])
def test_flag_errors_come_before_reading_input(tmp_path, capsys, argv,
                                               message):
    missing = tmp_path / "missing.csv"
    assert run([*argv, "-i", str(missing), "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
def test_select_range_past_the_complete_rows_fails_before_any_search(
        outdir, capsys, strategy):
    """The top of ``--size A..B`` is checked against the complete rows
    first: 2..40 on the 39-row corpus searches no size at all."""
    with mock.patch("apspace.search._top",
                    side_effect=AssertionError("searched")):
        assert run(["select", "--size", "2..40", "--strategy", strategy,
                    "-i", FIXTURE, "-o", str(outdir)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: subset size 40 exceeds the 39 complete rows\n")
    assert not (outdir / "selections.csv").exists()


def test_select_greedy_top_one_is_accepted(outdir):
    assert run(["select", "--size", "2..3", "--strategy", "greedy",
                "--top", "1", "-i", FIXTURE, "-o", str(outdir)]) == 0
    assert len(read(outdir / "selections.csv").splitlines()) == 3


def test_select_row_order_determinism(tmp_path):
    """Identical bytes from the fixture rows as given and reversed."""
    header, *rows = read(Path(FIXTURE)).splitlines()
    reversed_csv = tmp_path / "reversed.csv"
    reversed_csv.write_text("\n".join([header, *rows[::-1]]) + "\n",
                            encoding="utf-8")
    a, b = tmp_path / "given", tmp_path / "reversed"
    assert run(["select", "--size", "2..4", "--top", "3",
                "-i", FIXTURE, "-o", str(a)]) == 0
    assert run(["select", "--size", "2..4", "--top", "3",
                "-i", str(reversed_csv), "-o", str(b)]) == 0
    assert read(a / "selections.csv") == read(b / "selections.csv")


@pytest.mark.parametrize("seed", range(3))
def test_outputs_keep_their_lines_under_shuffled_rows(tmp_path, seed):
    """Shuffled corpus rows give the same metrics.csv, pca.csv under
    each imputation and report.md lines, once sorted: the column means
    and ``x.T @ x`` sum in row order, and no printed figure may show
    it."""
    header, *rows = read(Path(FIXTURE)).splitlines()
    order = np.random.default_rng(seed).permutation(len(rows))
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header, *(rows[i] for i in order)])
                        + "\n", encoding="utf-8")
    commands = [(["metrics"], "metrics.csv"), (["report"], "report.md")]
    commands += [(["pca", "--pca-imputation", mode], "pca.csv")
                 for mode in IMPUTATION_MODES]
    for command, name in commands:
        lines = []
        for src, out in ((FIXTURE, tmp_path / "given"),
                         (str(shuffled), tmp_path / "shuffled")):
            assert run([*command, "-i", src, "-o", str(out)]) == 0
            lines.append(sorted(read(out / name).splitlines()))
        assert lines[0] == lines[1], command


def test_pca_csv_with_sidecar(outdir):
    assert run(["pca", "--components", "2", "--pca-imputation", "mean-fill",
                "-i", FIXTURE, "-o", str(outdir)]) == 0
    lines = read(outdir / "pca.csv").splitlines()
    assert lines[0] == "dataset,pc1,pc2"
    assert len(lines) == 73  # header + 71 rows + ratio sidecar
    assert lines[-1] == "# explained_variance_ratio,0.8520,0.0825"


def test_pca_default_imputation_drops_gappy_rows(outdir):
    assert run(["pca", "-i", FIXTURE, "-o", str(outdir)]) == 0
    lines = read(outdir / "pca.csv").splitlines()
    assert len(lines) == 41  # header + 39 complete rows + sidecar
    assert not any(line.startswith("Epinions,") for line in lines)


_KEEPS = "; --pca-imputation zero-fill or mean-fill keeps them"


@pytest.mark.parametrize("command, what", [
    (["select", "--size", "3"], "search"),
    (["pca"], "projection" + _KEEPS),
    (["plot", "pca"], "projection" + _KEEPS),
    (["pca", "--pca-imputation", "mean-fill"], None),
    (["plot", "pca", "--pca-imputation", "zero-fill"], None),
], ids=["select", "pca", "plot-pca", "pca-mean-fill", "plot-pca-zero-fill"])
def test_rows_left_out_are_named_on_stderr(outdir, capsys, command, what):
    """The corpus's 32 datasets with a gap are left out under the
    default: one warning says so before the file is written.  An
    imputation that keeps every dataset prints none."""
    assert run([*command, "-i", FIXTURE, "-o", str(outdir)]) == 0
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("config: ")]
    warning = [] if what is None else [
        f"warning: 32 of 71 datasets have missing scores and are left out "
        f"of the {what}"]
    assert err[:-1] == warning and err[-1].startswith("wrote ")


# one complete row of three: too few to project
_FEW = "dataset,a,b\nd1,0.1,0.2\nd2,,0.5\nd3,0.4,\n"


@pytest.mark.parametrize("command, text, warned", [
    (["pca"], _FEW, True),
    (["plot", "pca"], _FEW, True),
    (["pca", "--pca-imputation", "mean-fill"], "dataset,a,b\nd1,0.1,0.2\n",
     False),
], ids=["pca", "plot-pca", "one-row-mean-fill"])
def test_rows_left_out_are_named_when_too_few_are_left(tmp_path, capsys,
                                                       command, text, warned):
    """When fewer than two rows are left to project, the datasets a gap
    left out are named before the error; where none was left out, only
    the error is printed."""
    src = tmp_path / "gappy.csv"
    src.write_text(text, encoding="utf-8")
    assert run([*command, "-i", str(src), "-o", str(tmp_path / "out")]) == 2
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("config: ")]
    warning = [f"warning: 2 of 3 datasets have missing scores and are left "
               f"out of the projection{_KEEPS}"] if warned else []
    assert err == [*warning,
                   "error: projection needs >= 2 usable rows, got 1"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, flags, left, whats", [
    (None, [], "32 of 71", ["search", "projection" + _KEEPS]),
    (None, ["--pca-imputation", "mean-fill"], "32 of 71", ["search"]),
    (_FEW, [], "2 of 3", ["search", "projection" + _KEEPS]),
], ids=["corpus", "corpus-mean-fill", "too-few-left"])
def test_report_names_rows_left_out_on_stderr(tmp_path, capsys, text, flags,
                                              left, whats):
    """``report`` says how many datasets its search left out, then how
    many its projection left out under ``complete-rows-only``, also when
    too few are left to project; ``report.md`` is still written."""
    src, out = FIXTURE, tmp_path / "out"
    if text is not None:
        src = tmp_path / "gappy.csv"
        src.write_text(text, encoding="utf-8")
    assert run(["report", *flags, "-i", str(src), "-o", str(out)]) == 0
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("config: ")]
    assert err == [*(f"warning: {left} datasets have missing scores and are "
                     f"left out of the {what}" for what in whats),
                   f"wrote {out / 'report.md'}"]


def test_plot_mini_writes_all_panels(outdir, capsys):
    assert run(["plot", "mini", "-i", FIXTURE, "-o", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.glob("*.svg"))
    assert len(files) == 10
    assert "mini_BPR_vs_ItemKNN.svg" in files
    assert read(outdir / "mini_BPR_vs_ItemKNN.svg").startswith("<svg")


def test_plot_mini_file_name_collision_fails(tmp_path, capsys):
    """Labels 'x y' and 'x_y' share a file name: exit 2, write nothing."""
    src = tmp_path / "clash.csv"
    src.write_text("dataset,x y,x_y,z\nd1,0.1,0.2,0.3\nd2,0.4,0.5,0.6\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run(["plot", "mini", "-i", str(src), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'x y_vs_z'" in err and "'x_y_vs_z'" in err
    assert not out.exists()


@pytest.mark.parametrize("exists", [False, True])
def test_plot_mini_file_name_too_long_fails_before_writing(tmp_path, capsys,
                                                          exists):
    """Two 131-character names make a 275-byte file name: exit 1 naming
    the pair and the limit, before the pairs with x write theirs."""
    a, b = "a" * 131, "b" * 131
    src = tmp_path / "long.csv"
    src.write_text(f"dataset,x,{a},{b}\nd1,0.1,0.2,0.3\nd2,0.4,0.5,0.6\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    limit = 255  # where the directory does not exist yet
    if exists:
        out.mkdir()
        limit = os.pathconf(out, "PC_NAME_MAX")
    assert run(["plot", "mini", "-i", str(src), "-o", str(out)]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: plot '{a}_vs_{b}' needs a 275-byte file name, over the "
        f"{limit}-byte limit of {out}\n")
    assert not list(out.glob("*.svg")) if exists else not out.exists()


def test_plot_mini_zero_column_on_a_later_pair_writes_nothing(tmp_path,
                                                             capsys):
    """Pair a_vs_b renders, but c has no positive score: exit 2 before
    the first file, not after it."""
    src = tmp_path / "zero.csv"
    src.write_text("dataset,a,b,c\nd1,0.1,0.2,0\nd2,0.4,0.5,0\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run(["plot", "mini", "-i", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: axis 'c' has no positive score among plotted datasets\n")
    assert not out.exists()


def test_plot_mini_warnings_come_before_the_first_file(tmp_path, capsys):
    """Every skipped pair is reported before any plot is written, even a
    pair that comes after a written one in pair order."""
    src = tmp_path / "gappy.csv"
    src.write_text("dataset,a,b,c,d\nd1,0.5,0.5,,0.2\nd2,,0.5,0.5,\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run(["plot", "mini", "--ordered", "-i", str(src),
                "-o", str(out)]) == 0
    skipped = [f"warning: {x} vs {y}: no datasets with both scores; skipped"
               for x, y in ("ac", "ca", "cd", "dc")]
    written = [f"wrote {out / f'mini_{x}_vs_{y}.svg'}"
               for x, y in ("ab", "ad", "ba", "bc", "bd", "cb", "da", "db")]
    assert [line for line in capsys.readouterr().err.splitlines()
            if not line.startswith("config: ")] == skipped + written


def _one_peak_per_pair(n_algorithms: int, n_datasets: int):
    """Scores where each pair (x_i, y_j), i < j, has its own y-axis peak.

    Row (i, j) is present on columns i..j only, with 0.25 on each but j,
    where it holds 0.5 + 0.5 (i + 1) / n: the largest value of column j
    that x_i plots, since rows (k, j) with k > i lack column i."""
    rows = []
    for j in range(1, n_algorithms):
        for i in range(j):
            cells = [None] * n_algorithms
            cells[i:j] = [0.25] * (j - i)
            cells[j] = 0.5 + 0.5 * (i + 1) / n_algorithms
            rows.append(cells)
    rows += [[0.25] * n_algorithms] * (n_datasets - len(rows))
    return make_matrix({f"ds{i:03d}": r for i, r in enumerate(rows)})


def test_plot_mini_peak_memory_does_not_grow_with_the_plot_count(tmp_path,
                                                                 rng):
    """At 4,000 cells, 190 plots may not need more memory than 45: each
    document is written before the next is rendered, and the pixel text
    kept per column does not grow with the pairs that plot it."""
    peaks = {}
    for name, matrix in (
            ("45 plots", random_matrix(rng, 400, 10, missing_rate=0.2)),
            ("190 plots", random_matrix(rng, 200, 20, missing_rate=0.2)),
            ("190 y peaks", _one_peak_per_pair(20, 200))):
        src = tmp_path / f"{name}.csv"
        src.write_text(write_wide(matrix), encoding="utf-8")
        tracemalloc.start()
        try:
            assert run(["plot", "mini", "-i", str(src),
                        "-o", str(tmp_path / name)]) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["190 plots"] <= peaks["45 plots"], peaks
    assert peaks["190 y peaks"] <= peaks["45 plots"], peaks


def test_plot_pca_with_coloring(outdir):
    assert run(["plot", "pca", "--color-by", "difficulty",
                "--pca-imputation", "mean-fill",
                "-i", FIXTURE, "-o", str(outdir)]) == 0
    svg = read(outdir / "pca_scatter.svg")
    assert svg.count("<circle") == 71
    assert "difficulty" in svg


@pytest.mark.parametrize("color_by", ["difficulty", "variance"])
def test_plot_pca_colors_match_metric_table(tmp_path, outdir, color_by):
    """Each point takes its metric_table value under the configured
    orientation, from one table built for the whole plot."""
    # the flag needs --color-by difficulty; a config file may set it always
    cfg = tmp_path / "raw.cfg"
    cfg.write_text("difficulty_orientation = raw-mean\n", encoding="utf-8")
    matrix = load_thesis_matrix()
    table = metric_table(matrix, "raw-mean")
    projection = pca_project(matrix, k=2, imputation="zero-fill")
    want = pca_scatter_svg(
        projection, [getattr(table.row(d), color_by)
                     for d in projection.dataset_ids],
        PlotSpec(color_by=color_by))
    with mock.patch("apspace.cli.metric_table", wraps=metric_table) as spy:
        assert run(["plot", "pca", "--color-by", color_by,
                    "--config", str(cfg), "--pca-imputation", "zero-fill",
                    "-i", FIXTURE, "-o", str(outdir)]) == 0
    spy.assert_called_once()
    assert read(outdir / "pca_scatter.svg") == want


def test_report_header_only_input(tmp_path, outdir):
    src = tmp_path / "empty.csv"
    src.write_text("dataset,a,b\n", encoding="utf-8")
    assert run(["report", "-i", str(src), "-o", str(outdir)]) == 0
    text = read(outdir / "report.md")
    assert ("Difficulty summary unavailable: no datasets to "
            "summarize.\n") in text
    assert "Too few complete rows for subset search.\n" in text


def test_report_one_algorithm(tmp_path, outdir):
    src = tmp_path / "one.csv"
    src.write_text("dataset,a\nx,0.5\ny,0.2\n", encoding="utf-8")
    assert run(["report", "-i", str(src), "-o", str(outdir)]) == 0
    text = read(outdir / "report.md")
    assert "Mean difficulty 0.6500, median 0.6500" in text
    assert ("Selections unavailable: search needs at least 2 algorithm "
            "axes.\n") in text
    assert "Explained variance ratios (k=1, complete-rows-only)" in text


def test_report_sections(outdir):
    assert run(["report", "-i", FIXTURE, "-o", str(outdir)]) == 0
    text = read(outdir / "report.md")
    assert "# Performance space report" in text
    assert "| Jester | 0.5163 | 0.0193 | 5 |" in text
    assert "Food; Jester | 0.4698" in text
    assert "Mean difficulty 0.8864, median 0.9217" in text
    assert "Explained variance ratios" in text


def test_exit_code_user_errors(tmp_path, capsys):
    assert run(["--no-such-flag"]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["metrics"]) == 1  # no input given
    assert run(["select", "-i", FIXTURE, "--size", "nope"]) == 1
    assert run(["select", "-i", FIXTURE, "--size", "1..3"]) == 1
    # a config key of a removed option fails loudly, not silently
    old_cfg = tmp_path / "old.cfg"
    old_cfg.write_text("worker_count = 2\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["metrics", "-i", FIXTURE, "--config", str(old_cfg)]) == 1
    assert "unknown key 'worker_count'" in capsys.readouterr().err


def test_exit_code_data_errors(tmp_path, capsys):
    assert run(["metrics", "-i", str(tmp_path / "missing.csv"),
                "-o", str(tmp_path)]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("dataset,a,b\nd1,0.5\n", encoding="utf-8")
    assert run(["metrics", "-i", str(bad), "-o", str(tmp_path)]) == 2
    assert "line 2" in capsys.readouterr().err
    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("dataset,a\nd1,1.5\n", encoding="utf-8")
    assert run(["metrics", "-i", str(out_of_range), "-o", str(tmp_path)]) == 2
    huge = tmp_path / "huge.csv"
    huge.write_text(f'dataset,a\nd1,"{" " * 200_000}0.5"\n', encoding="utf-8")
    capsys.readouterr()
    assert run(["validate", "-i", str(huge)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: cannot read CSV: field larger than field limit (131072)\n")
    open_quote = tmp_path / "open.csv"
    open_quote.write_text('dataset,a,b\nd1,0.5,"0.25', encoding="utf-8")
    assert run(["validate", "-i", str(open_quote)]) == 2
    assert capsys.readouterr().err.endswith(
        "error: line 2: quoted field not closed before the end of the "
        "input\n")
    one_algorithm = tmp_path / "one.csv"
    one_algorithm.write_text("dataset,a\nx,0.5\ny,0.2\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["plot", "mini", "-i", str(one_algorithm),
                "-o", str(tmp_path)]) == 2
    assert "error: grid needs at least 2 algorithms" in capsys.readouterr().err


@pytest.mark.parametrize("header, message", [
    ("dataset,a,a\n", "duplicate algorithm column 'a'"),
    ("dataset,a,\n", "bad algorithm name '': must be non-empty with no "
     "surrounding whitespace"),
])
def test_header_only_bad_algorithm_names_exit_2(tmp_path, capsys, header,
                                                message):
    src = tmp_path / "header.csv"
    src.write_text(header, encoding="utf-8")
    for command in (["validate"], ["metrics", "-o", str(tmp_path)]):
        capsys.readouterr()
        assert run([*command, "-i", str(src)]) == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_pca_component_count_exit_codes(tmp_path, capsys):
    # the flag's own range is a usage error ...
    for count in ("0", "-1"):
        capsys.readouterr()
        assert run(["pca", "-i", FIXTURE, "-o", str(tmp_path),
                    "--components", count]) == 1
        assert capsys.readouterr().err.endswith(
            f"error: --components must be >= 1, got {count}\n")
    # ... while more components than the input has algorithms is a data error
    assert run(["pca", "-i", FIXTURE, "-o", str(tmp_path),
                "--components", "6"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: component count 6 outside 1..5\n")
    assert not (tmp_path / "pca.csv").exists()


def test_unwritable_output_dir_is_a_user_error(tmp_path, capsys):
    blocker = tmp_path / "some.csv"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "sub"
    assert run(["metrics", "-i", FIXTURE, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {out / 'metrics.csv'}: " in err
    assert "internal error" not in err


def test_failed_write_leaves_no_temp_file(outdir, capsys):
    target = outdir / "metrics.csv"
    target.mkdir(parents=True)
    (target / "keep").write_text("", encoding="utf-8")
    assert run(["metrics", "-i", FIXTURE, "-o", str(outdir)]) == 1
    assert f"error: cannot write {target}: " in capsys.readouterr().err
    assert sorted(p.name for p in outdir.iterdir()) == ["metrics.csv"]
    assert list(target.iterdir()) == [target / "keep"]


def test_written_files_take_the_umask(outdir):
    """An output file gets the mode a plain ``open()`` gives it, 0o666
    less the umask, and no temp file is left beside it."""
    umask = os.umask(0o022)
    try:
        assert run(["metrics", "-i", FIXTURE, "-o", str(outdir)]) == 0
    finally:
        os.umask(umask)
    assert [p.name for p in outdir.iterdir()] == ["metrics.csv"]
    assert (outdir / "metrics.csv").stat().st_mode & 0o777 == 0o644


def test_write_accepts_the_longest_file_name(tmp_path):
    """A file name of 255 bytes, the most ext4 and tmpfs accept, can be
    written: the temp file's name does not grow with the target's."""
    target = tmp_path / ("x" * 251 + ".csv")
    _write_atomic(target, "a\n")
    assert [p.name for p in tmp_path.iterdir()] == [target.name]
    assert read(target) == "a\n"


@pytest.mark.parametrize("key, flag, message", [
    ("input_format", "--format",
     "invalid input format 'bogus' (choose from auto, long, wide)"),
    ("difficulty_orientation", "--difficulty-orientation",
     "invalid difficulty orientation 'bogus' "
     "(choose from one-minus-mean, raw-mean)"),
    ("diversity_variant", "--diversity-variant",
     "invalid diversity variant 'bogus' (choose from nth-root, literal-sqrt)"),
    ("pca_imputation", "--pca-imputation",
     "invalid imputation mode 'bogus' "
     "(choose from complete-rows-only, zero-fill, mean-fill)"),
])
def test_bad_choice_fails_as_flag_and_in_config(tmp_path, capsys, key, flag,
                                                message):
    """A flag is checked by a command that reads it; a config value is
    checked by every command, since one file serves them all."""
    reader = {"input_format": "validate", "difficulty_orientation": "metrics",
              "diversity_variant": "select", "pca_imputation": "pca"}[key]
    assert run([reader, "-i", FIXTURE, flag, "bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: aps {reader} ")
    assert f"argument {flag}: invalid choice: 'bogus'" in err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = bogus\n", encoding="utf-8")
    assert run(["validate", "-i", FIXTURE, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Auto-detection reads the header as CSV, with the cells stripped as the
# parsers strip them, so every spelling the long parser accepts is long.
@pytest.mark.parametrize("header", [
    "dataset,algorithm,score\n",
    '"dataset","algorithm","score"\n',
    "dataset , algorithm,score \n",
    "dataset,algorithm,score\r\n",
    "\ufeffdataset,algorithm,score\n",
], ids=["plain", "quoted", "spaced", "crlf", "bom"])
def test_auto_format_detects_long(tmp_path, capsys, header):
    src = tmp_path / "long.csv"
    body = write_long(load_thesis_matrix()).split("\n", 1)[1]
    src.write_text(header + body, encoding="utf-8")
    out = tmp_path / "out"
    assert run(["metrics", "-i", str(src), "-o", str(out)]) == 0
    assert "Jester,0.5163,0.0193,5" in read(out / "metrics.csv")
    capsys.readouterr()
    assert run(["validate", "-i", str(src)]) == 0
    auto = capsys.readouterr().out
    assert run(["validate", "-i", str(src), "--format", "long"]) == 0
    assert capsys.readouterr().out == auto
    assert auto.startswith("datasets: 71\nalgorithms: 5\n")


def test_carriage_return_in_a_quoted_label_is_kept(tmp_path):
    src = tmp_path / "cr.csv"
    src.write_bytes(b'dataset,a,b\n"d\r1",0.5,0.5\n')
    out = tmp_path / "out"
    assert run(["metrics", "-i", str(src), "-o", str(out)]) == 0
    assert (out / "metrics.csv").read_bytes().split(b"\n")[1] == \
        b'"d\r1","0.5000","0.0000","2"'


def test_auto_format_needs_exact_long_header(tmp_path, capsys):
    """A wide header that merely starts like the long one stays wide."""
    wide = tmp_path / "wide.csv"
    wide.write_text("dataset,algorithm,score_b\nd1,0.1,0.2\nd2,0.3,0.4\n",
                    encoding="utf-8")
    assert run(["validate", "-i", str(wide)]) == 0
    out = capsys.readouterr().out
    assert "datasets: 2\nalgorithms: 2\npresent cells: 4\n" in out


def test_forced_format_mismatch_fails(tmp_path):
    wide = tmp_path / "wide.csv"
    wide.write_text("dataset,a,b\nd,0.1,0.2\n", encoding="utf-8")
    assert run(["metrics", "-i", str(wide), "--format", "long",
                "-o", str(tmp_path)]) == 2


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# options for the batch run\n"
        f"input_path = {FIXTURE}\n"
        "pca_imputation = mean-fill\n"
        f"output_dir = {tmp_path / 'from_cfg'}\n",
        encoding="utf-8")
    assert run(["pca", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_cfg" / "pca.csv").exists()
    assert "0.8520" in read(tmp_path / "from_cfg" / "pca.csv")
    # a flag beats the file
    assert run(["pca", "--config", str(cfg),
                "--pca-imputation", "zero-fill"]) == 0
    assert "0.8387" in read(tmp_path / "from_cfg" / "pca.csv")


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("speed = 11\n", encoding="utf-8")
    assert run(["validate", "--config", str(cfg), "-i", FIXTURE]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_config_file_with_a_bom_applies_its_key(tmp_path, capsys):
    """Windows Notepad starts a UTF-8 file with a byte order mark."""
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("\ufeffdiversity_variant = literal-sqrt\n",
                   encoding="utf-8")
    assert run(["validate", "--config", str(cfg), "-i", FIXTURE]) == 0
    assert "config: diversity_variant = literal-sqrt\n" in (
        capsys.readouterr().err)


def test_config_file_missing_or_without_equals(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert run(["validate", "--config", str(missing), "-i", FIXTURE]) == 1
    assert f"error: cannot read config file {missing}: " in (
        capsys.readouterr().err)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment\n\ninput_format long\n", encoding="utf-8")
    assert run(["validate", "--config", str(cfg), "-i", FIXTURE]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:3: expected 'key = value'\n")


# The analysis options each parser takes, by its argv: exactly those its
# handler reads.  A config file may still set any of them.
ANALYSIS_FLAGS = ("--difficulty-orientation", "--diversity-variant",
                  "--pca-imputation")
ANALYSIS_OPTIONS = {
    (): (),
    ("plot",): (),
    ("validate",): (),
    ("metrics",): ("--difficulty-orientation",),
    ("select",): ("--diversity-variant",),
    ("pca",): ("--pca-imputation",),
    ("plot", "mini"): (),
    ("plot", "pca"): ("--difficulty-orientation", "--pca-imputation"),
    ("report",): ANALYSIS_FLAGS,
}
# what a command needs besides its input to run at all, or, for plot pca,
# to read --difficulty-orientation
RUNNABLE = {("select",): ["--size", "2"],
            ("plot", "pca"): ["--color-by", "difficulty"]}
# three complete rows over three axes and two gappy ones, so every
# analysis option changes some output of each command that reads it
GAPPY = ("dataset,a,b,c\nd1,0.1,0.5,0.9\nd2,0.7,0.2,0.4\nd3,0.3,0.8,0.6\n"
         "d4,0.9,,0.2\nd5,,0.4,0.7\n")


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in ANALYSIS_OPTIONS
    if command and command != ("plot",) for flag in ANALYSIS_FLAGS],
    ids=lambda x: "-".join(x) if isinstance(x, tuple) else x)
def test_each_analysis_flag_only_where_it_is_read(tmp_path, capsys, command,
                                                  flag):
    src = tmp_path / "gappy.csv"
    src.write_text(GAPPY, encoding="utf-8")
    argv = [*command, *RUNNABLE.get(command, []), "-i", str(src)]
    values = {"--difficulty-orientation": DIFFICULTY_ORIENTATIONS,
              "--diversity-variant": DIVERSITY_VARIANTS,
              "--pca-imputation": IMPUTATION_MODES}[flag][:2]
    if flag not in ANALYSIS_OPTIONS[command]:
        out = tmp_path / "out"
        assert run([*argv, flag, values[1], "-o", str(out)]) == 1
        err = capsys.readouterr().err
        name = " ".join(command)
        assert err.startswith(f"usage: aps {name} ")
        assert err.endswith(f"aps {name}: error: unrecognized arguments: "
                            f"{flag} {values[1]}\n")
        assert not out.exists()
        return
    written = []
    for value in values:
        out = tmp_path / value
        assert run([*argv, flag, value, "-o", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0].keys() == written[1].keys()
    assert written[0] != written[1]  # the flag does something


def test_common_flags_work_before_the_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("difficulty_orientation = raw-mean\n", encoding="utf-8")
    common = ["-i", FIXTURE, "--format", "wide", "--config", str(cfg)]
    before, after = tmp_path / "before", tmp_path / "after"
    assert run([*common, "-o", str(before), "metrics"]) == 0
    assert run(["metrics", *common, "-o", str(after)]) == 0
    assert read(before / "metrics.csv") == read(after / "metrics.csv")
    assert "Jester,0.4837,0.0193,5" in read(before / "metrics.csv")
    # the plot group takes them before its kind too
    assert run(["plot", "-i", FIXTURE, "-o", str(before), "pca"]) == 0
    assert (before / "pca_scatter.svg").exists()
    assert "config: input_format = wide\n" in capsys.readouterr().err


def test_config_file_may_set_keys_the_command_does_not_read(tmp_path,
                                                            capsys):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("difficulty_orientation = raw-mean\n"
                   "diversity_variant = literal-sqrt\n"
                   "pca_imputation = mean-fill\n", encoding="utf-8")
    assert run(["validate", "-i", FIXTURE, "--config", str(cfg)]) == 0
    assert "config: pca_imputation = mean-fill\n" in capsys.readouterr().err
    # only the flag needs --color-by difficulty
    out = tmp_path / "out"
    assert run(["plot", "pca", "-i", FIXTURE, "--config", str(cfg),
                "-o", str(out)]) == 0
    assert (out / "pca_scatter.svg").exists()


def test_undecodable_input_or_config_names_the_file(tmp_path, capsys):
    """A file that is not UTF-8 is unusable input (exit 2) or a bad
    config file (exit 1), not an internal error."""
    src = tmp_path / "latin1.csv"
    src.write_bytes(b"dataset,a\nd\xe9,0.5\n")
    assert run(["validate", "-i", str(src)]) == 2
    assert (f"error: cannot read input {src}: 'utf-8' codec can't decode"
            in capsys.readouterr().err)
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# r\xe9glages\n")
    assert run(["validate", "-i", FIXTURE, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot read config file {cfg}: 'utf-8' codec can't decode")


def test_env_output_dir_and_override(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("APS_OUTPUT_DIR", str(env_dir))
    assert run(["metrics", "-i", FIXTURE]) == 0
    assert (env_dir / "metrics.csv").exists()
    flag_dir = tmp_path / "flag_out"
    assert run(["metrics", "-i", FIXTURE, "-o", str(flag_dir)]) == 0
    assert (flag_dir / "metrics.csv").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_empty_output_dir_is_a_user_error(tmp_path, monkeypatch, capsys, via):
    """An empty output directory is refused before anything is written,
    not taken as the current directory."""
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("output_dir =\n", encoding="utf-8")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    given = ["-o", ""] if via == "flag" else ["--config", str(cfg)]
    assert run(["metrics", "-i", FIXTURE, *given]) == 1
    assert capsys.readouterr().err == (
        "error: empty output directory; pass a path to --output-dir or to "
        "output_dir in the config file\n")
    assert not any(cwd.iterdir())


def test_repeat_runs_are_byte_identical_and_clean(outdir):
    for _ in range(2):
        assert run(["metrics", "-i", FIXTURE, "-o", str(outdir)]) == 0
    first = read(outdir / "metrics.csv")
    assert run(["metrics", "-i", FIXTURE, "-o", str(outdir)]) == 0
    assert read(outdir / "metrics.csv") == first
    # atomic writes leave no temp droppings behind
    assert [p.name for p in outdir.iterdir()] == ["metrics.csv"]


def test_outputs_parse_under_own_readers(outdir):
    """Exit 0 promises the CSVs are loadable with this package's parsers."""
    import csv
    assert run(["select", "--size", "2..2", "-i", FIXTURE,
                "-o", str(outdir)]) == 0
    rows = list(csv.reader(read(outdir / "selections.csv").splitlines()))
    assert rows[0] == ["rank", "size", "datasets", "score"]
    assert all(len(r) == 4 for r in rows)


def test_cli_import_leaves_out_the_network_stack():
    """``apspace.cli`` must not pull in ``urllib.request`` (and with it
    ``http.client``, ``email`` and ``ssl``): every command pays the import.
    Nor does the import build the parser; the first ``run`` does."""
    source_root = str(Path(apspace.__file__).resolve().parents[1])
    probe = ("import sys, apspace.cli; "
             "print(sorted(m for m in ('urllib.request', 'http.client', "
             "'ssl', 'xml.sax') if m in sys.modules)); "
             "print(apspace.cli._build_parser.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, encoding="utf-8",
                            timeout=120,
                            env={**os.environ, "PYTHONPATH": source_root})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n0\n"


# Help, usage and flag errors, and commands whose flags differ, so a
# value one parse left behind would show in the next one.
SHARED_PARSER_SEQUENCE = [
    ["--help"],
    ["select", "--size", "x"],
    ["plot", "mini", "--ordered"],
    ["plot", "mini"],
    ["select", "--strategy", "greedy", "--size", "2..4"],
    ["select", "--size", "2..3", "--top", "2"],
    ["bogus"],
]


def test_shared_parser_carries_nothing_between_runs(tmp_path, capsys):
    """Commands run in sequence on the one parser give exactly what each
    gives on a freshly built parser: exit code, stdout, stderr and the
    bytes of every file written."""
    assert _build_parser() is _build_parser()
    base = tmp_path / "out"

    def outcomes(fresh):
        seen = []
        for i, argv in enumerate(SHARED_PARSER_SEQUENCE):
            if fresh:
                _build_parser.cache_clear()
            outdir = base / str(i)
            code = run([*argv, "-i", FIXTURE, "-o", str(outdir)])
            out, err = capsys.readouterr()
            files = ({p.name: p.read_bytes() for p in outdir.iterdir()}
                     if outdir.exists() else {})
            seen.append((code, out, err, files))
        shutil.rmtree(base, ignore_errors=True)
        return seen

    shared = outcomes(fresh=False)
    assert [(code, len(files)) for code, _, _, files in shared] == [
        (0, 0), (1, 0), (0, 20), (0, 10), (0, 1), (0, 1), (1, 0)]
    assert shared == outcomes(fresh=True)


def test_console_script_entry_point(tmp_path):
    """The declared ``aps`` script runs as its own process, installed or
    not, and so does ``python -m apspace.cli``."""
    scripts = re.search(r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)",
                        PYPROJECT.read_text(encoding="utf-8"), re.M | re.S)
    assert scripts and re.search(r'^aps\s*=\s*"apspace\.cli:main"\s*$',
                                 scripts.group(1), re.M), scripts
    # the body of the console-script wrapper that pip installs as `aps`
    wrapper = "import sys; from apspace.cli import main; sys.exit(main())"
    commands = [[sys.executable, "-c", wrapper],
                [sys.executable, "-m", "apspace.cli"]]
    if installed := shutil.which("aps"):
        commands.append([installed])
    # the child imports the same apspace as this process, from any cwd
    source_root = str(Path(apspace.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [source_root, inherited] if inherited else [source_root])}
    missing = str(tmp_path / "missing.csv")
    for command in commands:
        result = subprocess.run([*command, "validate", "-i", FIXTURE],
                                capture_output=True, text=True,
                                encoding="utf-8", env=env, cwd=tmp_path,
                                timeout=120)
        assert result.returncode == 0, (command, result.stderr)
        assert "datasets: 71" in result.stdout, (command, result.stderr)
        # run()'s exit code reaches the shell: 2 is unusable input
        result = subprocess.run([*command, "validate", "-i", missing],
                                capture_output=True, text=True,
                                encoding="utf-8", env=env, cwd=tmp_path,
                                timeout=120)
        assert result.returncode == 2, (command, result.stderr)


def _built_on_openblas():
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 only prints its configuration
        return False
    return "openblas" in config["Build Dependencies"]["blas"]["name"]


# Commands whose output goes through numpy's matrix products (the PCA
# covariance and projection) and its SIMD loops (the search's blocks).
KERNEL_COMMANDS = [
    ["pca", "--components", "3", "--pca-imputation", "mean-fill"],
    ["plot", "pca", "--color-by", "difficulty", "--pca-imputation",
     "mean-fill"],
    ["select", "--size", "2..5", "--top", "3"],
    ["select", "--size", "2..4", "--mode", "min", "--diversity-variant",
     "literal-sqrt"],
]


def test_outputs_are_the_same_bytes_under_other_kernels(tmp_path):
    """OpenBLAS's Prescott and Haswell kernels, and numpy without its
    AVX-512 loops, give every file the bytes the default kernels give.
    Each setting reaches only the child process."""
    if not _built_on_openblas():
        pytest.skip("numpy is not built on OpenBLAS")
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x, which has none of these names
        from numpy.core import _multiarray_umath as umath
    simd = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
            if umath.__cpu_features__.get(f) and f in umath.__cpu_dispatch__]
    cases = {"default": {}, "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
             "haswell": {"OPENBLAS_CORETYPE": "Haswell"}}
    if simd:
        cases["no-avx512"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(simd)}
    source_root = str(Path(apspace.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    written = {}
    for case, settings in cases.items():
        env = {**base, "PYTHONPATH": source_root, **settings}
        files = {}
        for i, argv in enumerate(KERNEL_COMMANDS):
            outdir = tmp_path / case / str(i)
            result = subprocess.run(
                [sys.executable, "-m", "apspace.cli", *argv, "-i", FIXTURE,
                 "-o", str(outdir)], capture_output=True, text=True,
                encoding="utf-8", env=env, timeout=120)
            assert result.returncode == 0, (case, argv, result.stderr)
            files |= {f"{i}/{p.name}": p.read_bytes()
                      for p in outdir.iterdir()}
        written[case] = files
    assert sorted(written["default"]) == [
        "0/pca.csv", "1/pca_scatter.svg", "2/selections.csv",
        "3/selections.csv"]
    for case, files in written.items():
        assert files == written["default"], case


def test_each_choice_default_is_the_first_value_of_its_tuple(monkeypatch,
                                                            capsys):
    """The library signatures, RunConfig, the parsed --mode and the help
    of each choice flag agree on every default."""
    for func, name, values in (
            (parse_csv, "fmt", INPUT_FORMATS),
            (difficulty, "orientation", DIFFICULTY_ORIENTATIONS),
            (metric_table, "orientation", DIFFICULTY_ORIENTATIONS),
            (diversity, "variant", DIVERSITY_VARIANTS),
            (score_selection, "variant", DIVERSITY_VARIANTS),
            (exhaustive_search, "mode", SEARCH_MODES),
            (exhaustive_search, "variant", DIVERSITY_VARIANTS),
            (greedy_search, "mode", SEARCH_MODES),
            (greedy_search, "variant", DIVERSITY_VARIANTS),
            (pca_project, "imputation", IMPUTATION_MODES)):
        default = inspect.signature(func).parameters[name].default
        assert default == values[0], (func.__name__, name)
    defaults = {"input_format": INPUT_FORMATS[0],
                "difficulty_orientation": DIFFICULTY_ORIENTATIONS[0],
                "diversity_variant": DIVERSITY_VARIANTS[0],
                "pca_imputation": IMPUTATION_MODES[0]}
    config = RunConfig()
    assert {key: getattr(config, key) for key in defaults} == defaults
    ns = _build_parser().parse_args(["select", "--size", "2"])
    assert ns.mode == SEARCH_MODES[0]
    # wide enough that no help text wraps inside a value
    monkeypatch.setenv("COLUMNS", "200")
    entries = {}
    # select and report take every choice flag between them
    for command in ("select", "report"):
        assert run([command, "--help"]) == 0
        entries.update((entry.split()[0], entry) for entry in
                       re.split(r"\n(?=  -)", capsys.readouterr().out))
    flags = {"--format": INPUT_FORMATS[0],
             "--difficulty-orientation": DIFFICULTY_ORIENTATIONS[0],
             "--diversity-variant": DIVERSITY_VARIANTS[0],
             "--pca-imputation": IMPUTATION_MODES[0],
             "--mode": SEARCH_MODES[0],
             "--strategy": "exhaustive"}
    assert {flag for flag, entry in entries.items()
            if re.match(r"  --[\w-]+ \{", entry)} == flags.keys()
    for flag, default in flags.items():
        assert f"(default {default})" in entries[flag], entries[flag]


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"\[(-[^]]*)\]", out) == [
        "-h", "--input INPUT", "--format {auto,long,wide}",
        "--output-dir OUTPUT_DIR", "--config CONFIG"]
    assert "--input INPUT, -i INPUT" in out
    assert "--output-dir OUTPUT_DIR, -o OUTPUT_DIR" in out
    # every parser lists exactly the analysis options its handler reads
    for argv, reads in ANALYSIS_OPTIONS.items():
        assert run([*argv, "--help"]) == 0
        out = capsys.readouterr().out
        assert [flag for flag in ANALYSIS_FLAGS if flag in out] == \
            list(reads), argv
    # each plot kind lists only its own flag
    for kind, own, other in (("mini", "--ordered", "--color-by"),
                             ("pca", "--color-by", "--ordered")):
        capsys.readouterr()
        assert run(["plot", kind, "--help"]) == 0
        out = capsys.readouterr().out
        assert own in out and other not in out
