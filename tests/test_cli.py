import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest

import apspace
from conftest import make_matrix, random_matrix
from apspace.cli import RunConfig, run
from apspace.ingest import (fixture_path, load_thesis_matrix, write_long,
                            write_wide)
from apspace.metrics import metric_table
from apspace.pca import pca_project
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
], ids=["mini-color-by", "pca-ordered", "greedy-top"])
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
], ids=["size-text", "size-range", "top", "greedy-top", "components"])
def test_flag_errors_come_before_reading_input(tmp_path, capsys, argv,
                                               message):
    missing = tmp_path / "missing.csv"
    assert run([*argv, "-i", str(missing), "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


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
def test_plot_pca_colors_match_metric_table(outdir, color_by):
    """Each point takes its metric_table value under the configured
    orientation, without the whole table being built."""
    matrix = load_thesis_matrix()
    table = metric_table(matrix, "raw-mean")
    projection = pca_project(matrix, k=2, imputation="zero-fill")
    want = pca_scatter_svg(
        projection, [getattr(table.row(d), color_by)
                     for d in projection.dataset_ids],
        PlotSpec(color_by=color_by))
    with mock.patch("apspace.cli.metric_table", side_effect=AssertionError):
        assert run(["plot", "pca", "--color-by", color_by,
                    "--difficulty-orientation", "raw-mean",
                    "--pca-imputation", "zero-fill",
                    "-i", FIXTURE, "-o", str(outdir)]) == 0
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
    assert run(["validate", "-i", FIXTURE, flag, "bogus"]) == 1
    err = capsys.readouterr().err
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


def test_env_output_dir_and_override(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("APS_OUTPUT_DIR", str(env_dir))
    assert run(["metrics", "-i", FIXTURE]) == 0
    assert (env_dir / "metrics.csv").exists()
    flag_dir = tmp_path / "flag_out"
    assert run(["metrics", "-i", FIXTURE, "-o", str(flag_dir)]) == 0
    assert (flag_dir / "metrics.csv").exists()


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
    ``http.client``, ``email`` and ``ssl``): every command pays the import."""
    source_root = str(Path(apspace.__file__).resolve().parents[1])
    probe = ("import sys, apspace.cli; "
             "print(sorted(m for m in ('urllib.request', 'http.client', "
             "'ssl', 'xml.sax') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": source_root})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_console_script_entry_point(tmp_path):
    """The declared ``aps`` script runs as its own process, installed or not."""
    scripts = re.search(r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)",
                        PYPROJECT.read_text(encoding="utf-8"), re.M | re.S)
    assert scripts and re.search(r'^aps\s*=\s*"apspace\.cli:main"\s*$',
                                 scripts.group(1), re.M), scripts
    # the body of the console-script wrapper that pip installs as `aps`
    wrapper = "import sys; from apspace.cli import main; sys.exit(main())"
    commands = [[sys.executable, "-c", wrapper]]
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
                                capture_output=True, text=True, env=env,
                                cwd=tmp_path, timeout=120)
        assert result.returncode == 0, (command, result.stderr)
        assert "datasets: 71" in result.stdout, (command, result.stderr)
        # run()'s exit code reaches the shell: 2 is unusable input
        result = subprocess.run([*command, "validate", "-i", missing],
                                capture_output=True, text=True, env=env,
                                cwd=tmp_path, timeout=120)
        assert result.returncode == 2, (command, result.stderr)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"\[(-[^]]*)\]", out) == [
        "-h", "--input INPUT", "--format {auto,long,wide}",
        "--output-dir OUTPUT_DIR",
        "--difficulty-orientation {one-minus-mean,raw-mean}",
        "--diversity-variant {nth-root,literal-sqrt}",
        "--pca-imputation {complete-rows-only,zero-fill,mean-fill}",
        "--config CONFIG"]
    assert "--input INPUT, -i INPUT" in out
    assert "--output-dir OUTPUT_DIR, -o OUTPUT_DIR" in out
    assert run(["select", "--help"]) == 0
    # each plot kind lists only its own flag
    for kind, own, other in (("mini", "--ordered", "--color-by"),
                             ("pca", "--color-by", "--ordered")):
        capsys.readouterr()
        assert run(["plot", kind, "--help"]) == 0
        out = capsys.readouterr().out
        assert own in out and other not in out
