"""``aps`` command line: batch runs over a performance-matrix CSV.

Subcommands: validate, metrics, select, pca, plot, report.  Options can
come from flags, a ``--config`` file of ``key = value`` lines, or the
``APS_OUTPUT_DIR`` environment variable, merged in that precedence
order on top of the built-in defaults.  The resolved configuration is
echoed to stderr so every run is reproducible from its log.

Exit codes: 0 success, 1 user error (flags/config), 2 data error
(unreadable or invalid input), 3 internal error.
"""

import argparse
import csv
import io
import os
import re
import sys
import tempfile
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Sequence

from .core import ApsError, PerformanceMatrix
from . import ingest
from .metrics import (DIFFICULTY_ORIENTATIONS, DIVERSITY_VARIANTS,
                      metric_table)
from .pca import IMPUTATION_MODES, pca_project
from .search import SEARCH_MODES, exhaustive_search, greedy_search
from .viz import PlotSpec, mini_aps_grid, pca_scatter_svg

class _UserError(Exception):
    """Bad flags or config; maps to exit 1."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one run; the field defaults are the CLI's."""

    input_path: str | None = None
    input_format: str = "auto"
    difficulty_orientation: str = "one-minus-mean"
    diversity_variant: str = "nth-root"
    pca_imputation: str = "complete-rows-only"
    output_dir: str = "./aps-out"


_CONFIG_KEYS = tuple(f.name for f in dataclass_fields(RunConfig))

# The allowed values of each choice option, by RunConfig field, with the
# noun its error message uses.  argparse checks flags against them and
# _resolve_config checks the merged values, config-file ones included.
_CHOICES = {
    "input_format": ("input format", ingest.INPUT_FORMATS),
    "difficulty_orientation": ("difficulty orientation",
                               DIFFICULTY_ORIENTATIONS),
    "diversity_variant": ("diversity variant", DIVERSITY_VARIANTS),
    "pca_imputation": ("imputation mode", IMPUTATION_MODES),
}


def _fmt4(x: float) -> str:
    return f"{x:.4f}"  # round-half-even, matching table precision


def _write_atomic(path: Path, text: str) -> None:
    """Write via a sibling temp file + rename; never leaves partials."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("common options")
    g.add_argument("--input", "-i", dest="input_path", metavar="INPUT",
                   default=argparse.SUPPRESS,
                   help="input CSV (wide or long format)")
    g.add_argument("--format", dest="input_format", default=argparse.SUPPRESS,
                   choices=_CHOICES["input_format"][1],
                   help=f"input shape (default {RunConfig.input_format})")
    g.add_argument("--output-dir", "-o", default=argparse.SUPPRESS,
                   help=f"where output files go (default "
                        f"{RunConfig.output_dir}, or $APS_OUTPUT_DIR)")
    for key in ("difficulty_orientation", "diversity_variant",
                "pca_imputation"):
        g.add_argument("--" + key.replace("_", "-"),
                       default=argparse.SUPPRESS, choices=_CHOICES[key][1])
    g.add_argument("--config", default=argparse.SUPPRESS,
                   help="file of key = value lines mirroring these options")

    parser = argparse.ArgumentParser(
        prog="aps", parents=[common],
        description="Analyze an algorithm-performance matrix: per-dataset "
                    "metrics, diverse-subset search, PCA, and SVG plots.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, handler, summary):
        p = parent.add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler)
        return p

    command(sub, "validate", _cmd_validate,
            "print shape counts and warnings for the input")
    command(sub, "metrics", _cmd_metrics,
            "write per-dataset difficulty/variance to metrics.csv")
    p_sel = command(sub, "select", _cmd_select,
                    "search dataset subsets by diversity; "
                    "writes selections.csv")
    p_sel.add_argument("--size", required=True,
                       help="subset size or range, e.g. 3 or 2..4")
    p_sel.add_argument("--mode", choices=SEARCH_MODES, default="max")
    p_sel.add_argument("--top", type=int, default=1,
                       help="how many ranked selections to keep per size")
    p_sel.add_argument("--strategy", choices=("exhaustive", "greedy"),
                       default="exhaustive")
    command(sub, "pca", _cmd_pca,
            "project datasets onto principal components; writes pca.csv"
            ).add_argument("--components", type=int, default=2)
    plot = sub.add_parser("plot", parents=[common],
                          help="write SVG scatter plots"
                          ).add_subparsers(dest="kind", required=True)
    command(plot, "mini", _cmd_plot_mini,
            "one scatter per pair of algorithms"
            ).add_argument("--ordered", action="store_true",
                           help="render both orientations of each pair")
    command(plot, "pca", _cmd_plot_pca,
            "scatter of the first two components"
            ).add_argument("--color-by", choices=("difficulty", "variance"),
                           default=None, help="gradient-color the points")
    command(sub, "report", _cmd_report,
            "write a Markdown summary to report.md")
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UserError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for num, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise _UserError(f"{path}:{num}: expected 'key = value'")
        if key not in _CONFIG_KEYS:
            raise _UserError(
                f"{path}:{num}: unknown key {key!r} "
                f"(known: {', '.join(_CONFIG_KEYS)})")
        values[key] = value
    return values


def _resolve_config(ns: argparse.Namespace) -> RunConfig:
    """Defaults <- environment <- config file <- command-line flags."""
    merged = {f.name: f.default for f in dataclass_fields(RunConfig)}
    env_dir = os.environ.get("APS_OUTPUT_DIR")
    if env_dir:
        merged["output_dir"] = env_dir
    given = vars(ns)
    if "config" in given:
        merged.update(_parse_config_file(given["config"]))
    merged.update((key, given[key]) for key in _CONFIG_KEYS if key in given)
    for key, (what, allowed) in _CHOICES.items():
        if merged[key] not in allowed:
            raise _UserError(f"invalid {what} {merged[key]!r} "
                             f"(choose from {', '.join(allowed)})")
    return RunConfig(**merged)


def _print_config(cfg: RunConfig) -> None:
    for f in dataclass_fields(RunConfig):
        print(f"config: {f.name} = {getattr(cfg, f.name)}", file=sys.stderr)


def _load_matrix(cfg: RunConfig) -> PerformanceMatrix:
    if not cfg.input_path:
        raise _UserError("no input file; pass --input or set input_path "
                         "in the config file")
    try:
        text = Path(cfg.input_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ApsError(f"cannot read input {cfg.input_path}: {exc}") from None
    return ingest.parse_csv(text, cfg.input_format)


def _emit(cfg: RunConfig, name: str, text: str) -> None:
    """Write ``text`` to ``name`` in the output dir and say so on stderr."""
    path = Path(cfg.output_dir) / name
    try:
        _write_atomic(path, text)
    except OSError as exc:
        raise _UserError(f"cannot write {path}: {exc}") from None
    print(f"wrote {path}", file=sys.stderr)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]],
              trailer: str | None = None) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    if trailer is not None:
        buf.write(trailer + "\n")
    return buf.getvalue()


def _cmd_validate(matrix: PerformanceMatrix, cfg: RunConfig,
                  ns: argparse.Namespace) -> int:
    rep = ingest.validate(matrix)
    print(f"datasets: {rep.dataset_count}")
    print(f"algorithms: {rep.algorithm_count}")
    print(f"present cells: {rep.present_cells}")
    print(f"missing cells: {rep.missing_cells}")
    print(f"complete rows: {rep.complete_row_count}")
    for warning in rep.warnings:
        print(f"warning: {warning}")
    return 0


def _cmd_metrics(matrix: PerformanceMatrix, cfg: RunConfig,
                 ns: argparse.Namespace) -> int:
    report = metric_table(matrix, cfg.difficulty_orientation)
    rows = [[r.dataset, _fmt4(r.difficulty),
             "" if r.variance is None else _fmt4(r.variance),
             str(r.present_count)] for r in report.rows]
    _emit(cfg, "metrics.csv", _csv_text(
        ["dataset", "difficulty", "variance", "present_count"], rows))
    return 0


def _parse_size_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise _UserError(f"bad --size {text!r}; expected N or A..B")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if lo < 2 or hi < lo:
        raise _UserError(f"bad --size {text!r}; need 2 <= A <= B")
    return lo, hi


def _cmd_select(matrix: PerformanceMatrix, cfg: RunConfig,
                ns: argparse.Namespace) -> int:
    lo, hi = _parse_size_range(ns.size)
    if ns.top < 1:
        raise _UserError(f"--top must be >= 1, got {ns.top}")
    if ns.strategy == "greedy" and ns.top != 1:
        raise _UserError(f"--top {ns.top} needs --strategy exhaustive; "
                         "greedy builds one subset per size")
    rows = []
    for size in range(lo, hi + 1):
        if ns.strategy == "greedy":
            result = greedy_search(matrix, size, mode=ns.mode,
                                   variant=cfg.diversity_variant)
        else:
            result = exhaustive_search(matrix, size, mode=ns.mode,
                                       top_k=ns.top,
                                       variant=cfg.diversity_variant)
        for sel in result.top:
            rows.append([str(sel.rank), str(size), ";".join(sel.datasets),
                         _fmt4(sel.score)])
    _emit(cfg, "selections.csv",
          _csv_text(["rank", "size", "datasets", "score"], rows))
    return 0


def _cmd_pca(matrix: PerformanceMatrix, cfg: RunConfig,
             ns: argparse.Namespace) -> int:
    # a count above the algorithm count depends on the data: exit 2 there
    if ns.components < 1:
        raise _UserError(f"--components must be >= 1, got {ns.components}")
    projection = pca_project(matrix, k=ns.components,
                             imputation=cfg.pca_imputation)
    k = projection.coordinates.shape[1]
    rows = [[name, *(_fmt4(float(v)) for v in projection.coordinates[i])]
            for i, name in enumerate(projection.dataset_ids)]
    trailer = "# explained_variance_ratio," + ",".join(
        _fmt4(float(r)) for r in projection.explained_variance_ratio)
    _emit(cfg, "pca.csv", _csv_text(
        ["dataset", *(f"pc{i + 1}" for i in range(k))], rows, trailer))
    return 0


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", label)


def _cmd_plot_mini(matrix: PerformanceMatrix, cfg: RunConfig,
                   ns: argparse.Namespace) -> int:
    grid = mini_aps_grid(matrix, ordered=ns.ordered)
    for warning in grid.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    seen: dict[str, str] = {}
    for label, _ in grid.plots:
        name = _safe_name(label)
        if name in seen:
            raise ApsError(f"plot labels {seen[name]!r} and {label!r} "
                           f"both map to mini_{name}.svg")
        seen[name] = label
    for label, svg in grid.plots:
        _emit(cfg, f"mini_{_safe_name(label)}.svg", svg)
    return 0


def _cmd_plot_pca(matrix: PerformanceMatrix, cfg: RunConfig,
                  ns: argparse.Namespace) -> int:
    projection = pca_project(matrix, k=2, imputation=cfg.pca_imputation)
    metric_values = None
    if ns.color_by:
        rows = metric_table(matrix, cfg.difficulty_orientation).rows
        metric_values = [getattr(rows[matrix.dataset_index(d)], ns.color_by)
                         for d in projection.dataset_ids]
    _emit(cfg, "pca_scatter.svg", pca_scatter_svg(
        projection, metric_values, PlotSpec(color_by=ns.color_by)))
    return 0


def _cmd_report(matrix: PerformanceMatrix, cfg: RunConfig,
                ns: argparse.Namespace) -> int:
    rep = ingest.validate(matrix)
    table = metric_table(matrix, cfg.difficulty_orientation)
    lines = [
        "# Performance space report",
        "",
        "## Input",
        "",
        f"- datasets: {rep.dataset_count}",
        f"- algorithms: {rep.algorithm_count} "
        f"({', '.join(matrix.algorithms)})",
        f"- present / missing cells: {rep.present_cells} / "
        f"{rep.missing_cells}",
        f"- complete rows: {rep.complete_row_count}",
        f"- warnings: {len(rep.warnings)}",
        "",
        "## Per-dataset metrics",
        "",
    ]
    try:
        lines.append(f"Mean difficulty {_fmt4(table.mean_difficulty)}, "
                     f"median {_fmt4(table.median_difficulty)} "
                     f"(orientation: {table.orientation}).")
    except ApsError as exc:
        lines.append(f"Difficulty summary unavailable: {exc}.")
    lines += ["", "| dataset | difficulty | variance | present |",
              "| --- | --- | --- | --- |"]
    for r in table.rows:
        var = "" if r.variance is None else _fmt4(r.variance)
        lines.append(f"| {r.dataset} | {_fmt4(r.difficulty)} | {var} | "
                     f"{r.present_count} |")
    lines += ["", "## Most diverse selections", ""]
    sizes = [s for s in (2, 3, 4) if s <= rep.complete_row_count]
    if not sizes:
        lines.append("Too few complete rows for subset search.")
    else:
        try:
            best = [exhaustive_search(matrix, size, mode="max", top_k=1,
                                      variant=cfg.diversity_variant).best
                    for size in sizes]
        except ApsError as exc:
            lines.append(f"Selections unavailable: {exc}.")
        else:
            lines += ["| size | datasets | score |", "| --- | --- | --- |"]
            lines += [f"| {size} | {'; '.join(b.datasets)} | "
                      f"{_fmt4(b.score)} |" for size, b in zip(sizes, best)]
    lines += ["", "## Projection", ""]
    try:
        k = min(2, matrix.n_algorithms)
        projection = pca_project(matrix, k=k, imputation=cfg.pca_imputation)
        ratios = ", ".join(_fmt4(float(r))
                           for r in projection.explained_variance_ratio)
        lines.append(f"Explained variance ratios (k={k}, "
                     f"{cfg.pca_imputation}): {ratios}.")
    except ApsError as exc:
        lines.append(f"Projection unavailable: {exc}.")
    lines.append("")
    _emit(cfg, "report.md", "\n".join(lines))
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run one subcommand, return the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/usage printing
        return 0 if (exc.code or 0) == 0 else 1
    try:
        cfg = _resolve_config(ns)
    except _UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_config(cfg)
    try:
        matrix = _load_matrix(cfg)
        return ns.handler(matrix, cfg, ns)
    except _UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ApsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
