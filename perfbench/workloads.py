"""Seeded inputs and command lists for the benchmark workloads.

The seed is the benchmark's argument; ``aps`` only ever sees the CSV
file written here.  The same seed always gives the same bytes.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Inputs:
    """One generated input file plus the values it encodes (NaN = gap)."""

    csv_path: Path
    datasets: tuple[str, ...]
    algorithms: tuple[str, ...]
    values: np.ndarray

    @property
    def complete_rows(self) -> int:
        return int((~np.isnan(self.values)).all(axis=1).sum())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, Path], Inputs]
    commands: tuple[tuple[str, ...], ...]
    # subset candidates scored per pass, for workloads whose every command
    # is a search (None elsewhere)
    candidates: Callable[[Inputs], int] | None
    checker: type[checks.Checker]


def _write(path: Path, header: list[str], rows: list[tuple[str, list[str]]]):
    lines = [",".join(header)]
    lines += [",".join([name, *cells]) for name, cells in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _random_wide(seed: int, directory: Path, n_datasets: int,
                 n_algorithms: int, missing_rate: float,
                 complete_rows: int | None = None) -> Inputs:
    """Wide CSV drawn like ``tests/conftest.py::random_matrix``.

    Same draw order per row (scores, then gaps), and a row that came out
    all-missing gets one random cell back, so no row is empty.  With
    ``complete_rows``, rows picked by the same generator then gain their
    drawn scores back, or lose one cell, until exactly that many rows
    are complete.
    """
    rng = np.random.default_rng(seed)
    scores = np.empty((n_datasets, n_algorithms))
    gaps = np.empty((n_datasets, n_algorithms), dtype=bool)
    for i in range(n_datasets):
        scores[i] = rng.random(n_algorithms)
        gaps[i] = rng.random(n_algorithms) < missing_rate
        if gaps[i].all():
            gaps[i, int(rng.integers(n_algorithms))] = False
    if complete_rows is not None:
        complete = ~gaps.any(axis=1)
        surplus = int(complete.sum()) - complete_rows
        if surplus > 0:
            for i in rng.choice(np.flatnonzero(complete), surplus,
                                replace=False):
                gaps[i, int(rng.integers(n_algorithms))] = True
        elif surplus < 0:
            gaps[rng.choice(np.flatnonzero(~complete), -surplus,
                            replace=False)] = False
    values = np.where(gaps, np.nan, scores)
    datasets = tuple(f"ds{i:03d}" for i in range(n_datasets))
    algorithms = tuple(f"algo{j}" for j in range(n_algorithms))
    path = directory / "input.csv"
    _write(path, ["dataset", *algorithms],
           [(d, ["" if math.isnan(v) else repr(float(v)) for v in row])
            for d, row in zip(datasets, values)])
    return Inputs(path, datasets, algorithms, values)


def _shuffled_corpus(seed: int, directory: Path) -> Inputs:
    """The bundled ``thesis_scores.csv`` with its data rows permuted."""
    from apspace.ingest import fixture_path

    lines = fixture_path("thesis_scores.csv").read_text(
        encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    order = np.random.default_rng(seed).permutation(len(rows))
    rows = [rows[i] for i in order]
    path = directory / "input.csv"
    _write(path, header, [(r[0], r[1:]) for r in rows])
    values = np.array([[float(c) if c else np.nan for c in r[1:]]
                       for r in rows])
    return Inputs(path, tuple(r[0] for r in rows), tuple(header[1:]), values)


def exhaustive_candidates(n: int, sizes) -> int:
    return sum(math.comb(n, k) for k in sizes)


def greedy_candidates(n: int, sizes) -> int:
    """Every pair once, then one scan of the remaining rows per addition."""
    return sum(math.comb(n, 2) + sum(n - s for s in range(2, k))
               for k in sizes)


WORKLOADS = {w.name: w for w in (
    # The real corpus and the hot path: exhaustive search does nearly all
    # the work (741 + 9,139 + 82,251 = 92,131 candidates over 39 complete
    # rows), so a search speed-up must show here.  Shuffling the rows
    # tests the documented row-order invariance: selections.csv has one
    # pinned digest for every seed.
    Workload(
        name="select-corpus",
        why="real corpus; exhaustive search of 92,131 subsets dominates, "
            "and shuffled rows must give byte-identical selections",
        make=_shuffled_corpus,
        commands=(("select", "--size", "2..4", "--top", "3"),),
        candidates=lambda inp: exhaustive_candidates(inp.complete_rows,
                                                     (2, 3, 4)),
        checker=checks.SelectCorpus,
    ),
    # Ingest, build_matrix, viz and the CLI's writes: all six commands
    # re-parse a 1000 x 20 input with 20% gaps, and the mini grid writes
    # 190 SVGs.  The report searches only the 12 complete rows (781
    # candidates), so a search optimisation must predict no change here.
    # The complete-row count is fixed because a free draw gives 5 to 17
    # such rows over seeds, and up to 3,196 candidates over 20 axes, a
    # seventh of the pass, swamps the layers this workload is for.
    Workload(
        name="analyze-wide",
        why="1000x20 matrix with 20% gaps through six commands; parse, "
            "metrics, PCA, 192 SVGs and 194 file writes dominate, search "
            "is under 2%",
        make=lambda seed, d: _random_wide(seed, d, 1000, 20, 0.2, 12),
        commands=(
            ("validate",),
            ("metrics",),
            ("pca", "--components", "3", "--pca-imputation", "mean-fill"),
            ("plot", "mini"),
            ("plot", "pca", "--color-by", "difficulty",
             "--pca-imputation", "mean-fill"),
            ("report",),
        ),
        candidates=None,
        checker=checks.AnalyzeWide,
    ),
    # The same search layer and _evaluate kernel used differently: greedy
    # re-scans all 44,850 pairs of 300 rows at every size, over 8 axes
    # (135,443 candidates).  A change to the exhaustive path alone
    # predicts no change here; a change to _evaluate must show on both
    # search workloads.
    Workload(
        name="greedy-wide",
        why="300x8 complete matrix; greedy search re-scans 44,850 pairs per "
            "size, 135,443 candidates through the same scoring kernel",
        make=lambda seed, d: _random_wide(seed, d, 300, 8, 0.0),
        commands=(("select", "--strategy", "greedy", "--size", "2..4"),),
        candidates=lambda inp: greedy_candidates(inp.complete_rows,
                                                 (2, 3, 4)),
        checker=checks.GreedyWide,
    ),
)}
