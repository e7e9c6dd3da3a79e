"""Output checks, independent of the code paths that produced the outputs.

Each checker computes its expectations once per run from the generated
values (with numpy, or the public ``score_selection``) and is called
after every pass.  A failed check fails the command that wrote the file.
"""

import csv
import hashlib
import io
import math
from itertools import combinations, islice
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from apspace import ApsError, build_matrix, score_selection

SVG_CIRCLE = "{http://www.w3.org/2000/svg}circle"


def f4(x: float) -> str:
    return f"{x:.4f}"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


def _ratios(x: np.ndarray, k: int) -> list[float]:
    """Explained-variance ratios of the top k components, via LAPACK."""
    centered = x - x.mean(axis=0)
    vals = np.linalg.eigvalsh(centered.T @ centered / (len(x) - 1))[::-1]
    return list(vals[:k] / vals.sum())


def diversity_scores(points: np.ndarray) -> np.ndarray:
    """Diversity ("nth-root" variant) of each (k, n) point set in a
    (c, k, n) stack, written from the formula rather than from apspace."""
    n_axes = points.shape[2]
    i, j = np.triu_indices(points.shape[1], 1)
    dists = np.sqrt(((points[:, i] - points[:, j]) ** 2).sum(axis=2))
    volume = np.prod(points.max(axis=1) - points.min(axis=1), axis=1)
    return (1.0 - dists.var(axis=1) / (n_axes / 4.0)) * volume ** (1 / n_axes)


def _ratios_match(texts: list[str], expected: list[float]) -> bool:
    return len(texts) == len(expected) and all(
        abs(float(t) - e) <= 0.5e-4 + 1e-12 for t, e in zip(texts, expected))


class Checker:
    """Checks one pass's output directory; subclasses check each file.

    ``pins`` maps every output file to its sha256 on the default seed;
    on other seeds only pins that hold for every seed are compared.
    """

    def __init__(self, inputs, pins: dict[str, str], default_seed: bool):
        self.inputs = inputs
        self.pins = pins
        self.pinned = pins if default_seed else None
        self.matrix = build_matrix(
            (d, a, None if math.isnan(v) else float(v))
            for d, row in zip(inputs.datasets, inputs.values)
            for a, v in zip(inputs.algorithms, row))
        complete = ~np.isnan(inputs.values).any(axis=1)
        self.points = {d: row for d, row, ok in zip(
            inputs.datasets, inputs.values, complete) if ok}
        self.files: dict[str, int] = {}   # output file -> command index

    def check_file(self, name: str, text: str) -> str | None:
        raise NotImplementedError

    def check_stdout(self, stdouts: list[str]) -> list[tuple[int, str]]:
        return []

    def __call__(self, outdir: Path,
                 stdouts: list[str]) -> list[tuple[int, str]]:
        """Return (command index, problem) for every failed check."""
        present = {p.name for p in outdir.iterdir()} if outdir.is_dir() \
            else set()
        last = max(self.files.values())
        fails = [(last, f"unexpected output file {name}")
                 for name in sorted(present - set(self.files))]
        fails += self.check_stdout(stdouts)
        for name, index in self.files.items():
            if name not in present:
                fails.append((index, f"{name}: missing"))
                continue
            path = outdir / name
            try:
                problem = self.check_file(name, path.read_bytes().decode())
            except (OSError, ValueError, KeyError, IndexError, ApsError,
                    ET.ParseError) as exc:
                problem = f"{type(exc).__name__}: {exc}"
            if problem is None and self.pinned is not None \
                    and sha256(path) != self.pinned.get(name):
                problem = "sha256 differs from the default-seed pin"
            if problem:
                fails.append((index, f"{name}: {problem}"))
        return fails

    def rescore(self, rows: list[list[str]]) -> str | None:
        """Rows of (size, 'a;b;...' names, score): re-score each with
        ``score_selection`` and with the formula."""
        for size, names, score in rows:
            names = names.split(";")
            if len(names) != int(size):
                return f"selection {names} is not of size {size}"
            got = f4(score_selection(self.matrix, names).score)
            if got != score:
                return f"selection {names} re-scores to {got}, not {score}"
            if abs(self.score(names) - float(score)) > 0.5e-4 + 1e-12:
                return f"selection {names} has diversity " \
                       f"{self.score(names):.6f}, not {score}"
        return None

    def score(self, names) -> float:
        return float(diversity_scores(
            np.array([[self.points[d] for d in names]]))[0])

    def best_score(self, base: list[str], size: int) -> float:
        """Highest diversity of any size-subset of the complete rows that
        contains ``base``, scored in blocks to keep memory small."""
        rest = sorted(set(self.points) - set(base))
        table = np.array([self.points[d] for d in rest])
        fixed = np.array([self.points[d] for d in base]).reshape(
            len(base), table.shape[1])
        combos = combinations(range(len(rest)), size - len(base))
        best = -math.inf
        while block := list(islice(combos, 4096)):
            picked = table[np.array(block)]
            stack = np.concatenate(
                [np.broadcast_to(fixed, (len(block), *fixed.shape)), picked],
                axis=1)
            best = max(best, float(diversity_scores(stack).max()))
        return best


class _Selections(Checker):
    """``select --size 2..4``: header, rank/size layout, every score."""

    ranks = 1

    def __init__(self, inputs, pins, default_seed):
        super().__init__(inputs, pins, default_seed)
        self.files = {"selections.csv": 0}

    def check_file(self, name, text):
        rows = _csv_rows(text)
        if rows[0] != ["rank", "size", "datasets", "score"]:
            return f"bad header {rows[0]}"
        layout = [[str(r), str(s)] for s in (2, 3, 4)
                  for r in range(1, self.ranks + 1)]
        if [row[:2] for row in rows[1:]] != layout:
            return "rank/size rows are not the expected ones"
        return self.rescore([row[1:] for row in rows[1:]])


class SelectCorpus(_Selections):
    """Top 3 per size; the file is pinned for every seed, since shuffling
    the corpus rows must not change a byte of it."""

    ranks = 3

    def check_file(self, name, text):
        if hashlib.sha256(text.encode()).hexdigest() != self.pins[name]:
            return "sha256 differs from the pin that holds for every seed"
        return super().check_file(name, text)


class GreedyWide(_Selections):
    """One greedy selection per size, each grown from the previous one."""

    def check_file(self, name, text):
        problem = super().check_file(name, text)
        if problem:
            return problem
        picks = [row[2].split(";") for row in _csv_rows(text)[1:]]
        if not all(set(a) < set(b) for a, b in zip(picks, picks[1:])):
            return "greedy selections do not grow one dataset at a time"
        # each step must take the best pair, then the best addition
        for base, pick in zip([[], *picks], picks):
            best = self.best_score(base, len(pick))
            if self.score(pick) < best - 1e-9:
                return f"{pick} scores below the best step, {best:.6f}"
        return None


class AnalyzeWide(Checker):
    """validate, metrics, pca, plot mini, plot pca and report outputs."""

    def __init__(self, inputs, pins, default_seed):
        super().__init__(inputs, pins, default_seed)
        v = inputs.values
        present = ~np.isnan(v)
        counts = present.sum(axis=1)
        complete = present.all(axis=1)
        self.n_complete = int(complete.sum())
        self.present_cells = int(present.sum())
        self.warnings = int((~complete).sum()
                            + ((counts == 1) & (v.shape[1] > 1)).sum())
        self.metric_rows = []
        difficulties = []
        for name, row, n in zip(inputs.datasets, v, counts):
            p = row[~np.isnan(row)]
            difficulties.append(1.0 - p.mean())
            i, j = np.triu_indices(len(p), 1)
            var = f4(np.abs(p[i] - p[j]).mean()) if len(p) > 1 else ""
            self.metric_rows.append([name, f4(difficulties[-1]), var, str(n)])
        self.mean_line = (f"Mean difficulty {f4(np.mean(difficulties))}, "
                          f"median {f4(np.median(difficulties))} "
                          "(orientation: one-minus-mean).")
        filled = np.where(present, v, np.nanmean(v, axis=0))
        self.pca_ratios = _ratios(filled, 3)
        self.report_ratios = (_ratios(v[complete], 2)
                              if self.n_complete >= 2 else None)
        algos = inputs.algorithms
        self.mini_circles = {
            f"mini_{algos[a]}_vs_{algos[b]}.svg":
                int((present[:, a] & present[:, b]).sum())
            for a in range(len(algos)) for b in range(a + 1, len(algos))}
        self.files = {"metrics.csv": 1, "pca.csv": 2,
                      **{name: 3 for name in self.mini_circles},
                      "pca_scatter.svg": 4, "report.md": 5}

    def check_stdout(self, stdouts):
        n, m = self.inputs.values.shape
        head = [f"datasets: {n}", f"algorithms: {m}",
                f"present cells: {self.present_cells}",
                f"missing cells: {n * m - self.present_cells}",
                f"complete rows: {self.n_complete}"]
        lines = stdouts[0].splitlines()
        if lines[:5] != head:
            return [(0, f"validate printed {lines[:5]}, expected {head}")]
        if sum(line.startswith("warning: ") for line in lines) \
                != self.warnings:
            return [(0, f"validate did not print {self.warnings} warnings")]
        return []

    def check_file(self, name, text):
        if name == "metrics.csv":
            rows = _csv_rows(text)
            if rows[0] != ["dataset", "difficulty", "variance",
                           "present_count"]:
                return f"bad header {rows[0]}"
            return self._first_diff(rows[1:], self.metric_rows)
        if name == "pca.csv":
            rows = _csv_rows(text)
            if rows[0] != ["dataset", "pc1", "pc2", "pc3"]:
                return f"bad header {rows[0]}"
            if [r[0] for r in rows[1:-1]] != list(self.inputs.datasets):
                return "dataset rows differ from the input"
            if rows[-1][0] != "# explained_variance_ratio" or \
                    not _ratios_match(rows[-1][1:], self.pca_ratios):
                return f"ratios {rows[-1][1:]} differ from eigvalsh " \
                       f"{[f4(r) for r in self.pca_ratios]}"
            return None
        if name.endswith(".svg"):
            root = ET.fromstring(text)
            circles = sum(1 for _ in root.iter(SVG_CIRCLE))
            want = self.mini_circles.get(name, len(self.inputs.datasets))
            if circles != want:
                return f"{circles} circles, expected {want}"
            return None
        return self._check_report(text)

    @staticmethod
    def _first_diff(got, want):
        if len(got) != len(want):
            return f"{len(got)} rows, expected {len(want)}"
        for g, w in zip(got, want):
            if g != w:
                return f"row {g} differs from recomputed {w}"
        return None

    def _check_report(self, text):
        lines = text.splitlines()
        n, m = self.inputs.values.shape
        for want in (
                f"- datasets: {n}",
                f"- algorithms: {m} ({', '.join(self.inputs.algorithms)})",
                f"- present / missing cells: {self.present_cells} / "
                f"{n * m - self.present_cells}",
                f"- complete rows: {self.n_complete}",
                f"- warnings: {self.warnings}",
                self.mean_line):
            if want not in lines:
                return f"line {want!r} missing"
        table = _table(lines, "| dataset | difficulty | variance | present |")
        problem = self._first_diff(table, self.metric_rows)
        if problem:
            return problem
        sizes = [k for k in (2, 3, 4) if k <= self.n_complete]
        if sizes:
            picks = _table(lines, "| size | datasets | score |")
            if [p[0] for p in picks] != [str(k) for k in sizes]:
                return f"selections for sizes {[p[0] for p in picks]}"
            rows = [[s, d.replace("; ", ";"), v] for s, d, v in picks]
            problem = self.rescore(rows)
            if problem:
                return problem
            for size, names, _ in rows:
                best = self.best_score([], int(size))
                if self.score(names.split(";")) < best - 1e-9:
                    return f"size {size} pick scores below the best, " \
                           f"{best:.6f}"
        prefix = "Explained variance ratios (k=2, complete-rows-only): "
        found = [l for l in lines if l.startswith(prefix)]
        if self.report_ratios is None:
            return None if not found else "projection from < 2 rows"
        if not found or not _ratios_match(
                found[0][len(prefix):].rstrip(".").split(", "),
                self.report_ratios):
            return f"projection line {found} differs from eigvalsh " \
                   f"{[f4(r) for r in self.report_ratios]}"
        return None


def _table(lines: list[str], header: str) -> list[list[str]]:
    """Cells of the Markdown table under ``header`` (skips the rule)."""
    i = lines.index(header) + 2
    rows = []
    while i < len(lines) and lines[i].startswith("|"):
        rows.append([c.strip() for c in lines[i].strip("|").split("|")])
        i += 1
    return rows
