"""Spans around each layer's public functions, for the traced run only.

Each wrapper is installed where callers look the name up: ``cli`` binds
the search, metric, PCA and plotting functions at import; it calls
``parse_wide`` and ``validate`` as ``ingest.<name>``; ``parse_wide``
reaches ``build_matrix`` and ``pca_project`` reaches ``eigh_symmetric``
through their own module globals.  Nothing under ``src/`` changes, and
the originals are put back after every traced pass.

Spans are kept in memory and written out when the run ends.  A layer's
self time is its span's duration minus the time of its child spans.
"""

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import apspace.cli
import apspace.ingest
import apspace.pca

from workloads import exhaustive_candidates, greedy_candidates


@dataclass
class Span:
    id: int
    parent: int | None
    request: tuple[int, int] | None   # (pass, command index)
    name: str
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


def _search_counter(layer: str, expected):
    """Count candidates from C(n, k) or the greedy formula, and flag any
    disagreement with ``SearchResult.candidates_evaluated``."""
    def count(tracer, args, result):
        matrix, size = args[0], args[1]
        n = sum(map(matrix.is_complete, matrix.datasets))
        want = expected(n, [size])
        if result.candidates_evaluated != want:
            tracer.problems.append((tracer.request, (
                f"{layer}: candidates_evaluated "
                f"{result.candidates_evaluated} != {want} for n={n}, "
                f"k={size}")))
        return {f"{layer}.candidates": want}
    return count


# (module, attribute, span name, counter(tracer, args, result) -> counts)
LAYERS = (
    (apspace.cli, "run", "cli.run",
     lambda t, a, r: {"cli.run.commands": 1, "cli.run.failed": int(r != 0)}),
    (apspace.cli, "exhaustive_search", "search.exhaustive_search",
     _search_counter("search.exhaustive_search", exhaustive_candidates)),
    (apspace.cli, "greedy_search", "search.greedy_search",
     _search_counter("search.greedy_search", greedy_candidates)),
    (apspace.cli, "metric_table", "metrics.metric_table",
     lambda t, a, r: {"metrics.metric_table.rows": len(r.rows)}),
    (apspace.cli, "pca_project", "pca.pca_project", None),
    (apspace.cli, "mini_aps_grid", "viz.mini_aps_grid",
     lambda t, a, r: {"viz.mini_aps_grid.plots": len(r.plots),
                      "viz.svg_bytes": sum(len(svg.encode())
                                           for _, svg in r.plots)}),
    (apspace.cli, "pca_scatter_svg", "viz.pca_scatter_svg",
     lambda t, a, r: {"viz.svg_bytes": len(r.encode())}),
    (apspace.ingest, "parse_wide", "ingest.parse_wide",
     lambda t, a, r: {"ingest.parse_wide.calls": 1,
                      "ingest.parse_wide.cells": r.n_datasets * r.n_algorithms}),
    (apspace.ingest, "validate", "ingest.validate", None),
    (apspace.ingest, "build_matrix", "core.build_matrix",
     lambda t, a, r: {"core.build_matrix.records": len(a[0])}),
    (apspace.pca, "eigh_symmetric", "pca.eigh_symmetric",
     lambda t, a, r: {"pca.eigh_symmetric.calls": 1,
                      "pca.eigh_symmetric.dim": len(r[0])}),
)


COUNTERS = (
    "cli.run.commands", "cli.run.failed",
    "search.exhaustive_search.candidates", "search.greedy_search.candidates",
    "metrics.metric_table.rows", "viz.mini_aps_grid.plots", "viz.svg_bytes",
    "ingest.parse_wide.calls", "ingest.parse_wide.cells",
    "core.build_matrix.records",
    "pca.eigh_symmetric.calls", "pca.eigh_symmetric.dim",
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.problems: list[tuple[tuple[int, int] | None, str]] = []
        self.request: tuple[int, int] | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            span = Span(next(self._ids),
                        self._stack[-1] if self._stack else None,
                        self.request, name)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(self, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of one pass."""
        saved = []
        try:
            for module, attr, name, counter in LAYERS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(name, saved[-1][2], counter))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def summarize(spans: list[Span]) -> dict[str, float]:
    """Self time and counts per layer over the spans of one pass."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out = dict.fromkeys(COUNTERS, 0)
    out.update({f"{name}.self_s": 0.0 for _, _, name, _ in LAYERS})
    for s in spans:
        out[f"{s.name}.self_s"] += s.end - s.start - child_time[s.id]
        for key, value in s.counts.items():
            if key not in out:
                raise KeyError(f"counter {key} is not declared in COUNTERS")
            # a dimension is a size, not an amount of work
            out[key] = max(out[key], value) if key.endswith(".dim") \
                else out[key] + value
    for layer in ("search.exhaustive_search", "search.greedy_search"):
        busy = out[f"{layer}.self_s"]
        out[f"{layer}.candidates_per_s"] = (
            out[f"{layer}.candidates"] / busy if busy > 0 else 0.0)
    return out


def is_count(metric: str) -> bool:
    """Counters must repeat exactly; times and rates need not."""
    return not metric.endswith("_s")
