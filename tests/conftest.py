import os

import numpy as np
import pytest
from hypothesis import settings

from apspace.core import PerformanceMatrix, Score, build_matrix
from apspace.ingest import load_thesis_matrix, load_thesis_metric_columns

# HYPOTHESIS_PROFILE=ci runs the property referees on more examples.
settings.register_profile("ci", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def fixture_matrix() -> PerformanceMatrix:
    return load_thesis_matrix()


@pytest.fixture(scope="session")
def published_metrics() -> dict[str, tuple[float, float | None]]:
    return load_thesis_metric_columns()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)


def make_matrix(rows: dict[str, list[Score]],
                algorithms: list[str] | None = None) -> PerformanceMatrix:
    """Small-matrix builder for tests: {dataset: [score per algorithm]}."""
    n = len(next(iter(rows.values())))
    algorithms = algorithms or [f"algo{j}" for j in range(n)]
    records = [(d, a, v)
               for d, values in rows.items()
               for a, v in zip(algorithms, values)]
    return build_matrix(records)


def random_matrix(rng: np.random.Generator, n_datasets: int,
                  n_algorithms: int, missing_rate: float = 0.0,
                  prefix: str = "ds") -> PerformanceMatrix:
    """Random score matrix; guarantees no all-missing rows."""
    records = []
    for i in range(n_datasets):
        name = f"{prefix}{i:03d}"
        row = rng.random(n_algorithms)
        gaps = rng.random(n_algorithms) < missing_rate
        if gaps.all():
            gaps[int(rng.integers(n_algorithms))] = False
        for j in range(n_algorithms):
            records.append((name, f"algo{j}",
                            None if gaps[j] else float(row[j])))
    return build_matrix(records)
