import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from interdisc.corpus import JournalRegistry, load_edge_list
from interdisc.pipeline import RunConfig, compute_indicator_table

# Hand-tallied 3-journal fixture.  Rows are (citing, cited, count); the
# resulting cells keyed (cited, citing) with first-appearance ids
# B=0, A=1, C=2 are: (1,0)=3, (1,2)=2, (0,1)=1, (0,2)=4.
EDGE_FIXTURE = """citing,cited,count
B,A,3
C,A,2
A,B,1
C,B,4
"""

# 4x4 fixture with a self-citation; ids in first-appearance order:
# W=0, X=1, Y=2, Z=3.
EDGE_FIXTURE_4 = """citing,cited,count
W,X,2
X,W,1
Y,X,5
Z,Y,3
W,W,7
Y,Z,2
"""


@pytest.fixture
def edges_path(tmp_path) -> Path:
    path = tmp_path / "edges.csv"
    path.write_text(EDGE_FIXTURE, encoding="utf-8")
    return path


@pytest.fixture
def edges4_path(tmp_path) -> Path:
    path = tmp_path / "edges4.csv"
    path.write_text(EDGE_FIXTURE_4, encoding="utf-8")
    return path


@pytest.fixture
def corpus3(edges_path):
    return load_edge_list(edges_path)


@pytest.fixture
def corpus4(edges4_path):
    return load_edge_list(edges4_path)


def random_sparse_counts(rng: np.random.Generator, n: int, density: float = 0.25):
    """Random nonnegative integer matrix as (rows, cols, counts) arrays."""
    mask = rng.random((n, n)) < density
    counts = rng.integers(1, 20, size=(n, n))
    rows, cols = np.nonzero(mask)
    return rows, cols, counts[rows, cols]


def indicator_table(matrix, registry=None, **options):
    """compute_indicator_table with journals named J0..J(n-1) unless given."""
    if registry is None:
        registry = JournalRegistry()
        for j in range(matrix.n):
            registry.add(f"J{j}")
    return compute_indicator_table(matrix, registry, RunConfig(**options))
