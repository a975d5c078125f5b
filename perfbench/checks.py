"""Output checks for the reports the benchmarked commands write.

Each check returns a list of problems; an empty list means the output is
correct.  The checks rebuild what they need from the generated corpus
arrays, not from the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

REFERENCE_RTOL = 1e-9  # the acceptance suite's tolerance
REFERENCE_ATOL = 1e-12

RAW_COLUMNS = ("betweenness_citations_cited", "betweenness_citations_citing")


def pattern(cited: np.ndarray, citing: np.ndarray, n: int) -> sp.csr_matrix:
    """0/1 matrix with cell (cited, citing) set for every nonzero count."""
    a = sp.csr_matrix((np.ones(len(cited)), (cited, citing)), shape=(n, n))
    a.sum_duplicates()
    a.data[:] = 1.0
    return a


def cooccurrence_pattern(a: sp.csr_matrix, axis: str) -> sp.csr_matrix:
    """Support of A*A^T (cited) or A^T*A (citing), diagonal included."""
    m = a if axis == "cited" else a.T.tocsr()
    return (m @ m.T).tocsr()


def _without_diagonal(m: sp.csr_matrix) -> sp.csr_matrix:
    m = m.tocoo()
    keep = m.row != m.col
    return sp.csr_matrix((m.data[keep], (m.row[keep], m.col[keep])), shape=m.shape)


def geodesic_excess(graph: sp.csr_matrix, directed: bool) -> float:
    """Sum over connected pairs of (d(s, t) - 1); ordered pairs if directed."""
    dist = shortest_path(graph, directed=directed, unweighted=True)
    np.fill_diagonal(dist, np.inf)
    connected = np.isfinite(dist)
    total = float((dist[connected] - 1.0).sum())
    return total if directed else total / 2.0


def read_indicators(path: Path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    data["columns"] = {
        name: np.array([np.nan if v is None else v for v in values], dtype=np.float64)
        for name, values in data["columns"].items()
    }
    return data


def names_digest(names: list[str]) -> str:
    return hashlib.sha256("\n".join(names).encode("utf-8")).hexdigest()


def reference_arrays(report: dict) -> dict[str, np.ndarray]:
    """What `check_reference` compares, in the form it is stored."""
    arrays = {"__names_sha256": np.array(names_digest([j["name"] for j in report["journals"]]))}
    arrays.update(report["columns"])
    arrays.update({f"flag.{k}": np.asarray(v, dtype=bool) for k, v in report["flags"].items()})
    return arrays


def check_reference(report: dict, reference_path: Path) -> list[str]:
    """Every reference column matches within the acceptance tolerance."""
    problems = []
    with np.load(reference_path) as ref:
        names = [j["name"] for j in report["journals"]]
        if str(ref["__names_sha256"]) != names_digest(names):
            problems.append("journal names or order differ from the reference")
        for name in ref.files:
            want = ref[name]
            if name.startswith("flag."):
                got = report["flags"].get(name.removeprefix("flag."))
                if got is None or not np.array_equal(np.asarray(got, dtype=bool), want):
                    problems.append(f"flag {name} differs from the reference")
                continue
            if name.startswith("__"):
                continue
            got = report["columns"].get(name)
            if got is None or got.shape != want.shape:
                problems.append(f"column {name} missing or resized")
            elif not np.allclose(got, want, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL, equal_nan=True):
                worst = int(np.nanargmax(np.abs(got - want)))
                problems.append(f"column {name} differs from the reference at row {worst}")
    return problems


def check_betweenness_identity(report: dict, a: sp.csr_matrix) -> list[str]:
    """Sum of betweenness equals the geodesic excess of each graph."""
    graphs = {
        RAW_COLUMNS: (_without_diagonal(a.T.tocsr()), True),  # arc citing -> cited
        ("betweenness_cosine_cited",): (_without_diagonal(cooccurrence_pattern(a, "cited")), False),
        ("betweenness_cosine_citing",): (_without_diagonal(cooccurrence_pattern(a, "citing")), False),
    }
    problems = []
    for columns, (graph, directed) in graphs.items():
        expected = geodesic_excess(graph, directed)
        for name in columns:
            col = report["columns"].get(name)
            if col is None:
                problems.append(f"column {name} missing")
                continue
            got = float(np.nansum(col))
            if abs(got - expected) > REFERENCE_RTOL * max(abs(expected), 1.0):
                problems.append(f"sum of {name} is {got!r}, geodesic excess is {expected!r}")
    return problems


def check_ranking(ranking_csv: Path, report: dict, column: str) -> list[str]:
    """Each ranked value equals the indicator report's value, as printed."""
    values = report["columns"].get(column)
    if values is None:
        return [f"column {column} missing from the indicator report"]
    lines = [
        line
        for line in Path(ranking_csv).read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    rows = list(csv.DictReader(lines))
    if not rows:
        return ["ranking is empty"]
    problems = []
    for row in rows:
        want = format(float(values[int(row["journal_id"])]), ".9g")
        if row["value"] != want:
            problems.append(f"journal {row['journal_id']}: ranked {row['value']}, report {want}")
    return problems


def read_matrix_market_size(path: Path) -> tuple[int, int, int]:
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if not line.startswith("%"):
                rows, cols, stored = (int(part) for part in line.split())
                return rows, cols, stored
    raise ValueError(f"{path}: no size line")


def check_export(size: tuple[int, int, int], a: sp.csr_matrix, axis: str) -> list[str]:
    """n x n, storing the lower triangle of the co-occurrence support."""
    n = a.shape[0]
    expected = sp.tril(cooccurrence_pattern(a, axis)).nnz
    if size != (n, n, expected):
        return [f"export size line {size}, expected {(n, n, expected)}"]
    return []
