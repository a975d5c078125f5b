"""Freeman betweenness centrality on binarized graphs.

Betweenness is computed over unweighted geodesics with Brandes-style
dependency accumulation (Brandes 2001, in the batched-source form of Brandes
2008).  Sources are processed in fixed-size batches whose BFS and
accumulation steps are vectorized as adjacency-times-dense products, so one
pass handles dozens of sources at once; batches are reduced in index order,
which makes results identical regardless of worker count.  A batch runs
only the products that can change its result (see `_dependencies`): on a
connected graph, 2(L - 1) of them for a BFS of depth L.  Each worker
allocates its work arrays once and reuses them for every batch and level.

The adjacency format follows the graph's density.  Above `DENSE_DENSITY`,
as co-occurrence graphs often are, it is an n x n boolean array (n^2 bytes,
and as much again for a directed graph's transpose), and each product is a
multithreaded BLAS GEMM over `PANEL_ROWS` rows at a time, cast to float64
into one reused panel and written into one reused result, all batches in
the calling thread.  Below it the adjacency is float64 CSR and its batches
may be spread over `jobs` threads that share it (see `shares.run_shares`).
The sparse products and the elementwise steps release the GIL.  Both
formats run the same recurrences.  The forward phase is exact either way
(path counts are integers below 2**53); the backward sums may differ in the
last bit between formats and between BLAS thread counts.
"""

from __future__ import annotations

import threading
from functools import partial

import numpy as np
import scipy.sparse as sp

from .netspace import BinaryGraph
from .shares import run_shares

BATCH_SIZE = 64
# Fraction of the n*n possible arcs above which the dense adjacency is used.
# Measured on the benchmark corpora's four co-occurrence graphs (seed 1, 2 CPUs,
# OpenBLAS; CSR with 2 worker threads against GEMM with 2 BLAS threads, best of
# 3 in two runs): CSR wins at density 0.031 (0.55 s against 2.21-2.34 s), 0.046
# (0.78 / 2.18-2.46 s) and 0.078 (0.16-0.27 / 0.28 s; 0.18-0.32 / 0.28-0.62 s as
# a fresh process's first graph), GEMM at 0.49 (1.24-1.34 / 0.47-0.51 s).
# Taking CSR cost as linear in density puts the crossover between 0.08 and 0.19.
DENSE_DENSITY = 0.1
# Rows of a boolean adjacency cast to float64 per GEMM: 8 * PANEL_ROWS * n bytes.
PANEL_ROWS = 256


def _panel_dot(adj: np.ndarray, x: np.ndarray, panel: np.ndarray, out: np.ndarray) -> np.ndarray:
    """adj @ x written into `out`, casting `adj` to float64 one panel of rows
    at a time into `panel`, so that no float64 copy of `adj` is made."""
    height = len(panel)
    for start in range(0, len(adj), height):
        rows = adj[start : start + height]
        np.copyto(panel[: len(rows)], rows)
        np.dot(panel[: len(rows)], x, out=out[start : start + len(rows)])
    return out


def _dependencies(
    adj: sp.csr_matrix | np.ndarray,
    adj_t: sp.csr_matrix | np.ndarray,
    batches: list[np.ndarray],
    stop: threading.Event | None = None,
) -> list[np.ndarray]:
    """Sum of Brandes dependency vectors for each batch of sources.

    `adj[v, w]` holds arc v -> w; `adj_t` is its transpose.  Both are
    float64 CSR or both C-contiguous boolean arrays.  Returns, per batch,
    the per-node dependency totals with each source's own entry zeroed.
    Once `stop` is set, returns before the next batch with the totals so
    far, which the caller discards.

    The work arrays are allocated once, flat, for the largest batch, and each
    batch views a C-contiguous (n, b) prefix of them, so no batch or level
    allocates and faults in n x b temporaries of its own.  A dense product
    also writes into one of them, through one reused panel (`_panel_dot`);
    only the CSR products' results are new.  BFS level k is a boolean mask,
    kept until the backward pass pairs it with level k - 1.

    The first BFS step is the sources' rows of `adj`, gathered, not
    multiplied.  The BFS stops once every (node, source) entry is reached, or
    when a level reaches nothing new, and accumulation ends at level 2,
    because level 1 would only add into the sources' own entries.  At BFS
    depth L that is L - 1 forward products (L if some node is unreachable)
    and L - 1 backward ones.
    """
    n = adj.shape[0]
    size = n * max(len(sources) for sources in batches)
    sigma_buf, delta_buf, coef_buf = (np.empty(size) for _ in range(3))
    unvisited_buf = np.empty(size, dtype=bool)
    level_bufs: list[np.ndarray] = []  # level k's mask in level_bufs[k - 1]
    if sp.issparse(adj):
        def product(m, x):
            return m.dot(x)
    else:
        panel = np.empty((min(PANEL_ROWS, n), n))
        product_buf = np.empty(size)

        def product(m, x):
            return _panel_dot(m, x, panel, product_buf[: x.size].reshape(x.shape))

    totals = []
    for sources in batches:
        if stop is not None and stop.is_set():
            break
        b = len(sources)
        cols = np.arange(b)
        sigma, delta, coef, unvisited = (
            buf[: n * b].reshape(n, b) for buf in (sigma_buf, delta_buf, coef_buf, unvisited_buf)
        )
        sigma.fill(0.0)
        sigma[sources, cols] = 1.0
        unvisited.fill(True)
        unvisited[sources, cols] = False

        rows = adj[sources]
        paths = (rows.toarray() if sp.issparse(rows) else rows).T
        levels: list[np.ndarray] = []
        unreached = n * b - b
        while True:
            if len(level_bufs) == len(levels):
                level_bufs.append(np.empty(size, dtype=bool))
            newly = level_bufs[len(levels)][: n * b].reshape(n, b)
            np.greater(paths, 0.0, out=newly)
            newly &= unvisited
            count = np.count_nonzero(newly)
            if count == 0:
                break
            levels.append(newly)
            np.copyto(sigma, paths, where=newly)
            unvisited ^= newly
            unreached -= count
            if unreached == 0:
                break
            np.multiply(sigma, newly, out=coef)
            paths = product(adj_t, coef)

        delta.fill(0.0)
        for k in range(len(levels) - 1, 0, -1):
            np.add(delta, 1.0, out=coef)
            np.divide(coef, sigma, out=coef, where=levels[k])
            coef *= levels[k]
            acc = product(adj, coef)
            acc *= sigma
            np.add(delta, acc, out=delta, where=levels[k - 1])
        totals.append(delta.sum(axis=1))
    return totals


def betweenness(
    graph: BinaryGraph, jobs: int = 1, batch_size: int = BATCH_SIZE
) -> np.ndarray:
    """Raw Freeman betweenness for every node of an unweighted graph.

    Directed graphs sum over ordered pairs, undirected over unordered pairs
    (the symmetric accumulation is halved).  Pairs with no connecting path
    contribute nothing.

    A graph with more than `DENSE_DENSITY * n * n` arcs runs on a dense
    boolean adjacency (n^2 bytes; 2 n^2 when directed) in the calling
    thread, using the BLAS threads; `jobs` applies only to sparser graphs,
    whose batches it spreads over that many threads, the calling thread
    included, sharing the adjacency.  Results do not depend on `jobs`.
    """
    n = graph.n
    scores = np.zeros(n)
    if n < 3 or graph.adjacency.nnz == 0:
        return scores

    batch_size = max(1, min(batch_size, n))
    batches = [
        np.arange(start, min(start + batch_size, n))
        for start in range(0, n, batch_size)
    ]

    dense = graph.adjacency.nnz > DENSE_DENSITY * n * n
    if dense:
        adj = graph.adjacency.toarray()
        adj_t = np.ascontiguousarray(adj.T) if graph.directed else adj
    else:
        adj = graph.adjacency.astype(np.float64).tocsr()
        adj_t = adj.T.tocsr() if graph.directed else adj

    work = partial(_dependencies, adj, adj_t)
    partials = run_shares(work, batches, 1 if dense else jobs)
    for part in partials:  # fixed reduction order keeps results deterministic
        scores += part
    if not graph.directed:
        scores /= 2.0
    return scores


def normalize_betweenness(scores: np.ndarray, n: int, directed: bool) -> np.ndarray:
    """Scores divided by the number of potential pairs through a node."""
    pairs = (n - 1) * (n - 2)
    if not directed:
        pairs /= 2
    if pairs <= 0:
        return np.zeros_like(scores)
    return scores / pairs
