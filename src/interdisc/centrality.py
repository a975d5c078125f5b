"""Freeman betweenness centrality on binarized graphs.

Betweenness is computed over unweighted geodesics with Brandes-style
dependency accumulation (Brandes 2001, in the batched-source form of Brandes
2008).  Sources are processed in fixed-size batches whose BFS and
accumulation steps are vectorized as adjacency-times-dense products, so one
pass handles dozens of sources at once; batches are reduced in index order,
which makes results identical regardless of worker count.  A batch runs
only the products that can change its result (see `_batch_dependencies`):
on a connected graph, 2(L - 1) of them for a BFS of depth L.

The adjacency format follows the graph's density.  Above `DENSE_DENSITY`,
as co-occurrence graphs often are, it is an n x n float64 array and each
product is a multithreaded BLAS GEMM run in the calling process; below it is
CSR and batches may be spread over forked worker processes.  Both formats run
the same recurrences.  The forward phase is exact either way (path counts are
integers below 2**53); the backward sums may differ in the last bit between
formats and between BLAS thread counts.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import multiprocessing as mp

import numpy as np
import scipy.sparse as sp

from .netspace import BinaryGraph

BATCH_SIZE = 64
# Fraction of the n*n possible arcs above which the dense adjacency is used.
# Measured on the benchmark corpora's four co-occurrence graphs (seed 1, 2 CPUs,
# OpenBLAS; CSR with 2 workers against GEMM with 2 BLAS threads, best of 3):
# CSR wins at density 0.031 (0.56 s against 2.29 s), 0.046 (0.84 / 2.47 s) and
# 0.078 (0.23 / 0.32 s), GEMM at 0.49 (0.51 / 1.29 s).  Taking CSR cost as
# linear in density puts the crossover between 0.11 and 0.19.
DENSE_DENSITY = 0.1

_WORKER_GRAPH: tuple[sp.csr_matrix, sp.csr_matrix] | None = None


def _batch_dependencies(
    adj: sp.csr_matrix | np.ndarray,
    adj_t: sp.csr_matrix | np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """Sum of Brandes dependency vectors for one batch of sources.

    `adj[v, w]` holds arc v -> w; `adj_t` is its transpose.  Both are float64,
    either CSR or dense.  Returns the per-node dependency totals with each
    source's own entry zeroed.

    The first BFS step is the sources' rows of `adj`, gathered, not
    multiplied.  The BFS stops once every (node, source) entry is reached, or
    when a level reaches nothing new, and accumulation ends at level 2,
    because level 1 would only add into the sources' own entries.  At BFS
    depth L that is L - 1 forward products (L if some node is unreachable)
    and L - 1 backward ones.
    """
    n = adj.shape[0]
    b = len(sources)
    cols = np.arange(b)

    dist = np.full((n, b), -1, dtype=np.int32)
    sigma = np.zeros((n, b))
    dist[sources, cols] = 0
    sigma[sources, cols] = 1.0

    rows = adj[sources]
    paths = (rows.toarray() if sp.issparse(rows) else rows).T
    unreached = n * b - b
    level = 0
    while True:
        newly = (dist < 0) & (paths > 0)
        count = np.count_nonzero(newly)
        if count == 0:
            break
        level += 1
        dist[newly] = level
        sigma[newly] = paths[newly]
        unreached -= count
        if unreached == 0:
            break
        paths = adj_t.dot(sigma * newly)

    delta = np.zeros((n, b))
    for lev in range(level, 1, -1):
        w_mask = dist == lev
        coef = np.zeros((n, b))
        np.divide(1.0 + delta, sigma, out=coef, where=w_mask)
        acc = adj.dot(coef)
        v_mask = dist == lev - 1
        delta[v_mask] += (sigma * acc)[v_mask]
    return delta.sum(axis=1)


def _init_worker(adj: sp.csr_matrix, adj_t: sp.csr_matrix) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = (adj, adj_t)


def _worker_batch(sources: np.ndarray) -> np.ndarray:
    adj, adj_t = _WORKER_GRAPH
    return _batch_dependencies(adj, adj_t, sources)


def betweenness(
    graph: BinaryGraph, jobs: int = 1, batch_size: int = BATCH_SIZE
) -> np.ndarray:
    """Raw Freeman betweenness for every node of an unweighted graph.

    Directed graphs sum over ordered pairs, undirected over unordered pairs
    (the symmetric accumulation is halved).  Pairs with no connecting path
    contribute nothing.

    A graph with more than `DENSE_DENSITY * n * n` arcs runs on a dense
    float64 adjacency (8 n^2 bytes) in this process, using the BLAS threads;
    `jobs` applies only to sparser graphs, whose batches it spreads over
    forked workers.  Results do not depend on `jobs`.
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
        adj = graph.adjacency.toarray().astype(np.float64)
        adj_t = adj.T if graph.directed else adj
    else:
        adj = graph.adjacency.astype(np.float64).tocsr()
        adj_t = adj.T.tocsr() if graph.directed else adj

    if not dense and jobs > 1 and len(batches) > 1:
        ctx = mp.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(batches)),
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(adj, adj_t),
        ) as pool:
            partials = list(pool.map(_worker_batch, batches))
    else:
        partials = [_batch_dependencies(adj, adj_t, batch) for batch in batches]

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
