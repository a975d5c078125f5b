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
as co-occurrence graphs often are, it is an n x n float64 array and each
product is a multithreaded BLAS GEMM, all batches in the calling thread;
below it is CSR and its batches may be spread over `jobs` threads that
share it, each taking one interleaved share (every `jobs`-th batch).  The
calling thread runs share 0 and a pool thread each further share, so a
dense or one-share run starts no thread.  The sparse products and the
elementwise steps release the GIL.  When one share fails, or the calling
thread is interrupted, the other shares stop before their next batch.
Both formats run the same recurrences.  The forward phase is exact either
way (path counts are integers below 2**53); the backward sums may differ in
the last bit between formats and between BLAS thread counts.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

from .netspace import BinaryGraph

BATCH_SIZE = 64
# Fraction of the n*n possible arcs above which the dense adjacency is used.
# Measured on the benchmark corpora's four co-occurrence graphs (seed 1, 2 CPUs,
# OpenBLAS; CSR with 2 worker threads against GEMM with 2 BLAS threads, best of
# 3 in two runs): CSR wins at density 0.031 (0.55 s against 2.21-2.34 s), 0.046
# (0.78 / 2.18-2.46 s) and 0.078 (0.16-0.27 / 0.28 s; 0.18-0.32 / 0.28-0.62 s as
# a fresh process's first graph), GEMM at 0.49 (1.24-1.34 / 0.47-0.51 s).
# Taking CSR cost as linear in density puts the crossover between 0.08 and 0.19.
DENSE_DENSITY = 0.1


def _dependencies(
    adj: sp.csr_matrix | np.ndarray,
    adj_t: sp.csr_matrix | np.ndarray,
    batches: list[np.ndarray],
    stop: threading.Event | None = None,
) -> list[np.ndarray]:
    """Sum of Brandes dependency vectors for each batch of sources.

    `adj[v, w]` holds arc v -> w; `adj_t` is its transpose.  Both are float64,
    either CSR or dense.  Returns, per batch, the per-node dependency totals
    with each source's own entry zeroed.  Once `stop` is set, returns before
    the next batch with the totals so far, which the caller discards.

    The work arrays are allocated once, flat, for the largest batch, and each
    batch views a C-contiguous (n, b) prefix of them, so no batch or level
    allocates and faults in n x b temporaries of its own; only the products'
    results are new.  BFS level k is a boolean mask, kept until the backward
    pass pairs it with level k - 1.

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
            paths = adj_t.dot(coef)

        delta.fill(0.0)
        for k in range(len(levels) - 1, 0, -1):
            np.add(delta, 1.0, out=coef)
            np.divide(coef, sigma, out=coef, where=levels[k])
            coef *= levels[k]
            acc = adj.dot(coef)
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
    float64 adjacency (8 n^2 bytes) in the calling thread, using the BLAS
    threads; `jobs` applies only to sparser graphs, whose batches it spreads
    over that many threads, the calling thread included, sharing the
    adjacency.  Results do not depend on `jobs`.
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

    # one interleaved share per thread, put back in batch order; share 0 runs
    # here, so the pool starts a thread only for each further share
    workers = 1 if dense else min(jobs, len(batches))
    stop = threading.Event()

    def stop_if_failed(share: Future) -> None:
        if share.exception() is not None:
            stop.set()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_dependencies, adj, adj_t, batches[w::workers], stop)
            for w in range(1, workers)
        ]
        for future in futures:
            future.add_done_callback(stop_if_failed)
        try:
            shares = [_dependencies(adj, adj_t, batches[::workers], stop)]
            shares += [future.result() for future in futures]
        finally:
            # a no-op once every share is done; otherwise a share failed, or
            # this thread was interrupted, and the rest stop at their next batch
            stop.set()
    partials = [shares[i % workers][i // workers] for i in range(len(batches))]

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
