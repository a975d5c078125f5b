"""Independent reference implementations used to check the package.

Everything here is deliberately naive: pairwise double loops, matrix-power
geodesic enumeration, grid searches.  The exceptions are
`brandes_batch_every_level`, a frozen copy of an earlier package recurrence
kept as a bitwise reference, and `binarize_symmetrized`, an earlier
`netspace.binarize` that did not rely on a symmetric input.  None of it
shares code with the package under test.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def gini_pairwise(x) -> float:
    """Mean-absolute-difference form: sum_ij |x_i - x_j| / (2 n^2 mean)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += abs(x[i] - x[j])
    return total / (2.0 * n * n * x.mean())


def entropy_direct(counts) -> float:
    """-sum p log2 p by direct summation over nonzero entries."""
    x = np.asarray(counts, dtype=np.float64)
    x = x[x > 0]
    p = x / x.sum()
    return float(-(p * np.log2(p)).sum())


def brute_betweenness(adj, directed: bool) -> np.ndarray:
    """Betweenness by exhaustive geodesic enumeration via matrix powers.

    Walk counts of length d equal geodesic counts when d is the graph
    distance, so sigma and the through-k split come straight from powers of
    the adjacency matrix.  Exact integer arithmetic throughout.
    """
    a = np.asarray(adj, dtype=np.int64)
    if not directed:
        a = ((a + a.T) > 0).astype(np.int64)
    np.fill_diagonal(a, 0)
    n = a.shape[0]

    powers = [np.eye(n, dtype=np.int64), a.copy()]
    for _ in range(n - 1):
        powers.append(powers[-1] @ a)

    dist = np.full((n, n), -1, dtype=np.int64)
    sigma = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        for t in range(n):
            if s == t:
                dist[s, t] = 0
                sigma[s, t] = 1
                continue
            for d in range(1, n + 1):
                if d < len(powers) and powers[d][s, t] > 0:
                    dist[s, t] = d
                    sigma[s, t] = powers[d][s, t]
                    break

    bc = np.zeros(n)
    for k in range(n):
        for s in range(n):
            for t in range(n):
                if s == t or s == k or t == k:
                    continue
                if dist[s, t] < 0:
                    continue
                if dist[s, k] < 0 or dist[k, t] < 0:
                    continue
                if dist[s, k] + dist[k, t] == dist[s, t]:
                    bc[k] += (sigma[s, k] * sigma[k, t]) / sigma[s, t]
    if not directed:
        bc /= 2.0
    return bc


def brandes_batch_every_level(adj, adj_t, sources) -> np.ndarray:
    """Batched Brandes dependencies running one product at every level.

    An earlier form of the batch recurrence in `centrality._dependencies`,
    kept verbatim as a bitwise reference: level 0 is a product with the
    source indicator, the BFS runs until a product reaches nothing new, and
    accumulation runs down to level 1 before the sources' entries are zeroed.
    """
    n = adj.shape[0]
    b = len(sources)
    cols = np.arange(b)

    dist = np.full((n, b), -1, dtype=np.int32)
    sigma = np.zeros((n, b))
    dist[sources, cols] = 0
    sigma[sources, cols] = 1.0
    frontier = np.zeros((n, b))
    frontier[sources, cols] = 1.0

    level = 0
    while True:
        paths = adj_t.dot(sigma * frontier)
        newly = (dist < 0) & (paths > 0)
        if not newly.any():
            break
        level += 1
        dist[newly] = level
        sigma[newly] = paths[newly]
        frontier = newly.astype(np.float64)

    delta = np.zeros((n, b))
    for lev in range(level, 0, -1):
        w_mask = dist == lev
        coef = np.zeros((n, b))
        np.divide(1.0 + delta, sigma, out=coef, where=w_mask)
        acc = adj.dot(coef)
        v_mask = dist == lev - 1
        delta[v_mask] += (sigma * acc)[v_mask]
    delta[sources, cols] = 0.0
    return delta.sum(axis=1)


def naive_rao(p, d) -> float:
    """Plain double loop over ordered pairs; NaN distances contribute zero."""
    p = np.asarray(p, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    total = 0.0
    for i in range(p.size):
        for j in range(p.size):
            if i == j:
                continue
            dij = d[i, j]
            if np.isnan(dij):
                continue
            total += p[i] * p[j] * dij
    return total


def naive_ranks(x) -> np.ndarray:
    """Average-tie ranks via an explicit sort-and-scan, 1-based."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    order = sorted(range(n), key=lambda i: x[i])
    ranks = np.zeros(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for idx in order[i : j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def naive_spearman(x, y) -> float:
    """Rank both columns with average ties, then Pearson via np.corrcoef."""
    rx = naive_ranks(x)
    ry = naive_ranks(y)
    return float(np.corrcoef(rx, ry)[0, 1])


def varimax_grid_criterion(loadings, resolution: float = 1e-4):
    """Best varimax criterion over a single-angle grid for 2-factor loadings.

    Returns (best criterion, best angle).  The criterion is the sum over
    factors of the variance of squared loadings, matching the package's
    definition; the search itself is exhaustive.
    """
    l = np.asarray(loadings, dtype=np.float64)
    assert l.shape[1] == 2
    x, y = l[:, 0], l[:, 1]
    angles = np.arange(0.0, np.pi / 2.0, resolution)
    c, s = np.cos(angles), np.sin(angles)
    a = x[:, None] * c[None, :] + y[:, None] * s[None, :]
    b = -x[:, None] * s[None, :] + y[:, None] * c[None, :]

    def column_criterion(m):
        sq = m**2
        return (sq**2).mean(axis=0) - (sq.mean(axis=0)) ** 2

    crit = column_criterion(a) + column_criterion(b)
    best = int(np.argmax(crit))
    return float(crit[best]), float(angles[best])


def binarize_symmetrized(values, threshold: float) -> sp.csr_matrix:
    """Boolean adjacency of the cells strictly above `threshold`, diagonal
    cleared, then joined with its transpose, so an asymmetric input still
    gives an undirected graph."""
    adj = sp.csr_matrix(values > threshold)
    adj.setdiag(False)
    adj.eliminate_zeros()
    return adj.maximum(adj.T).tocsr().astype(bool)
