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
multithreaded BLAS GEMM over `PANEL_ROWS` rows at a time, cast to float
into one reused panel and written into one reused result, all batches in
the calling thread.  Below it the adjacency stays boolean CSR, whose float
products read one shared array of ones per dtype as their values, and its
batches may be spread over `jobs` threads that share it (see
`shares.run_shares`).  The sparse products and the elementwise steps
release the GIL.  Both formats run the same recurrences.

A product computes only the rows that can matter when they hold few of the
adjacency's cells (`_form`): the rows that are read, or, through the
transpose, the rows where its operand is nonzero.  These are the masked
products of GraphBLAS and the two directions of direction-optimizing BFS.
The forward products carry path counts, integers, in float32 while every
partial sum stays below 2**24 and in float64 beyond, so the forward phase
is exact.  A CSR row sums its terms in stored order in every form and
dtype, so CSR scores are the bits of full float64 products.  A GEMM's
order depends on its shape, so a dense product is restricted only where
every order gives the same bits; the dense scores are those of full
products too.  The backward sums may differ in the last bit between
formats and between BLAS thread counts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
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
# Rows of a boolean adjacency cast to float per GEMM: 8 * PANEL_ROWS * n bytes.
PANEL_ROWS = 256
# A product is restricted to some of its rows only when they hold fewer than
# this share of the adjacency's cells.  On the benchmark corpora's seed-1
# graphs (2 CPUs), a CSR product restricted to rows holding 50-60% of the
# cells took 0.6-0.9 of the full product's time (median per form and dtype),
# 70-80% 0.9-1.0, and 80-90% 1.1-1.2.  A dense pull of random rows of
# `dense-cooc`'s citing graph (n = 1,512, b = 64, 2 BLAS threads) took
# 0.50-0.58 of the full GEMM's time at 50% of the rows, 0.71-0.85 at 70%,
# and 0.79-1.10 at 90%, in float32 and float64 alike.
RESTRICTED_SHARE = 0.7
# Float32 and float64 hold every integer below these exactly.
FLOAT32_EXACT = 2.0**24
FLOAT64_EXACT = 2.0**53


@dataclass(frozen=True)
class _Adjacency:
    """One orientation of a graph's adjacency, as `_product` reads it.

    `pattern` is a C-contiguous boolean array, or a boolean CSR matrix with
    sorted indices whose float products read `ones` (one array of ones per
    dtype, shared by both orientations) as their values.  `lengths[v]` counts
    the cells a product reads from row v (its stored entries, or n), and
    `least[r]` the fewest cells any r rows hold together.
    """

    pattern: sp.csr_matrix | np.ndarray
    ones: dict[np.dtype, np.ndarray]
    lengths: np.ndarray
    least: np.ndarray

    @classmethod
    def pair(cls, adj: sp.csr_matrix | np.ndarray, directed: bool) -> tuple[_Adjacency, _Adjacency]:
        """The adjacency and its transpose (the same object when undirected)
        of a boolean CSR matrix or C-contiguous boolean array, arc v -> w at
        `[v, w]`."""
        ones = {}
        if sp.issparse(adj):
            if not adj.has_sorted_indices:
                adj = adj.sorted_indices()
            ones = {np.dtype(dtype): np.ones(adj.nnz, dtype) for dtype in (np.float64, np.float32)}
            transpose = adj.T.tocsr() if directed else None
        else:
            transpose = np.ascontiguousarray(adj.T) if directed else None

        def side(m):
            lengths = np.diff(m.indptr) if sp.issparse(m) else np.full(len(m), len(m))
            return cls(m, ones, lengths, np.concatenate(([0], np.cumsum(np.sort(lengths)))))

        given = side(adj)
        return given, given if transpose is None else side(transpose)

    def csr(self, dtype: np.dtype, rows: np.ndarray | None = None) -> sp.csr_matrix:
        """The CSR pattern, or its `rows`, with values 1 in `dtype`: a row
        gather copies the rows' indices and booleans, never float values."""
        m = self.pattern if rows is None else self.pattern[rows]
        return sp.csr_matrix((self.ones[dtype][: m.nnz], m.indices, m.indptr), shape=m.shape)


def _form(
    apply: _Adjacency, other: _Adjacency, front: np.ndarray, read: np.ndarray, exact: bool
) -> tuple[str, np.ndarray | None]:
    """The cheapest form of `apply` @ x for an operand x that is zero outside
    the entries of the mask `front`, when only the rows where the mask `read`
    holds an entry are read.  Returns the form and, if restricted, its rows.

    "pull" computes only those rows, "push" sums only the rows of x where
    `front` holds an entry, through the same rows of `other` (`apply`'s
    transpose), and "full" computes all of it.  A restricted form is taken
    only when its rows hold fewer than `RESTRICTED_SHARE` of the adjacency's
    cells; a mask is reduced to its rows only when its entry count leaves
    that possible.

    A CSR row sums its terms in stored order in every form.  A GEMM over
    fewer rows or columns may sum in another order, so a dense product only
    pulls when it is `exact` (integers whose partial sums are all exact),
    and only pushes, at most one panel of rows, when no column of x holds
    more than two nonzero terms, since x + 0 and a + b are exact in any
    order.  On the benchmark corpora's dense graphs both run only on a
    batch's last levels.
    """
    sides = (("pull", apply, read), ("push", other, front))
    if not sp.issparse(apply.pattern):
        if exact:
            sides = sides[:1]
        elif (
            np.count_nonzero(front) <= min(2 * front.shape[1], PANEL_ROWS)
            and np.count_nonzero(front, axis=0).max() <= 2
        ):
            sides = sides[1:]
        else:
            return "full", None
    best, form, live = RESTRICTED_SHARE * apply.least[-1], "full", None
    for name, side, mask in sides:
        fewest_rows = -(-np.count_nonzero(mask) // mask.shape[1])
        if side.least[fewest_rows] >= best:
            continue
        rows = mask.any(axis=1)
        cells = side.lengths @ rows
        if cells < best:
            best, form, live = cells, name, rows
    return form, None if live is None else np.flatnonzero(live)


def _panel_dot(adj: np.ndarray, x: np.ndarray, panel: np.ndarray, out: np.ndarray) -> np.ndarray:
    """adj @ x written into `out`, casting `adj` to x's dtype one panel of rows
    at a time into `panel`, so that no float copy of `adj` is made."""
    height = len(panel)
    for start in range(0, len(adj), height):
        rows = adj[start : start + height]
        np.copyto(panel[: len(rows)], rows)
        np.dot(panel[: len(rows)], x, out=out[start : start + len(rows)])
    return out


def _product(
    form: str, rows: np.ndarray | None, apply: _Adjacency, other: _Adjacency,
    x: np.ndarray, buffers: tuple[np.ndarray, ...],
) -> np.ndarray:
    """`apply` @ x in x's dtype and the `form` that `_form` chose, right on
    the rows it was told are read; a pull's result is zero elsewhere.

    `buffers` are flat float64 arrays (panels, blocks, results) viewed in
    x's dtype.  A pull writes into the results, as does every dense product;
    a full or pushed CSR product returns a new array.  A dense product casts
    `apply` (or, pushed, `other`) one `PANEL_ROWS` panel at a time into the
    panels, and a dense pull writes each panel's rows through the blocks.
    """
    panels, blocks, results = (buf.view(x.dtype) for buf in buffers)
    n, width = x.shape
    out = results[: n * width].reshape(n, width)
    if sp.issparse(apply.pattern):
        if form == "full":
            return apply.csr(x.dtype).dot(x)
        if form == "push":
            return other.csr(x.dtype, rows).T.dot(x[rows])
        out.fill(0.0)
        out[rows] = apply.csr(x.dtype, rows).dot(x)
        return out
    height = min(PANEL_ROWS, n)
    panel = panels[: height * n].reshape(height, n)
    if form == "full":
        return _panel_dot(apply.pattern, x, panel, out)
    if form == "push":
        np.copyto(panel[: len(rows)], other.pattern[rows])
        return np.dot(panel[: len(rows)].T, x[rows], out=out)
    out.fill(0.0)
    block = blocks[: height * width].reshape(height, width)
    for start in range(0, len(rows), height):
        chunk = rows[start : start + height]
        np.copyto(panel[: len(chunk)], apply.pattern[chunk])
        np.dot(panel[: len(chunk)], x, out=block[: len(chunk)])
        out[chunk] = block[: len(chunk)]
    return out


def _dependencies(
    adj: _Adjacency,
    adj_t: _Adjacency,
    batches: list[np.ndarray],
    stop: threading.Event | None = None,
) -> list[np.ndarray]:
    """Sum of Brandes dependency vectors for each batch of sources.

    `adj` holds the adjacency (arc v -> w at `[v, w]`) and `adj_t` its
    transpose, as `_Adjacency.pair` gives them.  Returns, per batch, the
    per-node dependency totals with each source's own entry zeroed.  Once
    `stop` is set, returns before the next batch with the totals so far,
    which the caller discards.

    The work arrays are allocated once, flat, for the largest batch, and each
    batch views a C-contiguous (n, b) prefix of them, so no batch or level
    allocates and faults in n x b temporaries of its own; only the full and
    pushed CSR products' results are new, each freed before the next
    product.  BFS level k is a boolean mask,
    kept until the backward pass pairs it with level k - 1.  The masks select
    by multiplying, as `where=` arguments to ufuncs are several times slower.

    The first BFS step is the sources' rows of `adj`, gathered, not
    multiplied.  The BFS stops once every (node, source) entry is reached, or
    when a level reaches nothing new, and accumulation ends at level 2,
    because level 1 would only add into the sources' own entries.  At BFS
    depth L that is L - 1 forward products (L if some node is unreachable)
    and L - 1 backward ones.

    Each product runs in the cheapest of three forms (`_form`): all rows, only
    the rows that are read (forward: still unvisited for some source;
    backward: on level k - 1), or only the operand's nonzero rows (the
    frontier, or level k) through the transpose's rows; a dense product
    pulls only forward and pushes only where the sum is exact in any order.
    A forward product runs in float32 while every column sum of its operand,
    and so every partial sum, is an integer below 2**24, and in float64
    otherwise.  Its float32 operand goes into the delta buffer, unused until
    the backward pass.  Every result is bitwise that of the full float64
    product.
    """
    n = adj.pattern.shape[0]
    size = n * max(len(sources) for sources in batches)
    sigma_buf, delta_buf, coef_buf = (np.empty(size) for _ in range(3))
    unvisited_buf = np.empty(size, dtype=bool)
    ones = np.ones(n)
    level_bufs: list[np.ndarray] = []  # level k's mask in level_bufs[k - 1]
    height = 0 if sp.issparse(adj.pattern) else min(PANEL_ROWS, n)
    buffers = (np.empty(height * n), np.empty(height * (size // n)), np.empty(size))

    def product(apply, other, x, front, read, exact=False):
        form, rows = _form(apply, other, front, read, exact)
        return _product(form, rows, apply, other, x, buffers)

    totals = []
    for sources in batches:
        if stop is not None and stop.is_set():
            break
        b = len(sources)
        cols = np.arange(b)
        sigma, delta, coef, unvisited = (
            buf[: n * b].reshape(n, b) for buf in (sigma_buf, delta_buf, coef_buf, unvisited_buf)
        )
        coef32 = delta_buf.view(np.float32)[: n * b].reshape(n, b)
        sigma.fill(0.0)
        sigma[sources, cols] = 1.0
        unvisited.fill(True)
        unvisited[sources, cols] = False

        rows = adj.pattern[sources]
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
            np.multiply(paths, newly, out=coef)
            sigma += coef  # zero on every entry not reached before
            unvisited ^= newly
            unreached -= count
            if unreached == 0:
                break
            largest = (ones @ coef).max()  # the largest column sum bounds every partial sum
            x = coef
            if largest < FLOAT32_EXACT:
                x = coef32
                np.copyto(x, coef)
            del paths  # free a CSR product's result before the next one allocates its own
            paths = product(adj_t, adj, x, newly, unvisited, exact=largest < FLOAT64_EXACT)

        sigma += unvisited  # 1 on the entries never reached keeps every quotient finite
        delta.fill(0.0)
        for k in range(len(levels) - 1, 0, -1):
            np.add(delta, 1.0, out=coef)
            coef /= sigma
            coef *= levels[k]
            part = product(adj, adj_t, coef, levels[k], levels[k - 1])
            part *= sigma
            part *= levels[k - 1]
            delta += part
            del part
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
    adj = graph.adjacency.toarray() if dense else graph.adjacency
    work = partial(_dependencies, *_Adjacency.pair(adj, graph.directed))
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
