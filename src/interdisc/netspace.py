"""Similarity, co-occurrence, and distance structures over citation vectors.

All pairwise structures are computed per axis: "cited" compares matrix rows,
"citing" compares columns.  Cosine similarity keeps its natural diagonal;
distance matrices always have a zeroed diagonal.  Journals whose vector on
the chosen axis is empty have cosine 0 against everything (including
themselves) and *undefined* distances, which downstream consumers must
exclude rather than treat as maximal.

Cosine similarities are a float64 CSR matrix and co-occurrence counts an
int64 CSR matrix; neither is ever densified.  Only distance matrices are
plain n x n float64 arrays, since a distance is nonzero wherever the
vectors differ; the relative-Euclidean builder makes no other n x n array.
`_relative_euclidean` is the one kernel that turns Gram-form squares into
distances, here and in `diversity`.  The indicator pipeline builds a
cosine matrix only for a nonzero cosine threshold: betweenness otherwise
binarizes the co-occurrence support, and diversity works from sparse Gram
matrices.
"""

from __future__ import annotations

import io
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .corpus import CitationMatrix, Direction
from .errors import CountOverflowError, EmptyCorpusError, UndefinedIndicatorError, file_errors


# A squared distance formed as |a|^2 + |b|^2 - 2 a.b keeps few correct digits
# once it falls below this fraction of |a|^2 + |b|^2; for identical vectors it
# leaves rounding noise that the square root lifts to ~1e-8.
CANCELLATION_RATIO = 1e-3

# rows of a dense matrix that `export_matrix_market` writes per mmwrite call
EXPORT_BLOCK_ROWS = 256


def _relative_euclidean(
    q: sp.csr_matrix, sq: np.ndarray, rows: np.ndarray, cols: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """Distances between the rows (rows[k], cols[k]) of `q`, whose squared
    norms are `sq`, from their Gram-form squares `d2` = |q_a|^2 + |q_b|^2 -
    2 q_a.q_b, written over `d2` in place and returned.

    Every square below CANCELLATION_RATIO of its scale |q_a|^2 + |q_b|^2 is
    recomputed from the difference of the rows; the scales are gathered only
    for the squares at most 2 * CANCELLATION_RATIO * sq.max().
    """
    near = np.flatnonzero(d2 <= 2 * CANCELLATION_RATIO * sq.max())
    redo = near[d2[near] <= CANCELLATION_RATIO * (sq[rows[near]] + sq[cols[near]])]
    diff = q[rows[redo]] - q[cols[redo]]
    d2[redo] = np.asarray(diff.multiply(diff).sum(axis=1)).ravel()
    np.clip(d2, 0.0, None, out=d2)
    return np.sqrt(d2, out=d2)


def _l2_normalize_rows(m: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Rows scaled to unit L2 norm; zero rows stay zero.  Returns (rows, norms)."""
    m = m.tocsr().astype(np.float64)
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return sp.diags(inv).dot(m).tocsr(), norms


def _l1_normalize_rows(m: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """Rows scaled to unit mass (probability distributions); zero rows stay zero."""
    m = m.tocsr().astype(np.float64)
    sums = np.asarray(m.sum(axis=1)).ravel()
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return sp.diags(inv).dot(m).tocsr(), sums


@dataclass
class BinaryGraph:
    """Unweighted adjacency produced by binarization; no self-loops.

    Undirected graphs keep symmetric adjacency; `edge_count` counts each
    undirected edge once.  `adjacency` is a CSR boolean matrix with
    adjacency[v, w] = True iff there is an arc v -> w (or an edge, when
    undirected).
    """

    n: int
    directed: bool
    adjacency: sp.csr_matrix

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.nnz if self.directed else self.adjacency.nnz // 2)


def _require_nonempty(matrix: CitationMatrix) -> None:
    if matrix.nnz == 0:
        raise EmptyCorpusError("citation matrix has no cells")


def cosine_matrix(matrix: CitationMatrix, axis: Direction | str) -> sp.csr_matrix:
    """Pairwise cosine similarity between all vectors of one axis, as an
    n x n float64 CSR matrix with sorted indices and no stored zeros.

    Values lie in [0, 1].  The diagonal is natural: exactly 1 for journals
    with a nonzero vector, absent (0) for empty ones, which are orthogonal
    to everything, themselves included.
    """
    _require_nonempty(matrix)
    unit, norms = _l2_normalize_rows(matrix.axis_matrix(axis))
    cos = unit.dot(unit.T).tocsr()
    np.clip(cos.data, 0.0, 1.0, out=cos.data)
    cos.eliminate_zeros()
    cos.sort_indices()
    # every nonzero vector stores its own product, so this writes in place
    present = np.flatnonzero(norms > 0)
    cos[present, present] = 1.0
    return cos


def cooccurrence(matrix: CitationMatrix, axis: Direction | str) -> sp.csr_matrix:
    """Exact integer co-occurrence products, A*A^T (cited) or A^T*A (citing),
    as an int64 CSR matrix with sorted indices and no stored zeros."""
    _require_nonempty(matrix)
    a = matrix.axis_matrix(axis)
    max_count = int(a.data.max())
    max_support = int(np.diff(a.indptr).max())
    # Products are sums of at most `max_support` terms bounded by max_count^2;
    # refuse inputs whose worst case cannot be represented in int64.
    if max_support and max_count > np.sqrt(np.iinfo(np.int64).max / max_support):
        raise CountOverflowError(
            f"co-occurrence products may exceed int64 for counts up to {max_count}"
        )
    product = a.dot(a.T).tocsr()
    product.eliminate_zeros()
    product.sort_indices()
    return product


def cooccurrence_support(
    matrix: CitationMatrix, axis: Direction | str
) -> sp.csr_matrix:
    """Boolean support of the co-occurrence product, without the products.

    Shares its off-diagonal support with the cosine matrix of the same axis,
    so binarized graphs built from it are identical to cosine-based ones.
    """
    _require_nonempty(matrix)
    a = matrix.axis_matrix(axis).astype(bool).astype(np.int32)
    support = a.dot(a.T)
    support.eliminate_zeros()
    return support.astype(bool, copy=False)


def binarize(values: np.ndarray | sp.spmatrix, threshold: float = 0.0) -> BinaryGraph:
    """Undirected graph with an edge wherever a cell is strictly above threshold.

    `values` is a square array or sparse matrix, and must be symmetric: a
    co-occurrence support is by construction, and `cosine_matrix` is
    bitwise.  The diagonal is ignored.  A nonzero threshold breaks the
    equivalence between cosine- and co-occurrence-based graphs and is off
    by default.
    """
    adj = sp.csr_matrix(values > threshold)
    # mask the stored diagonal; `setdiag` would insert the absent entries
    rows = np.repeat(np.arange(adj.shape[0], dtype=adj.indices.dtype), np.diff(adj.indptr))
    adj.data[adj.indices == rows] = False
    adj.eliminate_zeros()
    return BinaryGraph(n=adj.shape[0], directed=False, adjacency=adj)


def binarize_directed(matrix: CitationMatrix) -> BinaryGraph:
    """Directed graph with an arc citing -> cited per nonzero cell; no loops."""
    cells = matrix.tocsr().astype(bool)
    adj = cells.T.tocsr()  # cell (cited i, citing j) becomes arc j -> i
    adj.setdiag(False)
    adj.eliminate_zeros()
    return BinaryGraph(n=matrix.n, directed=True, adjacency=adj.astype(bool))


def distance_matrix(
    matrix: CitationMatrix,
    axis: Direction | str,
    metric: str = "one_minus_cosine",
) -> np.ndarray:
    """Pairwise distances between the axis vectors, n x n; diagonal always zero.

    ``one_minus_cosine`` is 1 minus the cosine similarity (in [0, 1]);
    ``relative_euclidean`` is the L2 distance between the probability-
    normalized vectors (in [0, sqrt(2)]).  Pairs where either vector is
    empty are undefined and stored as NaN.
    """
    _require_nonempty(matrix)
    vectors = matrix.axis_matrix(axis)
    if metric == "one_minus_cosine":
        dense = cosine_matrix(matrix, axis).toarray()
        np.subtract(1.0, dense, out=dense)
    elif metric == "relative_euclidean":
        prob, _ = _l1_normalize_rows(vectors)
        sq = np.asarray(prob.multiply(prob).sum(axis=1)).ravel()
        # |a|^2 + |b|^2 is the exact square of every orthogonal pair, so only
        # the Gram product's support needs the kernel
        gram = prob.dot(prob.T).tocoo()
        d2 = sq[gram.row] + sq[gram.col] - 2.0 * gram.data
        dense = np.add.outer(sq, sq)
        np.sqrt(dense, out=dense)
        dense[gram.row, gram.col] = _relative_euclidean(prob, sq, gram.row, gram.col, d2)
    else:
        raise UndefinedIndicatorError(f"unknown distance metric: {metric!r}")
    undef = np.diff(vectors.indptr) == 0
    dense[undef, :] = np.nan
    dense[:, undef] = np.nan
    np.fill_diagonal(dense, 0.0)
    return dense


def _lower_cells(values: np.ndarray, start: int) -> np.ndarray:
    """The cells `mmwrite` writes of rows [start, start + EXPORT_BLOCK_ROWS)
    of a symmetric dense matrix: nonzero (NaN included) and on or below the
    diagonal, over the columns up to the block's last row."""
    stop = min(start + EXPORT_BLOCK_ROWS, len(values))
    return (values[start:stop, :stop] != 0) & np.tri(stop - start, stop, start, dtype=bool)


def export_matrix_market(values: np.ndarray | sp.spmatrix, path: str | Path) -> None:
    """Write a symmetric pairwise matrix in Matrix Market format.

    A sparse matrix is written as it is, in one `mmwrite` call; a dense
    array in blocks of `EXPORT_BLOCK_ROWS` rows, so that no coordinate list
    of all its cells is made, with the bytes of that one call.  An integer
    dtype gets the ``integer`` field, any other the ``real`` field.  NaN
    (undefined) cells are written as-is so the gaps stay visible to external
    tools.  A path that cannot be written is a data error.
    """
    field = "integer" if np.issubdtype(values.dtype, np.integer) else "real"
    # mmwrite given a path name ignores a failed open and writes nothing
    with file_errors(path), open(path, "wb") as fh:
        if sp.issparse(values):
            scipy.io.mmwrite(fh, sp.coo_matrix(values), field=field, symmetry="symmetric")
            return
        n = len(values)
        starts = range(0, n, EXPORT_BLOCK_ROWS)
        nnz = sum(np.count_nonzero(_lower_cells(values, start)) for start in starts)
        fh.write(f"%%MatrixMarket matrix coordinate {field} symmetric\n%\n{n} {n} {nnz}\n".encode())
        for start in starts:
            rows, cols = np.nonzero(_lower_cells(values, start))
            rows += start
            block = io.BytesIO()
            coo = sp.coo_matrix((values[rows, cols], (rows, cols)), shape=values.shape)
            scipy.io.mmwrite(block, coo, field=field, symmetry="general")
            block.seek(0)
            for _ in range(3):  # the block's own header: banner, comment, size
                block.readline()
            shutil.copyfileobj(block, fh)
