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
from .shares import row_blocks


# A squared distance formed as |a|^2 + |b|^2 - 2 a.b keeps few correct digits
# once it falls below this fraction of |a|^2 + |b|^2; for identical vectors it
# leaves rounding noise that the square root lifts to ~1e-8.
CANCELLATION_RATIO = 1e-3

# cells, stored or (dense) not, of the rows `export_matrix_market` writes per
# mmwrite call; a row with more is a block of its own
EXPORT_BLOCK_CELLS = 1 << 15


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


def _drop_stored_diagonal(m: sp.csr_matrix) -> sp.csr_matrix:
    """Removes the stored diagonal cells of the CSR matrix `m` in place, with
    any stored zeros, and returns it.  `setdiag` would insert the absent
    diagonal cells first, so the stored ones are masked instead."""
    rows = np.repeat(np.arange(m.shape[0], dtype=m.indices.dtype), np.diff(m.indptr))
    m.data[m.indices == rows] = 0
    m.eliminate_zeros()
    return m


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
    """Boolean support of the co-occurrence product, without the products:
    the boolean product, whose sums are ORs.

    Shares its off-diagonal support with the cosine matrix of the same axis,
    so binarized graphs built from it are identical to cosine-based ones.
    """
    _require_nonempty(matrix)
    a = matrix.axis_matrix(axis).astype(bool)
    support = a.dot(a.T)
    support.eliminate_zeros()
    return support


def binarize(values: np.ndarray | sp.spmatrix, threshold: float = 0.0) -> BinaryGraph:
    """Undirected graph with an edge wherever a cell is strictly above threshold.

    `values` is a square array or sparse matrix, and must be symmetric: a
    co-occurrence support is by construction, and `cosine_matrix` is
    bitwise.  The diagonal is ignored.  A nonzero threshold breaks the
    equivalence between cosine- and co-occurrence-based graphs and is off
    by default.
    """
    adj = _drop_stored_diagonal(sp.csr_matrix(values > threshold))
    return BinaryGraph(n=adj.shape[0], directed=False, adjacency=adj)


def binarize_directed(matrix: CitationMatrix) -> BinaryGraph:
    """Directed graph with an arc citing -> cited per nonzero cell; no loops."""
    # row j of the citing axis holds the journals i that j cites: arcs j -> i
    adj = _drop_stored_diagonal(matrix.axis_matrix(Direction.CITING).astype(bool))
    return BinaryGraph(n=matrix.n, directed=True, adjacency=adj)


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


def _lower_cells(
    values: np.ndarray | sp.csr_matrix, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the cells `mmwrite` writes of rows
    [start, stop) of a symmetric matrix, in its order: on or below the
    diagonal, and stored (sparse) or nonzero, NaN included (dense)."""
    if sp.issparse(values):
        lo, hi = values.indptr[start], values.indptr[stop]
        rows = np.repeat(np.arange(start, stop), np.diff(values.indptr[start : stop + 1]))
        cols = values.indices[lo:hi]
        keep = cols <= rows
        return rows[keep], cols[keep], values.data[lo:hi][keep]
    cells = (values[start:stop, :stop] != 0) & np.tri(stop - start, stop, start, dtype=bool)
    rows, cols = np.nonzero(cells)
    rows += start
    return rows, cols, values[rows, cols]


def export_matrix_market(values: np.ndarray | sp.spmatrix, path: str | Path) -> None:
    """Write a symmetric pairwise matrix in Matrix Market format.

    The matrix is written in blocks of rows holding at most
    `EXPORT_BLOCK_CELLS` cells each, stored cells for a sparse matrix and
    all n for a dense row, with the bytes of one `mmwrite` call on the whole
    matrix; no coordinate list of all its cells is made.  An integer dtype
    gets the ``integer`` field, any other the ``real`` field.  NaN
    (undefined) cells are written as-is so the gaps stay visible to external
    tools.  A path that cannot be written is a data error.
    """
    field = "integer" if np.issubdtype(values.dtype, np.integer) else "real"
    n = values.shape[0]
    if sp.issparse(values):
        values = sp.csr_matrix(values)
        cells = np.diff(values.indptr)
    else:
        cells = np.full(n, n)
    blocks = row_blocks(cells, EXPORT_BLOCK_CELLS)
    nnz = sum(len(_lower_cells(values, start, stop)[0]) for start, stop in blocks)
    # mmwrite given a path name ignores a failed open and writes nothing
    with file_errors(path), open(path, "wb") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} symmetric\n%\n{n} {n} {nnz}\n".encode())
        for start, stop in blocks:
            rows, cols, data = _lower_cells(values, start, stop)
            block = io.BytesIO()
            coo = sp.coo_matrix((data, (rows, cols)), shape=values.shape)
            scipy.io.mmwrite(block, coo, field=field, symmetry="general")
            block.seek(0)
            for _ in range(3):  # the block's own header: banner, comment, size
                block.readline()
            shutil.copyfileobj(block, fh)
