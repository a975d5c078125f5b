"""Similarity, co-occurrence, and distance structures over citation vectors.

All pairwise structures are computed per axis: "cited" compares matrix rows,
"citing" compares columns.  Cosine similarity keeps its natural diagonal;
distance matrices always have a zeroed diagonal.  Journals whose vector on
the chosen axis is empty have cosine 0 against everything (including
themselves) and *undefined* distances, which downstream consumers must
exclude rather than treat as maximal.

Cosine and distance matrices are built densely at every n, as one n x n
float64 array.  The indicator pipeline builds one only for a nonzero cosine
threshold: betweenness otherwise binarizes the co-occurrence support, and
diversity works from sparse Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .corpus import CitationMatrix, Direction
from .errors import CountOverflowError, EmptyCorpusError, UndefinedIndicatorError


class MatrixKind(str, Enum):
    COSINE_SIMILARITY = "cosine_similarity"
    ONE_MINUS_COSINE = "one_minus_cosine"
    EUCLIDEAN_DISTANCE = "euclidean_distance"
    COOCCURRENCE = "cooccurrence"


class DiagonalPolicy(str, Enum):
    ZEROED = "zeroed"
    NATURAL = "natural"


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


class SymmetricValueMatrix:
    """Symmetric n x n value store, held as a dense array or a sparse matrix.

    `defined` flags journals whose underlying vector is nonempty; cells where
    either side is undefined hold NaN for distance kinds.
    """

    def __init__(
        self,
        n: int,
        kind: MatrixKind,
        diagonal_policy: DiagonalPolicy,
        dense: np.ndarray | None = None,
        sparse: sp.spmatrix | None = None,
        defined: np.ndarray | None = None,
    ):
        self.n = n
        self.kind = kind
        self.diagonal_policy = diagonal_policy
        self._dense = dense
        self._sparse = sparse.tocsr() if sparse is not None else None
        self.defined = defined if defined is not None else np.ones(n, dtype=bool)

    def block(self, ids: np.ndarray) -> np.ndarray:
        """Dense sub-matrix for the given ids (in the given order)."""
        ids = np.asarray(ids, dtype=np.int64)
        if self._dense is not None:
            return self._dense[np.ix_(ids, ids)].copy()
        return self._sparse[ids, :][:, ids].toarray()

    def to_dense(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense
        return self._sparse.toarray()

    def to_sparse(self) -> sp.csr_matrix:
        if self._sparse is not None:
            return self._sparse
        return sp.csr_matrix(self._dense)


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

    def neighbors(self, v: int) -> np.ndarray:
        lo, hi = self.adjacency.indptr[v], self.adjacency.indptr[v + 1]
        return self.adjacency.indices[lo:hi]

    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr)


def _require_nonempty(matrix: CitationMatrix) -> None:
    if matrix.nnz == 0:
        raise EmptyCorpusError("citation matrix has no cells")


def cosine_matrix(
    matrix: CitationMatrix, axis: Direction | str
) -> SymmetricValueMatrix:
    """Pairwise cosine similarity between all vectors of one axis.

    The diagonal is natural: 1 for journals with a nonzero vector, 0 for
    empty ones (which are orthogonal to everything, themselves included).
    """
    _require_nonempty(matrix)
    vectors = matrix.axis_matrix(axis)
    unit, norms = _l2_normalize_rows(vectors)
    defined = norms > 0
    gram = np.asarray(unit.dot(unit.T).todense())
    np.clip(gram, 0.0, 1.0, out=gram)
    np.fill_diagonal(gram, np.where(defined, 1.0, 0.0))
    return SymmetricValueMatrix(
        matrix.n,
        MatrixKind.COSINE_SIMILARITY,
        DiagonalPolicy.NATURAL,
        dense=gram,
        defined=defined,
    )


def cooccurrence(
    matrix: CitationMatrix, axis: Direction | str
) -> SymmetricValueMatrix:
    """Exact integer co-occurrence products: A*A^T (cited) or A^T*A (citing)."""
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
    return SymmetricValueMatrix(
        matrix.n,
        MatrixKind.COOCCURRENCE,
        DiagonalPolicy.NATURAL,
        sparse=product,
    )


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
    return support.astype(bool)


def binarize(
    sym: SymmetricValueMatrix | sp.spmatrix, threshold: float = 0.0
) -> BinaryGraph:
    """Undirected graph with an edge wherever a cell is strictly above threshold.

    The diagonal is ignored.  A nonzero threshold breaks the equivalence
    between cosine- and co-occurrence-based graphs and is off by default.
    """
    if isinstance(sym, SymmetricValueMatrix):
        values = sym.to_sparse()
        n = sym.n
    else:
        values = sym.tocsr()
        n = values.shape[0]
    adj = (values > threshold).tocsr()
    adj.setdiag(False)
    adj.eliminate_zeros()
    adj = adj.maximum(adj.T).tocsr()  # guard symmetry for near-threshold floats
    return BinaryGraph(n=n, directed=False, adjacency=adj.astype(bool))


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
) -> SymmetricValueMatrix:
    """Pairwise distances between the axis vectors; diagonal always zero.

    ``one_minus_cosine`` is 1 minus the cosine similarity (in [0, 1]);
    ``relative_euclidean`` is the L2 distance between the probability-
    normalized vectors (in [0, sqrt(2)]).  Pairs where either vector is
    empty are undefined and stored as NaN.
    """
    _require_nonempty(matrix)
    vectors = matrix.axis_matrix(axis)
    if metric == "one_minus_cosine":
        unit, norms = _l2_normalize_rows(vectors)
        kind = MatrixKind.ONE_MINUS_COSINE
        sq_norms = None
    elif metric == "relative_euclidean":
        prob, norms = _l1_normalize_rows(vectors)
        unit = prob
        sq_norms = np.asarray(prob.multiply(prob).sum(axis=1)).ravel()
        kind = MatrixKind.EUCLIDEAN_DISTANCE
    else:
        raise UndefinedIndicatorError(f"unknown distance metric: {metric!r}")
    defined = norms > 0

    gram = np.asarray(unit.dot(unit.T).todense())
    np.clip(gram, 0.0, 1.0 if kind is MatrixKind.ONE_MINUS_COSINE else np.inf, out=gram)
    if kind is MatrixKind.ONE_MINUS_COSINE:
        dense = 1.0 - gram
    else:
        d2 = sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram
        np.clip(d2, 0.0, None, out=d2)
        dense = np.sqrt(d2)
    undef = ~defined
    dense[undef, :] = np.nan
    dense[:, undef] = np.nan
    np.fill_diagonal(dense, 0.0)
    return SymmetricValueMatrix(
        matrix.n, kind, DiagonalPolicy.ZEROED, dense=dense, defined=defined
    )


def export_matrix_market(sym: SymmetricValueMatrix, path: str | Path) -> None:
    """Write a symmetric value matrix in Matrix Market format.

    The matrix is written from its dense form; NaN (undefined) cells are
    written as-is so the gaps stay visible to external tools.
    """
    dense = sym.to_dense()
    field = "integer" if sym.kind is MatrixKind.COOCCURRENCE else "real"
    scipy.io.mmwrite(str(path), sp.coo_matrix(dense), field=field, symmetry="symmetric")
