"""Quadratic-entropy diversity: distribution evenness weighted by distances.

For a journal's citation distribution p over partner journals and a pairwise
distance d between those partners, diversity is the full double sum of
p_i * p_j * d(i, j) over ordered pairs i != j.  Pairs whose distance is
undefined (a partner with an empty vector on the distance axis) contribute
nothing and are counted separately.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import CitationMatrix, Direction
from .errors import ContractError, EmptyCorpusError, UndefinedIndicatorError
from .netspace import (
    CANCELLATION_RATIO,
    _l1_normalize_rows,
    _l2_normalize_rows,
    _undo_cancellation,
)

# Journals per block when evaluating the per-journal quadratic forms; bounds
# the size of the intermediate sparse products.
BATCH_SIZE = 512


@dataclass
class DiversityResult:
    journal_id: int
    direction: Direction
    metric: str
    d_value: float
    degenerate: bool  # no off-diagonal support: diversity is 0 by convention
    missing: bool = False  # vector empty in this direction: no value at all
    undefined_pairs: int = 0


def rao_stirling(
    probs: np.ndarray, distances: np.ndarray, triangle_sum: bool = False
) -> float:
    """Diversity of a probability vector against an aligned distance block.

    `distances` must be square, symmetric, zero on the diagonal, and aligned
    with `probs`; NaN cells mark undefined pairs, which contribute zero and
    trigger a coverage warning.  With `triangle_sum` only the lower triangle
    is summed, halving the value.
    """
    p = np.asarray(probs, dtype=np.float64)
    d = np.asarray(distances, dtype=np.float64)
    if p.ndim != 1 or d.shape != (p.size, p.size):
        raise ContractError("distance block must be square and aligned with p")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ContractError(f"probabilities sum to {p.sum()!r}, not 1")
    defined = ~np.isnan(d)
    if not np.array_equal(defined, defined.T) or np.any(
        np.abs(np.where(defined & defined.T, d - d.T, 0.0)) > 1e-9
    ):
        raise ContractError("distance block is not symmetric")
    if np.any(np.diag(d)[~np.isnan(np.diag(d))] != 0.0):
        raise ContractError("distance diagonal must be zero")
    undefined = int(np.count_nonzero(~defined) - np.count_nonzero(np.isnan(np.diag(d))))
    if undefined:
        warnings.warn(
            f"{undefined} journal pairs have undefined distances and were skipped",
            stacklevel=2,
        )
    value = _quadratic_form(p, d)
    return value / 2.0 if triangle_sum else value


def _quadratic_form(p: np.ndarray, d: np.ndarray) -> float:
    """p^T d p with NaN cells and the diagonal treated as zero."""
    d = np.nan_to_num(d, nan=0.0, copy=True)
    np.fill_diagonal(d, 0.0)
    return float(p @ d @ p)


def diversity_all(
    matrix: CitationMatrix,
    direction: Direction | str,
    metric: str = "one_minus_cosine",
    exclude_self_citations: bool = False,
    triangle_sum: bool = False,
) -> list[DiversityResult]:
    """Diversity for every journal, with distances built on the same axis.

    The probability vector keeps the diagonal (self-citation) mass unless
    `exclude_self_citations`; the diagonal never contributes to the sum
    since d(i, i) = 0 regardless.  Journals with no off-diagonal partners
    are degenerate with value 0; journals with no vector at all are flagged
    missing.
    """
    if matrix.nnz == 0:
        raise EmptyCorpusError("citation matrix has no cells")
    direction = Direction(direction)
    if metric == "one_minus_cosine":
        all_values = _all_cosine_bilinear
    elif metric == "relative_euclidean":
        all_values = _all_euclidean_pairs
    else:
        raise UndefinedIndicatorError(f"unknown distance metric: {metric!r}")
    axis = matrix.axis_matrix(direction)
    support = np.diff(axis.indptr)
    missing = support == 0
    p_def, undef = _defined_probabilities(axis, ~missing, exclude_self_citations)
    values = all_values(axis, p_def)
    if triangle_sum:
        values = values / 2.0

    degenerate = support - (axis.diagonal() > 0) == 0
    values[degenerate] = 0.0
    results = [
        DiversityResult(
            journal_id=jid,
            direction=direction,
            metric=metric,
            d_value=float(values[jid]),
            degenerate=bool(degenerate[jid]),
            missing=bool(missing[jid]),
            undefined_pairs=int(undef[jid]),
        )
        for jid in range(matrix.n)
    ]
    total_undef = int(undef.sum())
    if total_undef:
        warnings.warn(
            f"{total_undef} journal pairs had undefined distances "
            f"({direction.value}, {metric})",
            stacklevel=2,
        )
    return results


def _drop_diagonal(m: sp.csr_matrix) -> sp.csr_matrix:
    coo = m.tocoo()
    keep = coo.row != coo.col
    return sp.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=m.shape
    )


def _row_sums(m: sp.spmatrix) -> np.ndarray:
    return np.asarray(m.sum(axis=1)).ravel()


def _defined_probabilities(
    axis: sp.csr_matrix, defined: np.ndarray, exclude_self: bool
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Each journal's distribution, restricted to partners with a defined vector.

    Also returns each journal's count of ordered partner pairs i != j whose
    distance is undefined: s(s - 1) - s_def(s_def - 1) for a support of s
    partners, s_def of them defined.
    """
    p_source = _drop_diagonal(axis) if exclude_self else axis
    prob, _ = _l1_normalize_rows(p_source)
    support = np.diff(prob.indptr)
    p_def = prob.dot(sp.diags(defined.astype(np.float64))).tocsr()
    p_def.eliminate_zeros()
    support_def = np.diff(p_def.indptr)
    undef = support * (support - 1) - support_def * (support_def - 1)
    return p_def, undef.astype(np.int64)


def _row_quadratic_forms(p: sp.csr_matrix, m: sp.csr_matrix) -> np.ndarray:
    """p_j^T M p_j for every row p_j of `p`, in blocks of BATCH_SIZE rows."""
    out = np.empty(p.shape[0])
    for start in range(0, p.shape[0], BATCH_SIZE):
        rows = p[start : start + BATCH_SIZE]
        out[start : start + BATCH_SIZE] = _row_sums(rows.dot(m).multiply(rows))
    return out


def _all_cosine_bilinear(axis: sp.csr_matrix, p_def: sp.csr_matrix) -> np.ndarray:
    """All (1 - cosine) diversities at once via the similarity Gram matrix.

    With g the cosine similarity, sum_{i!=j} p_i p_j (1 - g_ij) splits into
    (sum p)^2 - sum p^2 minus the same bilinear form in g, so only the sparse
    Gram matrix is ever needed.
    """
    unit, _ = _l2_normalize_rows(axis)
    gram = unit.dot(unit.T).tocsr()
    np.clip(gram.data, 0.0, 1.0, out=gram.data)
    p_sq = p_def.multiply(p_def)
    t1 = _row_sums(p_def) ** 2
    t2 = _row_sums(p_sq)
    s3 = _row_quadratic_forms(p_def, gram)
    s4 = p_sq.dot(gram.diagonal())
    values = (t1 - t2) - (s3 - s4)
    np.clip(values, 0.0, None, out=values)
    return values


def _all_euclidean_pairs(axis: sp.csr_matrix, p_def: sp.csr_matrix) -> np.ndarray:
    """All relative-Euclidean diversities from one sparse distance matrix.

    d(a, b)^2 = |q_a|^2 + |q_b|^2 - 2 q_a.q_b over the probability-normalized
    vectors q.  The square root rules out a bilinear split, so d is evaluated
    explicitly, but only on the off-diagonal pairs that share some journal's
    distribution (the support of B^T B for the pattern B of `p_def`).  Pairs
    whose d^2 cancels to below CANCELLATION_RATIO of |q_a|^2 + |q_b|^2 are
    recomputed from their differences.
    """
    prob, _ = _l1_normalize_rows(axis)
    pattern = p_def.astype(bool).astype(np.int32)
    pairs = _drop_diagonal(pattern.T.dot(pattern))
    pairs.data[:] = 1.0
    sq = _row_sums(prob.multiply(prob))
    row_of = np.repeat(np.arange(pairs.shape[0]), np.diff(pairs.indptr))
    sq_sums = sp.csr_matrix(
        (sq[row_of] + sq[pairs.indices], pairs.indices, pairs.indptr), shape=pairs.shape
    )
    dist = (sq_sums - 2.0 * pairs.multiply(prob.dot(prob.T))).tocsr()
    near = np.flatnonzero(dist.data <= 2 * CANCELLATION_RATIO * sq.max())
    rows = np.searchsorted(dist.indptr, near, side="right") - 1
    cols = dist.indices[near]
    dist.data[near] = _undo_cancellation(prob, sq, rows, cols, dist.data[near])
    np.clip(dist.data, 0.0, None, out=dist.data)
    np.sqrt(dist.data, out=dist.data)
    return _row_quadratic_forms(p_def, dist)
