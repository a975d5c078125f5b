"""Quadratic-entropy diversity: distribution evenness weighted by distances.

For a journal's citation distribution p over partner journals and a pairwise
distance d between those partners, diversity is the full double sum of
p_i * p_j * d(i, j) over ordered pairs i != j.  Pairs whose distance is
undefined (a partner with an empty vector on the distance axis) contribute
nothing and are counted separately.  `diversity_all` is the one
implementation of this sum; it evaluates every journal at once without a
dense n x n matrix: (1 - cosine) from the journals' distributions times the
unit vectors, relative-Euclidean from one distance per unordered pair of
partners that share a distribution, built and summed in blocks of partner
rows, in groups that `jobs` threads share.  `netspace.distance_matrix` gives
the same distances as a dense matrix, for checking and export.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .corpus import CitationMatrix, Direction
from .errors import EmptyCorpusError, UndefinedIndicatorError
from .netspace import (
    _drop_stored_diagonal,
    _l1_normalize_rows,
    _l2_normalize_rows,
    _relative_euclidean,
)
from .shares import row_blocks, run_shares

# Cells per block of the diversity products, by an upper bound on each of
# their rows; a row over it is a block alone.
PAIR_BLOCK = 1 << 20
# Most groups of consecutive blocks that threads share, each summed into one
# vector of all journals; their count does not depend on jobs.
PAIR_GROUPS = 32


@dataclass
class DiversityResult:
    journal_id: int
    d_value: float
    degenerate: bool  # no off-diagonal support: diversity is 0 by convention
    missing: bool = False  # vector empty in this direction: no value at all
    undefined_pairs: int = 0


def diversity_all(
    matrix: CitationMatrix,
    direction: Direction | str,
    metric: str = "one_minus_cosine",
    exclude_self_citations: bool = False,
    triangle_sum: bool = False,
    jobs: int = 1,
) -> list[DiversityResult]:
    """Diversity for every journal, with distances built on the same axis.

    The probability vector keeps the diagonal (self-citation) mass unless
    `exclude_self_citations`; the diagonal never contributes to the sum
    since d(i, i) = 0 regardless.  Journals with no off-diagonal partners
    are degenerate with value 0; journals with no vector at all are flagged
    missing.  Relative-Euclidean blocks are spread over `jobs` threads, the
    calling thread included; results do not depend on `jobs`.
    """
    if matrix.nnz == 0:
        raise EmptyCorpusError("citation matrix has no cells")
    direction = Direction(direction)
    if metric == "one_minus_cosine":
        all_values = _all_cosine_bilinear
    elif metric == "relative_euclidean":
        all_values = partial(_all_euclidean_pairs, jobs=jobs)
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
    # a copy: either axis is the citation matrix's own read-only storage
    p_source = _drop_stored_diagonal(axis.copy()) if exclude_self else axis
    prob, _ = _l1_normalize_rows(p_source)
    support = np.diff(prob.indptr)
    p_def = prob.dot(sp.diags(defined.astype(np.float64))).tocsr()
    p_def.eliminate_zeros()
    support_def = np.diff(p_def.indptr)
    undef = support * (support - 1) - support_def * (support_def - 1)
    return p_def, undef.astype(np.int64)


def _all_cosine_bilinear(axis: sp.csr_matrix, p_def: sp.csr_matrix) -> np.ndarray:
    """All (1 - cosine) diversities at once, without the similarity Gram.

    With U the L2-normalized vectors, the cosine similarity is G = U U^T and
    p^T G p = |U^T p|^2.  Every defined partner has g_aa = 1, so the sum over
    i != j of p_i p_j (1 - g_ij) is (sum p)^2 - |U^T p|^2, and only P U is
    formed, in blocks of journals that hold at most PAIR_BLOCK of its cells
    by a bound on each row.  A journal's value reads only its own row, so
    the blocks change no bit.

    The difference carries a rounding error of a few eps * (sum p)^2 (up to
    7 eps on rank-one count matrices of up to 1,000 journals, where every
    true value is 0), so values up to 8 eps * (sum p)^2, which cannot be
    told from zero, are set to 0, as are negative ones.
    """
    unit, _ = _l2_normalize_rows(axis)
    values = _row_sums(p_def) ** 2
    noise = 8 * np.finfo(np.float64).eps * values
    # row j of P U holds at most the cells of the unit vectors of j's partners
    cells = _pattern(p_def).dot(np.diff(unit.indptr))
    for start, stop in row_blocks(np.minimum(unit.shape[1], cells), PAIR_BLOCK):
        pu = p_def[start:stop].dot(unit)
        values[start:stop] -= _row_sums(pu.multiply(pu))
    values[values <= noise] = 0.0
    return values


def _pattern(m: sp.csr_matrix) -> sp.csr_matrix:
    """The stored cells of `m` as True, sharing its index arrays."""
    return sp.csr_matrix((np.ones(m.nnz, dtype=bool), m.indices, m.indptr), shape=m.shape)


def _euclidean_group_forms(
    prob: sp.csr_matrix,
    prob_t: sp.csr_matrix,
    sq: np.ndarray,
    pattern: sp.csr_matrix,
    pattern_t: sp.csr_matrix,
    p_t: sp.csr_matrix,
    groups: list[list[tuple[int, int]]],
    stop: threading.Event,
) -> list[np.ndarray]:
    """Each group's part of every journal's upper-triangle form, the sum
    over its blocks' partner rows a of P[j, a] (D_blk P^T)[a, j], added up
    in block order.

    A block's pairs are the strict upper triangle of its rows of B^T B, for
    the pattern B of the distributions; `netspace._relative_euclidean` turns
    their Gram-form squares into distances, recomputing those that cancel,
    exactly 0 included, from the differences.
    """
    forms = []
    for group in groups:
        form = np.zeros(p_t.shape[1])
        for a0, a1 in group:
            if stop.is_set():
                return forms
            pairs = sp.triu(pattern_t[a0:a1].dot(pattern), k=a0 + 1, format="csr")
            pairs = pairs.astype(np.float64)
            rows = a0 + np.repeat(np.arange(a1 - a0), np.diff(pairs.indptr))
            sq_sums = sp.csr_matrix(
                (sq[rows] + sq[pairs.indices], pairs.indices, pairs.indptr), shape=pairs.shape
            )
            dist = sq_sums - 2.0 * pairs.multiply(prob[a0:a1].dot(prob_t))
            if dist.nnz < pairs.nnz:  # pairs that cancel to exactly 0 were dropped: -1 marks
                dist = dist - (pairs - pairs.multiply(dist.astype(bool)))  # them for the kernel
            # every pair is stored again, so dist has the rows of pairs
            _relative_euclidean(prob, sq, rows, dist.indices, dist.data)
            form += np.asarray(p_t[a0:a1].multiply(dist.dot(p_t)).sum(axis=0)).ravel()
        forms.append(form)
    return forms


def _all_euclidean_pairs(axis: sp.csr_matrix, p_def: sp.csr_matrix, jobs: int = 1) -> np.ndarray:
    """All relative-Euclidean diversities, from distances built in blocks.

    d(a, b)^2 = |q_a|^2 + |q_b|^2 - 2 q_a.q_b over the probability-normalized
    vectors q.  The square root rules out a bilinear split, so d is evaluated
    explicitly, but only on the unordered pairs a < b that share some
    journal's distribution; d is symmetric, so each form is twice its
    upper-triangle part.  A block of partner rows makes whole rows of three
    products, B^T B, the Gram rows and D P^T, and holds at most PAIR_BLOCK
    cells of them by a bound on each row.  At most PAIR_GROUPS groups of
    consecutive blocks are spread over `jobs` threads and their parts summed
    in group order, so the result does not depend on `jobs`.
    """
    prob, _ = _l1_normalize_rows(axis)
    sq = _row_sums(prob.multiply(prob))
    n = len(sq)
    p_t = p_def.T.tocsr()
    pattern, pattern_t = _pattern(p_def), _pattern(p_t)
    # row a of B^T B meets at most s partners through each distribution of
    # support s that holds a, its Gram row at most c through each cell of its
    # vector in a column of c cells, and its row of D P^T at most t journals
    # through each partner there held by t distributions
    reach = (
        pattern_t.dot(np.diff(pattern.indptr)),
        _pattern(prob).dot(np.bincount(prob.indices, minlength=n)),
        pattern_t.dot(pattern.dot(np.diff(p_t.indptr))),
    )
    blocks = row_blocks(sum(np.minimum(n, r) for r in reach), PAIR_BLOCK)
    size = -(-len(blocks) // PAIR_GROUPS)
    groups = [blocks[i : i + size] for i in range(0, len(blocks), size)]
    work = partial(_euclidean_group_forms, prob, prob.T.tocsr(), sq, pattern, pattern_t, p_t)
    values = np.zeros(n)
    for form in run_shares(work, groups, jobs):  # in group order, for any jobs
        values += form
    return 2.0 * values
