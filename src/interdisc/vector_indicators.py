"""Per-journal indicators of a citation distribution, for all journals at once.

Gini coefficient (raw and normalized to a unit maximum) and Shannon entropy
in bits (raw and as a fraction of the local maximum log2(n)).
`vector_indicator_columns` evaluates all four over the rows of a CSR matrix
in one pass; the `*_from_counts` functions check a single count vector and
evaluate it as a one-row matrix.  The Gini population is a row's stored
cells by default; zero cells can be pulled into it for sensitivity runs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import UndefinedIndicatorError


def vector_indicator_columns(
    axis: sp.csr_matrix, population: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(gini, gini_normalized, entropy, entropy_normalized) of every row.

    `axis` holds positive counts in canonical CSR form.  The Gini population
    of a row is its stored cells, or, with `population`, those cells padded
    with zeros to `population` members.  Gini sorts each row non-decreasingly
    and evaluates sum((2i - N - 1) * x_i) / (N * sum(x)), i = 1..N, where the
    padded zeros take ranks 1..N-s; its normalized form is rescaled by
    N/(N-1) so every population size can reach 1.0.  Entropy is
    log2(S) - sum(x*log2(x))/S over the stored cells, which keeps uniform
    rows exactly at log2(s) and normalized 1.0; single-cell rows get 0 for
    both.  Empty rows get NaN in all four columns.
    """
    n_rows = axis.shape[0]
    support = np.diff(axis.indptr)
    filled = support > 0
    starts = axis.indptr[:-1][filled]
    rows = np.repeat(np.arange(n_rows), support)
    x = axis.data.astype(np.float64)
    s = support[filled].astype(np.float64)
    size = s if population is None else np.full(s.size, float(population))

    order = np.lexsort((x, rows))
    position = np.arange(x.size) - np.repeat(axis.indptr[:-1], support)
    rank = position + 1 + np.repeat(size - s, support[filled])
    coef = 2.0 * rank - np.repeat(size, support[filled]) - 1.0
    total = np.add.reduceat(x, starts)
    gini = np.add.reduceat(coef * x[order], starts) / (size * total)
    gini_normalized = gini * size / np.maximum(size - 1.0, 1.0)

    uniform = np.minimum.reduceat(x, starts) == np.maximum.reduceat(x, starts)
    log_s = np.log2(s)
    entropy = np.where(
        uniform, log_s, np.log2(total) - np.add.reduceat(x * np.log2(x), starts) / total
    )
    entropy_normalized = np.divide(entropy, log_s, out=np.ones_like(s), where=~uniform)
    entropy_normalized[s == 1] = 0.0

    columns = []
    for values in (gini, gini_normalized, entropy, entropy_normalized):
        col = np.full(n_rows, np.nan)
        col[filled] = values
        columns.append(col)
    return tuple(columns)


def _indicator(x, which: int) -> float:
    """Column `which` of `vector_indicator_columns` for one count vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise UndefinedIndicatorError("indicator undefined for an empty vector")
    if np.any(x < 0):
        raise UndefinedIndicatorError("citation counts must be nonnegative")
    cells = np.flatnonzero(x)
    if cells.size == 0:
        raise UndefinedIndicatorError("indicator undefined for an all-zero vector")
    row = sp.csr_matrix((x[cells], cells, [0, cells.size]), shape=(1, x.size))
    return float(vector_indicator_columns(row, population=x.size)[which][0])


def gini_from_counts(x: np.ndarray) -> float:
    """Gini coefficient of a count vector, zero cells included.

    Zero for a single-element population.  Ranges over [0, (n-1)/n]; ties in
    the sort do not affect the value.
    """
    return _indicator(x, 0)


def gini_normalized_from_counts(x: np.ndarray) -> float:
    """Gini rescaled by n/(n-1) so every population size can reach 1.0."""
    return _indicator(x, 1)


def shannon_entropy_from_counts(x: np.ndarray) -> float:
    """Shannon entropy in bits of the distribution p_i = x_i / sum(x)."""
    return _indicator(x, 2)


def entropy_normalized_from_counts(x: np.ndarray) -> float:
    """Entropy as a fraction of its local maximum log2(n) over nonzero cells.

    Exactly 1.0 for uniform vectors of any size n >= 2; 0 when n == 1.
    """
    return _indicator(x, 3)
