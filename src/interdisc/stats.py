"""Evaluation pipeline over indicator tables.

Spearman rank correlation with average-rank ties and a t-approximation for
the two-tailed p-value, principal components of the indicator correlation
matrix, and varimax rotation with Kaiser normalization.  Missing cells are
tracked as NaN; correlations use pairwise-complete observations, the factor
model uses listwise-complete rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RankError, UndefinedCorrelationError


class IndicatorTable:
    """Journals as rows, named real-valued indicator columns, NaN for missing.

    Boolean flag columns (e.g. degeneracy markers) are kept separately so
    they never mix with indicator values.
    """

    def __init__(self, journal_ids: list[int], names: list[str]):
        self.journal_ids = list(journal_ids)
        self.names = list(names)
        self.columns: dict[str, np.ndarray] = {}
        self.flags: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.journal_ids)

    def add_column(self, name: str, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(self),):
            raise ValueError(f"column {name!r} has {values.size} rows, expected {len(self)}")
        self.columns[name] = values

    def add_flag(self, name: str, values) -> None:
        values = np.asarray(values, dtype=bool)
        if values.shape != (len(self),):
            raise ValueError(f"flag {name!r} has {values.size} rows, expected {len(self)}")
        self.flags[name] = values

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(name)
        return self.columns[name]

    def select_rows(self, mask: np.ndarray) -> "IndicatorTable":
        mask = np.asarray(mask, dtype=bool)
        idx = np.flatnonzero(mask)
        out = IndicatorTable(
            [self.journal_ids[i] for i in idx], [self.names[i] for i in idx]
        )
        for name, col in self.columns.items():
            out.columns[name] = col[idx]
        for name, flag in self.flags.items():
            out.flags[name] = flag[idx]
        return out

    def listwise_mask(self, columns: list[str]) -> np.ndarray:
        mask = np.ones(len(self), dtype=bool)
        for name in columns:
            mask &= ~np.isnan(self.column(name))
        return mask


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ascending 1-based ranks with tied values sharing their average rank."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    sx = x[order]
    boundaries = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1], True])
    starts, ends = boundaries[:-1], boundaries[1:]
    run_ranks = (starts + ends - 1) / 2.0 + 1.0
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(run_ranks, ends - starts)
    return ranks


@dataclass
class SpearmanResult:
    rho: float
    p_value: float
    n: int


def spearman(x, y) -> SpearmanResult:
    """Spearman rank correlation with average ties and t-approximate p-value.

    Pairs with a missing side are dropped first.  Identical or exactly
    reversed rankings return rho = +/-1.0 exactly (the definitional cases),
    everything else is the Pearson correlation of the rank vectors with
    p from t = rho * sqrt((n-2) / (1-rho^2)), two-tailed.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise UndefinedCorrelationError("columns must be 1-d and equally long")
    keep = ~(np.isnan(x) | np.isnan(y))
    x, y = x[keep], y[keep]
    n = x.size
    if n < 3:
        raise UndefinedCorrelationError(f"need at least 3 paired observations, got {n}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedCorrelationError("correlation undefined for a constant column")

    rx = average_ranks(x)
    ry = average_ranks(y)
    if np.array_equal(rx, ry):
        return SpearmanResult(rho=1.0, p_value=0.0, n=n)
    if np.array_equal(rx, (n + 1.0) - ry):
        return SpearmanResult(rho=-1.0, p_value=0.0, n=n)

    ax = rx - rx.mean()
    ay = ry - ry.mean()
    rho = float((ax @ ay) / math.sqrt((ax @ ax) * (ay @ ay)))
    rho = max(-1.0, min(1.0, rho))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        # imported here: scipy.special costs every other command ~0.2 s of start-up
        from scipy.special import stdtr

        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = float(2.0 * stdtr(n - 2, -abs(t)))
    return SpearmanResult(rho=rho, p_value=p, n=n)


@dataclass
class CorrelationMatrix:
    columns: list[str]
    rho: np.ndarray
    p_values: np.ndarray
    n: np.ndarray  # pairwise-complete observation counts


def significance_stars(p: float) -> str:
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def spearman_matrix(table: IndicatorTable, columns: list[str]) -> CorrelationMatrix:
    """Symmetric Spearman matrix over pairwise-complete observations."""
    if len(columns) < 2:
        raise UndefinedCorrelationError("need at least 2 columns to correlate")
    k = len(columns)
    rho = np.eye(k)
    p_values = np.zeros((k, k))
    n = np.zeros((k, k), dtype=np.int64)
    for i, name in enumerate(columns):
        col = table.column(name)
        n[i, i] = int(np.count_nonzero(~np.isnan(col)))
    for i in range(k):
        for j in range(i + 1, k):
            res = spearman(table.column(columns[i]), table.column(columns[j]))
            rho[i, j] = rho[j, i] = res.rho
            p_values[i, j] = p_values[j, i] = res.p_value
            n[i, j] = n[j, i] = res.n
    return CorrelationMatrix(columns=list(columns), rho=rho, p_values=p_values, n=n)


def _pearson_correlation_matrix(data: np.ndarray) -> np.ndarray:
    means = data.mean(axis=0)
    centered = data - means
    stds = np.sqrt((centered**2).sum(axis=0))
    if np.any(stds == 0):
        bad = int(np.flatnonzero(stds == 0)[0])
        raise UndefinedCorrelationError(f"column {bad} is constant")
    z = centered / stds
    corr = z.T @ z
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


@dataclass
class PcaResult:
    columns: list[str]
    loadings: np.ndarray  # indicators x k, eigenvector * sqrt(eigenvalue)
    eigenvalues: np.ndarray
    variance_explained: np.ndarray  # percent of total variance per component
    n_observations: int


def pca(table: IndicatorTable, columns: list[str], k: int) -> PcaResult:
    """Principal components of the Pearson correlation matrix of `columns`.

    Rows with any missing value among the selected columns are dropped
    (listwise deletion).  Components are ordered by descending eigenvalue
    and signed so each component's largest-magnitude loading is positive.
    """
    if k < 1 or k > len(columns):
        raise RankError(f"k={k} must be between 1 and {len(columns)}")
    mask = table.listwise_mask(columns)
    data = np.column_stack([table.column(c)[mask] for c in columns])
    if data.shape[0] < 3:
        raise UndefinedCorrelationError(
            f"only {data.shape[0]} complete rows, need at least 3"
        )
    corr = _pearson_correlation_matrix(data)
    eigvals, eigvecs = np.linalg.eigh(corr)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    if eigvals[-1] < -1e-8:
        raise NumericalError(
            f"correlation matrix is not positive semidefinite (min eig {eigvals[-1]:.3g})"
        )
    rank = int(np.count_nonzero(eigvals > 1e-10 * max(eigvals[0], 1.0)))
    if k > rank:
        raise RankError(f"k={k} exceeds the correlation matrix rank {rank}")
    lam = np.clip(eigvals[:k], 0.0, None)
    loadings = eigvecs[:, :k] * np.sqrt(lam)
    loadings = _fix_signs(loadings)
    explained = 100.0 * eigvals / len(columns)
    return PcaResult(
        columns=list(columns),
        loadings=loadings,
        eigenvalues=eigvals,
        variance_explained=explained,
        n_observations=int(data.shape[0]),
    )


def _fix_signs(loadings: np.ndarray, rotation: np.ndarray | None = None):
    flip = np.ones(loadings.shape[1])
    for j in range(loadings.shape[1]):
        col = loadings[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            flip[j] = -1.0
    if rotation is None:
        return loadings * flip
    return loadings * flip, rotation * flip


def varimax_criterion(loadings: np.ndarray) -> float:
    """Sum over factors of the variance of squared loadings."""
    sq = np.asarray(loadings, dtype=np.float64) ** 2
    return float((np.mean(sq**2, axis=0) - np.mean(sq, axis=0) ** 2).sum())


VARIMAX_TOL = 1e-6  # relative criterion improvement that ends the sweeps
VARIMAX_MAX_ITER = 500


@dataclass
class RotatedFactorSolution:
    loadings: np.ndarray
    rotation: np.ndarray  # orthogonal k x k, loadings = input @ rotation
    variance_explained: np.ndarray  # percent per rotated factor
    cumulative_variance: np.ndarray
    k: int
    converged: bool
    iterations: int


def varimax(loadings: np.ndarray, kaiser_normalize: bool = True) -> RotatedFactorSolution:
    """Varimax rotation by pairwise planar (Jacobi) rotations.

    Rows are scaled to unit communality first when `kaiser_normalize` and
    unscaled afterward.  One iteration is a full sweep over factor pairs;
    the loop stops when the relative criterion improvement drops below
    `VARIMAX_TOL`, or unconverged after `VARIMAX_MAX_ITER` sweeps.  A single
    factor is returned unchanged.
    """
    loadings = np.asarray(loadings, dtype=np.float64)
    p, k = loadings.shape
    if k == 1:
        return RotatedFactorSolution(
            loadings=loadings.copy(),
            rotation=np.eye(1),
            variance_explained=_explained(loadings, p),
            cumulative_variance=np.cumsum(_explained(loadings, p)),
            k=1,
            converged=True,
            iterations=0,
        )

    h = np.sqrt((loadings**2).sum(axis=1))
    scale = np.where(h > 0, h, 1.0)
    work = loadings / scale[:, None] if kaiser_normalize else loadings.copy()
    rotation = np.eye(k)

    value = varimax_criterion(work)
    converged = False
    iterations = 0
    for _ in range(VARIMAX_MAX_ITER):
        for a in range(k - 1):
            for b in range(a + 1, k):
                x, y = work[:, a], work[:, b]
                u = x * x - y * y
                v = 2.0 * x * y
                su, sv = u.sum(), v.sum()
                num = 2.0 * (u * v).sum() - 2.0 * su * sv / p
                den = (u * u - v * v).sum() - (su * su - sv * sv) / p
                phi = 0.25 * math.atan2(num, den)
                if abs(phi) < 1e-12:
                    continue
                c, s = math.cos(phi), math.sin(phi)
                plane = np.array([[c, -s], [s, c]])
                work[:, [a, b]] = work[:, [a, b]] @ plane
                rotation[:, [a, b]] = rotation[:, [a, b]] @ plane
        iterations += 1
        new_value = varimax_criterion(work)
        if new_value - value <= VARIMAX_TOL * max(abs(value), 1e-15):
            converged = True
            value = new_value
            break
        value = new_value

    rotated = work * scale[:, None] if kaiser_normalize else work
    rotated, rotation = _fix_signs(rotated, rotation)
    explained = _explained(rotated, p)
    return RotatedFactorSolution(
        loadings=rotated,
        rotation=rotation,
        variance_explained=explained,
        cumulative_variance=np.cumsum(explained),
        k=k,
        converged=converged,
        iterations=iterations,
    )


def _explained(loadings: np.ndarray, p: int) -> np.ndarray:
    return 100.0 * (loadings**2).sum(axis=0) / p


def rank_column(values, order: str = "descending") -> np.ndarray:
    """1-based average-tie ranks; missing values are ranked after all present.

    `order` is "ascending" (small values rank first, the convention for
    inequality measures) or "descending" (large values rank first, used for
    everything else).
    """
    if order not in ("ascending", "descending"):
        raise ValueError(f"order must be ascending or descending, not {order!r}")
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise NumericalError("cannot rank an empty column")
    present = ~np.isnan(x)
    m = int(present.sum())
    z = x.size - m
    ranks = np.empty(x.size)
    key = x[present] if order == "ascending" else -x[present]
    ranks[present] = average_ranks(key)
    if z:
        ranks[~present] = m + (z + 1) / 2.0
    return ranks
