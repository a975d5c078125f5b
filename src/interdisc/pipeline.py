"""End-to-end runs: configuration, indicator assembly, and report files.

Every report embeds the resolved configuration and a SHA-256 digest of each
input file, and contains nothing run-dependent beyond that, so identical
inputs and options produce byte-identical outputs.  `jobs` changes no bit
of a result; the BLAS thread count (`OPENBLAS_NUM_THREADS`) can change the
last bit of dense-graph betweenness, which `indicators.json` writes in
full (the CSV reports round to 9 digits).  Each report format has
one encoder: `_csv_row` spells every CSV cell, and `_json_array`, the
`default=` hook of `_write_json`, every numpy array in a JSON report.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import centrality as ct
from . import vector_indicators as vi
from .corpus import (
    CitationMatrix,
    Direction,
    JournalRegistry,
    SubsetMode,
    canonical_name,
    load_edge_list,
    load_matrix_market,
    load_metadata,
    subset,
)
from .diversity import diversity_all
from .errors import DataError, UnknownJournalError, UsageError, file_errors
from .netspace import binarize, binarize_directed, cooccurrence_support, cosine_matrix
from .stats import (
    CorrelationMatrix,
    IndicatorTable,
    PcaResult,
    RotatedFactorSolution,
    rank_column,
    significance_stars,
)


@dataclass(frozen=True)
class Indicator:
    """An indicator, reported per direction as `<name>_<direction>`; `family`
    names the computation that yields it and the rest of its family."""

    name: str
    family: str
    order: str = "descending"  # "ascending": small values mean interdisciplinary
    diversity: bool = False


# The paper's 12 indicators per direction, in report column order.
INDICATORS = (
    Indicator("gini", "vector", "ascending"),
    Indicator("gini_normalized", "vector", "ascending"),
    Indicator("entropy", "vector"),
    Indicator("entropy_normalized", "vector"),
    Indicator("betweenness_citations", "raw_betweenness"),
    Indicator("betweenness_citations_normalized", "raw_betweenness"),
    Indicator("betweenness_cosine", "cosine_betweenness"),
    Indicator("betweenness_cosine_normalized", "cosine_betweenness"),
    Indicator("rao_stirling_one_minus_cosine", "one_minus_cosine", diversity=True),
    Indicator("rao_stirling_relative_euclidean", "relative_euclidean", diversity=True),
    Indicator("degree", "size"),
    Indicator("total_citations", "size"),
)

LOADING_DISPLAY_THRESHOLD = 0.1


# RunConfig field annotations (strings under postponed evaluation) -> value check
_FIELD_TYPE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "str | None": lambda v: v is None or isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "tuple[str, ...]": lambda v: isinstance(v, (list, tuple))
    and all(isinstance(x, str) for x in v),
}


@dataclass
class RunConfig:
    edges: str | None = None
    matrix_market: str | None = None
    names_file: str | None = None
    metadata: str | None = None
    outdir: str = "out"
    directions: tuple[str, ...] = ("cited", "citing")
    metrics: tuple[str, ...] = ("one_minus_cosine", "relative_euclidean")
    min_count: int = 1
    cosine_threshold: float = 0.0
    gini_include_zeros: bool = False
    triangle_sum: bool = False
    exclude_self_citations_from_p: bool = False
    factors_k: int = 3
    jobs: int = 1

    def __post_init__(self) -> None:
        # the table leaves out what it does not know, so reject it here
        if not self.directions:
            raise UsageError("directions must name at least one direction")
        for direction in self.directions:
            if direction not in {d.value for d in Direction}:
                raise UsageError(f"unknown direction: {direction!r}")
        for metric in self.metrics:
            if metric not in {i.family for i in INDICATORS if i.diversity}:
                raise UsageError(f"unknown metric: {metric!r}")
        for name in ("min_count", "factors_k", "jobs"):
            if getattr(self, name) < 1:
                raise UsageError(f"{name} must be at least 1, not {getattr(self, name)}")
        # below 0 every pair is linked, empty journals too; from 1 up no pair is
        if not 0.0 <= self.cosine_threshold < 1.0:  # NaN fails here too
            raise UsageError(f"cosine_threshold must be in [0, 1), not {self.cosine_threshold}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        clean = {}
        for key, value in data.items():
            type_name = fields[key].type
            if not _FIELD_TYPE_CHECKS[type_name](value):
                raise UsageError(f"config key {key!r} must be {type_name}, not {value!r}")
            if type_name == "float":
                # an int here would print as 0, not 0.0, in the provenance line
                try:
                    value = float(value)
                except OverflowError:
                    raise UsageError(f"config key {key!r} is out of range: {value!r}") from None
            elif type_name == "tuple[str, ...]":
                value = tuple(value)
            clean[key] = value
        return cls(**clean)


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with file_errors(path), open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class LoadedCorpus:
    registry: JournalRegistry
    matrix: CitationMatrix
    digests: dict[str, str] = field(default_factory=dict)


def load_corpus(config: RunConfig) -> LoadedCorpus:
    if config.edges and config.matrix_market:
        raise UsageError("give either an edge list or a Matrix Market file, not both")
    if config.edges:
        if config.names_file:
            raise UsageError("--names applies to --matrix-market, not to edge lists")
        registry, matrix = load_edge_list(config.edges, min_count=config.min_count)
        digests = {"edges": file_digest(config.edges)}
    elif config.matrix_market:
        if config.min_count != RunConfig.min_count:
            raise UsageError("--min-count applies to edge lists, not to --matrix-market")
        registry, matrix = load_matrix_market(config.matrix_market, config.names_file)
        digests = {"matrix_market": file_digest(config.matrix_market)}
        if config.names_file:
            digests["names"] = file_digest(config.names_file)
    else:
        raise UsageError("no input file given")
    if config.metadata:
        unmatched = load_metadata(config.metadata, registry)
        digests["metadata"] = file_digest(config.metadata)
        if unmatched:
            warnings.warn(f"{unmatched} metadata rows did not match any journal")
    return LoadedCorpus(registry=registry, matrix=matrix, digests=digests)


def _family_columns(
    family: str, matrix: CitationMatrix, direction: Direction, config: RunConfig
) -> tuple[np.ndarray, ...]:
    """One family's columns for one direction, in catalogue order."""
    n = matrix.n
    if family == "raw_betweenness":  # one directed graph serves both directions
        scores = ct.betweenness(binarize_directed(matrix), jobs=config.jobs)
        return scores, ct.normalize_betweenness(scores, n, directed=True)
    if family == "cosine_betweenness":
        if config.cosine_threshold == 0.0:
            graph = binarize(cooccurrence_support(matrix, direction))
        else:
            graph = binarize(cosine_matrix(matrix, direction), threshold=config.cosine_threshold)
        scores = ct.betweenness(graph, jobs=config.jobs)
        return scores, ct.normalize_betweenness(scores, n, directed=False)
    axis = matrix.axis_matrix(direction)
    if family == "vector":
        return vi.vector_indicator_columns(axis, n if config.gini_include_zeros else None)
    if family == "size":
        support = np.diff(axis.indptr)
        degree = (support - (matrix.tocsr().diagonal() > 0)).astype(np.float64)
        totals = np.asarray(axis.sum(axis=1), dtype=np.float64).ravel()
        degree[support == 0] = totals[support == 0] = np.nan
        return degree, totals
    results = diversity_all(  # the Rao-Stirling families are named by their metric
        matrix, direction, family, triangle_sum=config.triangle_sum,
        exclude_self_citations=config.exclude_self_citations_from_p, jobs=config.jobs,
    )
    return (np.array([np.nan if r.missing else r.d_value for r in results]),)


def compute_indicator_table(
    matrix: CitationMatrix,
    registry: JournalRegistry,
    config: RunConfig,
    columns: list[str] | None = None,
) -> IndicatorTable:
    """Indicators for all journals, columns suffixed by direction.

    Without `columns`, every catalogue indicator of `config.directions` (the
    Rao-Stirling ones of `config.metrics`); with `columns`, exactly those
    named, and `directions`/`metrics` do not apply.  Each family they need
    runs once (raw betweenness once for both directions).  `support_*`,
    `degenerate_*` and the metadata columns are always added.

    Journals with an empty vector in a direction get NaN in that direction's
    vector, size and diversity columns, 0 in its betweenness columns (a node
    no path crosses), and a raised degeneracy flag; single-cell journals keep
    their conventional values and the flag.
    """
    n = matrix.n
    table = IndicatorTable(
        journal_ids=list(range(n)), names=[registry.name_of(j) for j in range(n)]
    )
    directions = [d.value for d in Direction]
    if columns is None:  # the full table
        directions = list(dict.fromkeys(config.directions))
        columns = [f"{i.name}_{d}" for d in directions for i in INDICATORS
                   if not i.diversity or i.family in config.metrics]
    computed: dict[tuple, dict[str, np.ndarray]] = {}  # (family, direction) -> columns
    for direction in map(Direction, directions):
        for indicator in INDICATORS:
            name, family = f"{indicator.name}_{direction.value}", indicator.family
            if name not in columns:
                continue
            key = (family, None if family == "raw_betweenness" else direction)
            if key not in computed:
                members = [i.name for i in INDICATORS if i.family == family]
                computed[key] = dict(zip(members, _family_columns(family, matrix, direction, config)))
            table.add_column(name, computed[key][indicator.name])
        support = np.diff(matrix.axis_matrix(direction).indptr)
        table.add_flag(f"degenerate_{direction.value}", support <= 1)
        table.add_column(f"support_{direction.value}", support.astype(np.float64))
    _attach_metadata_columns(table, registry)
    return table


def _attach_metadata_columns(table: IndicatorTable, registry: JournalRegistry) -> None:
    entries = [registry.entries[j] for j in table.journal_ids]
    for name in ("total_cites", "impact_factor", "immediacy"):
        values = [getattr(e, name) for e in entries]
        if any(v is not None for v in values):
            table.add_column(name, [np.nan if v is None else float(v) for v in values])


def scope_table(
    corpus: LoadedCorpus, ids: list[int], mode: SubsetMode | str, config: RunConfig
) -> IndicatorTable:
    """Indicator table for the journals `ids` (any order, repeats allowed),
    rows in ascending id order.

    In `global_context` mode the indicators are those of the whole corpus; in
    `local_submatrix` mode they are computed on the submatrix of `ids` alone.
    Either way `journal_ids` are the corpus's own ids.
    """
    mode = SubsetMode(mode)
    id_list = sorted(set(ids))
    if not id_list:
        raise UnknownJournalError("subset ids must be nonempty")
    n = corpus.matrix.n
    if id_list[0] < 0 or id_list[-1] >= n:
        bad = id_list[0] if id_list[0] < 0 else id_list[-1]
        raise UnknownJournalError(f"journal id {bad} out of range 0..{n - 1}")
    if mode is SubsetMode.GLOBAL_CONTEXT:
        table = compute_indicator_table(corpus.matrix, corpus.registry, config)
        mask = np.zeros(n, dtype=bool)
        mask[id_list] = True
        return table.select_rows(mask)
    registry, matrix = subset(corpus.matrix, corpus.registry, id_list)
    table = compute_indicator_table(matrix, registry, config)
    table.journal_ids = id_list
    return table


# ---------------------------------------------------------------------------
# Report formatting


_CSV_QUOTED = re.compile(r'[,"\r\n]')


def _csv_cell(value) -> str:
    if isinstance(value, float):  # numpy's float64 too, the most common cell
        return "" if value != value else f"{value:.9g}"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(value)
    return '"' + value.replace('"', '""') + '"' if _CSV_QUOTED.search(value) else value


def _csv_row(*cells) -> str:
    """One CSV line: flags as 1/0, integers as they are, floats to 9
    significant digits (NaN empty), and text quoted RFC 4180-style when it
    holds a comma, quote, CR or LF."""
    return ",".join(map(_csv_cell, cells))


def _json_array(value: np.ndarray) -> list:
    """`json`'s hook for numpy arrays: nested lists, NaN as null."""
    return np.where(np.isnan(value), None, value).tolist()


@contextmanager
def report_set(*paths: str | Path) -> Iterator[list[Path]]:
    """Temporary names beside `paths` for the block to write, renamed onto
    `paths` only once the block has written them all, so a failure leaves
    neither a fresh report beside a stale partner nor a temporary file.

    A target that is a directory fails the set before any rename.  An error
    that names a temporary file names its target instead.
    """
    paths = [Path(path) for path in paths]
    temps = [path.with_name(path.name + ".tmp") for path in paths]
    try:
        yield temps
        for path in paths:
            with file_errors(path):
                if path.is_dir():
                    raise DataError("Is a directory")
        for temp, path in zip(temps, paths):
            with file_errors(path):
                temp.replace(path)
    except DataError as exc:
        if exc.path in temps:
            exc.path = paths[temps.index(exc.path)]
        raise
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _write_text(
    path: str | Path, config: RunConfig, digests: dict[str, str], lines: list[str]
) -> None:
    """Write the provenance header, then `lines`, one per line."""
    header = [
        "# config: " + json.dumps(asdict(config), sort_keys=True),
        "# inputs: " + json.dumps(digests, sort_keys=True),
    ]
    with file_errors(path):
        Path(path).write_text("\n".join(header + lines) + "\n", encoding="utf-8")


def _write_json(
    path: str | Path, config: RunConfig, digests: dict[str, str], payload: dict
) -> None:
    """Write `payload` with the run's config and input digests beside it."""
    envelope = {"config": asdict(config), "inputs": digests, **payload}
    text = json.dumps(envelope, indent=2, sort_keys=True, default=_json_array)
    with file_errors(path):
        Path(path).write_text(text + "\n", encoding="utf-8")


def write_indicator_csv(
    table: IndicatorTable,
    direction: str,
    path: str | Path,
    config: RunConfig,
    digests: dict[str, str],
) -> None:
    suffix = f"_{direction}"
    # a restricted --metrics or --directions run computes fewer columns
    columns = [i.name + suffix for i in INDICATORS if i.name + suffix in table.columns]
    rows = zip(
        table.journal_ids,
        table.names,
        table.column("support" + suffix).astype(np.int64),
        table.flags["degenerate" + suffix],
        *(table.column(c) for c in columns),
    )
    lines = [
        "# note: betweenness_citations is computed on the directed citation "
        "graph and is identical for the cited and citing directions",
        _csv_row("journal_id", "name", "support", "degenerate", *columns),
        *(_csv_row(*row) for row in rows),
    ]
    _write_text(path, config, digests, lines)


def write_combined_json(
    table: IndicatorTable,
    path: str | Path,
    config: RunConfig,
    digests: dict[str, str],
) -> None:
    journals = [{"id": jid, "name": name} for jid, name in zip(table.journal_ids, table.names)]
    payload = {"journals": journals, "columns": table.columns, "flags": table.flags}
    _write_json(path, config, digests, payload)


def _direction_of(column: str) -> str | None:
    """The direction a column name ends with, if it names one."""
    return next((d.value for d in Direction if column.endswith(f"_{d.value}")), None)


def degenerate_rows(
    table: IndicatorTable, columns: list[str], directions: list[str] | tuple[str, ...]
) -> np.ndarray:
    """Rows degenerate in a direction that `columns` use: the direction a
    column's name ends with, or each of `directions` for a column that names
    none.  A direction without a `degenerate_*` flag in the table marks no row.
    """
    used: set[str] = set()
    for column in columns:
        named = _direction_of(column)
        used |= {named} if named else set(directions)
    degenerate = np.zeros(len(table), dtype=bool)
    for direction in used:
        degenerate |= table.flags.get(f"degenerate_{direction}", False)
    return degenerate


def _indicator_of(column: str) -> Indicator:
    """The catalogue indicator of a column name, with or without its direction;
    columns outside the catalogue (support, metadata) rank descending."""
    direction = _direction_of(column)
    name = column.removesuffix(f"_{direction}") if direction else column
    return next((i for i in INDICATORS if i.name == name), Indicator(name, "other"))


@dataclass
class RankedRow:
    rank: int
    journal_id: int
    name: str
    value: float
    appended: bool = False


def ranking(
    table: IndicatorTable,
    indicator: str,
    direction: str = "cited",
    top_n: int = 20,
    exclude_degenerate: bool = True,
    append_journal: str | None = None,
    sqrt_values: bool = False,
) -> list[RankedRow]:
    """Top journals under one indicator's ranking convention.

    Inequality-style indicators rank ascending, everything else descending;
    journals degenerate in the column's direction (`direction` for a column
    that names none) are left out unless asked for, and journals with no
    value never rank.  `append_journal` adds one named journal's row below
    the list regardless of its rank (0 if it is not eligible), even below an
    empty list.  `sqrt_values` displays square roots (rank order is
    unchanged); it only applies to diversity indicators.
    """
    column_name = indicator if indicator in table.columns else f"{indicator}_{direction}"
    if column_name not in table.columns:
        raise UsageError(f"unknown indicator: {indicator!r}")
    if sqrt_values and not _indicator_of(column_name).diversity:
        raise UsageError("--sqrt applies only to diversity indicators")
    values = table.column(column_name)
    eligible = ~np.isnan(values)
    if exclude_degenerate:
        eligible &= ~degenerate_rows(table, [column_name], [direction])
    if not eligible.any():
        warnings.warn("all journals are degenerate or missing; ranking is empty")
    masked = np.where(eligible, values, np.nan)  # ranked after every eligible journal
    ranks = rank_column(masked, order=_indicator_of(column_name).order)
    top = np.argsort(ranks, kind="stable")[: min(top_n, np.count_nonzero(eligible))]
    shown = np.sqrt(values) if sqrt_values else values

    def row(i: int, rank: int, appended: bool = False) -> RankedRow:
        return RankedRow(rank, table.journal_ids[i], table.names[i], float(shown[i]), appended)

    rows = [row(i, k + 1) for k, i in enumerate(top)]
    if append_journal is not None:
        target = _find_row(table, append_journal)
        if target is None:
            raise DataError(f"journal to append not found: {append_journal!r}")
        if target not in top:
            rows.append(row(target, int(round(ranks[target])) if eligible[target] else 0, True))
    return rows


def _find_row(table: IndicatorTable, name: str) -> int | None:
    wanted = canonical_name(name)
    for i, journal in enumerate(table.names):
        if canonical_name(journal) == wanted:
            return i
    return None


def write_ranking_csv(
    rows: list[RankedRow],
    indicator: str,
    path: str | Path,
    config: RunConfig,
    digests: dict[str, str],
) -> None:
    lines = [
        f"# indicator: {indicator} (order: {_indicator_of(indicator).order})",
        "rank,journal_id,name,value,appended",
        *(_csv_row(r.rank, r.journal_id, r.name, r.value, r.appended) for r in rows),
    ]
    _write_text(path, config, digests, lines)


def write_correlations(
    corr: CorrelationMatrix,
    csv_path: str | Path,
    json_path: str | Path,
    config: RunConfig,
    digests: dict[str, str],
) -> None:
    diagonal = np.eye(len(corr.columns), dtype=bool)
    rho = np.array([[_csv_cell(r) + significance_stars(p) for r, p in zip(*pair)]
                    for pair in zip(corr.rho, corr.p_values)], dtype=object)
    rho[diagonal] = "1"

    def block(cells) -> list[str]:
        return [_csv_row(name, *row) for name, row in zip(corr.columns, cells)]

    lines = [
        "# spearman rho; stars: ** p<0.01, * p<0.05 (two-tailed)",
        _csv_row("", *corr.columns),
        *block(rho),
        "# two-tailed p-values",
        *block(np.where(diagonal, np.nan, corr.p_values)),
        "# pairwise complete n",
        *block(corr.n),
    ]
    payload = {"columns": corr.columns, "rho": corr.rho, "p_values": corr.p_values, "n": corr.n}
    with report_set(csv_path, json_path) as (csv_temp, json_temp):
        _write_text(csv_temp, config, digests, lines)
        _write_json(json_temp, config, digests, payload)


def write_factors(
    pca_result: PcaResult,
    solution: RotatedFactorSolution,
    csv_path: str | Path,
    json_path: str | Path,
    config: RunConfig,
    digests: dict[str, str],
) -> None:
    outcome = "converged" if solution.converged else "did NOT converge"
    loadings = solution.loadings
    shown = np.where(np.abs(loadings) >= LOADING_DISPLAY_THRESHOLD, loadings, np.nan)
    lines = [
        "# rotated component matrix (principal components, varimax with",
        f"# kaiser normalization); rotation {outcome} in {solution.iterations} iterations",
        f"# loadings with absolute value below {LOADING_DISPLAY_THRESHOLD} are left blank; "
        "full precision in the JSON report",
        _csv_row("indicator", *(f"component_{j + 1}" for j in range(solution.k))),
        *(_csv_row(name, *row) for name, row in zip(pca_result.columns, shown)),
        "# variance explained per rotated factor (%): " + _csv_row(*solution.variance_explained),
        "# cumulative variance explained (%): " + _csv_row(*solution.cumulative_variance),
        f"# observations (listwise complete): {pca_result.n_observations}",
    ]
    payload = {
        "columns": pca_result.columns,
        "k": solution.k,
        "eigenvalues": pca_result.eigenvalues,
        "variance_explained_components": pca_result.variance_explained,
        "unrotated_loadings": pca_result.loadings,
        "rotated_loadings": loadings,
        "rotation": solution.rotation,
        "variance_explained_rotated": solution.variance_explained,
        "cumulative_variance_rotated": solution.cumulative_variance,
        "iterations": solution.iterations,
        "converged": solution.converged,
        "n_observations": pca_result.n_observations,
    }
    with report_set(csv_path, json_path) as (csv_temp, json_temp):
        _write_text(csv_temp, config, digests, lines)
        _write_json(json_temp, config, digests, payload)
