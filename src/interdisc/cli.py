"""Command-line interface.

Subcommands: indicators, rank, correlate, factor, subset, synth,
export-matrix.  Each takes only the flags it reads.  `indicators` and
`subset` compute the indicators of --directions and --metrics; `rank`,
`correlate` and `factor` compute exactly the columns they report.  One JSON
config file (--config) serves every command; flags override it.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
Every failure is an `InterdiscError`, printed as one line on stderr, and
every warning as one `warning: <message>` line.  A data error from an input
file names the file, and the line for an error in one row; a file that
cannot be read or written is a data error that names it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

from .corpus import Direction, SubsetMode
from .errors import DataError, InterdiscError, UsageError, file_errors
from .netspace import cooccurrence, cosine_matrix, distance_matrix, export_matrix_market
from .pipeline import (
    RunConfig,
    compute_indicator_table,
    degenerate_rows,
    load_corpus,
    ranking,
    report_set,
    scope_table,
    write_combined_json,
    write_correlations,
    write_factors,
    write_indicator_csv,
    write_ranking_csv,
)
from .stats import pca, spearman_matrix, varimax
from .synth import (
    BridgeSpec,
    GeneralistSpec,
    SyntheticSpec,
    generate,
    uniform_spec,
    write_corpus,
)

DEFAULT_CORRELATE_COLUMNS = [
    "gini_cited",
    "entropy_cited",
    "gini_citing",
    "entropy_citing",
]

DEFAULT_FACTOR_COLUMNS = [
    "entropy_cited",
    "gini_cited",
    "rao_stirling_one_minus_cosine_cited",
    "rao_stirling_relative_euclidean_cited",
    "betweenness_citations_cited",
    "betweenness_cosine_cited",
]


class Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _add_input_options(p: argparse.ArgumentParser) -> None:
    """The options of every command that loads a corpus."""
    p.add_argument("--edges", help="edge-list CSV with header citing,cited,count")
    p.add_argument("--matrix-market", help="square integer Matrix Market file")
    p.add_argument("--names", dest="names_file", help="sidecar name file for --matrix-market")
    p.add_argument("--min-count", type=int, help="drop cells with summed count below this")
    p.add_argument("--config", help="JSON file with RunConfig fields; flags override")
    p.add_argument("--jobs", type=int,
                   help="threads, the calling thread included, for betweenness on sparse "
                        "graphs (dense graphs use the BLAS threads) and for relative-Euclidean "
                        "diversity; no effect on export-matrix")


def _add_run_options(p: argparse.ArgumentParser, scope: bool) -> None:
    """`scope` adds --directions and --metrics, which only the full table reads."""
    _add_input_options(p)
    p.add_argument("--metadata", help="metadata CSV: name,category,total_cites,impact_factor,immediacy")
    p.add_argument("--outdir", help="output directory (default: out)")
    if scope:
        p.add_argument("--directions", help="comma-separated subset of cited,citing")
        p.add_argument("--metrics", help="comma-separated subset of one_minus_cosine,relative_euclidean")
    p.add_argument("--cosine-threshold", type=float,
                   help="binarize cosine strictly above this, in [0, 1) (default 0)")
    p.add_argument("--gini-include-zeros", action="store_true", default=None,
                   help="include zero cells in the Gini population (sensitivity)")
    p.add_argument("--triangle-sum", action="store_true", default=None,
                   help="sum diversity over the lower triangle only (halves values)")
    p.add_argument("--exclude-self-citations-from-p", action="store_true", default=None,
                   help="drop the diagonal from diversity distributions (sensitivity)")


_LIST_FLAGS = ("directions", "metrics")  # comma-separated on the command line


def _split(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in _split(text)]
    except ValueError:
        raise UsageError(f"{flag} takes comma-separated integers, not {text!r}") from None


def _read_json(path: str, what: str) -> dict:
    with file_errors(path):
        text = Path(path).read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise DataError(f"{what} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise DataError(f"{what} must hold a JSON object")
        return data


def resolve_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if getattr(args, "config", None):
        data = _read_json(args.config, "config file")
    for name in RunConfig.__dataclass_fields__:  # the flags a command has
        value = getattr(args, name, None)
        if value is not None:
            data[name] = _split(value) if name in _LIST_FLAGS else value
    return RunConfig.from_dict(data)


def _outdir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the path names an existing file
        raise UsageError(f"cannot create output directory {path}: {exc.strerror}") from None
    return out


def _write_indicator_reports(table, config: RunConfig, digests: dict[str, str]) -> Path:
    out = _outdir(config.outdir)
    directions = list(dict.fromkeys(config.directions))
    paths = [out / f"indicators_{direction}.csv" for direction in directions]
    with report_set(*paths, out / "indicators.json") as temps:
        for direction, temp in zip(directions, temps):
            write_indicator_csv(table, direction, temp, config, digests)
        write_combined_json(table, temps[-1], config, digests)
    return out


def cmd_indicators(args) -> int:
    config = resolve_config(args)
    corpus = load_corpus(config)
    table = compute_indicator_table(corpus.matrix, corpus.registry, config)
    out = _write_indicator_reports(table, config, corpus.digests)
    print(f"wrote indicators for {len(table)} journals to {out}")
    return 0


# control characters and line/paragraph separators, escaped as Python writes
# them, so that each journal of a printed ranking stays on its own line
_PRINT_ESCAPES = {
    c: repr(chr(c))[1:-1] for c in [*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029]
}


def cmd_rank(args) -> int:
    if args.top < 0:
        raise UsageError(f"--top must be at least 0, not {args.top}")
    config = resolve_config(args)
    corpus = load_corpus(config)
    # the column `ranking` resolves: the name as given, else with the direction
    columns = [args.indicator, f"{args.indicator}_{args.direction}"]
    table = compute_indicator_table(corpus.matrix, corpus.registry, config, columns)
    rows = ranking(
        table,
        args.indicator,
        direction=args.direction,
        top_n=args.top,
        exclude_degenerate=not args.include_degenerate,
        append_journal=args.append_journal,
        sqrt_values=args.sqrt,
    )
    out = _outdir(config.outdir)
    path = out / f"ranking_{args.indicator}.csv"
    with report_set(path) as (temp,):
        write_ranking_csv(rows, args.indicator, temp, config, corpus.digests)
    for row in rows:
        marker = " (appended)" if row.appended else ""
        print(f"{row.rank:>4}  {row.name.translate(_PRINT_ESCAPES)}  {row.value:.9g}{marker}")
    print(f"wrote {path}")
    return 0


def _table_for_stats(args, config: RunConfig, default_columns: list[str], fewest: int):
    """The table of the --columns (else the defaults), at least `fewest` of
    them, without the rows `degenerate_rows` finds for them; a column that
    names no direction uses both.  So the default `factor`, whose columns
    are all cited-side, keeps journals degenerate only when citing.
    """
    columns = _split(args.columns) if args.columns else default_columns
    if len(columns) < fewest:
        raise UsageError(f"{args.command} needs at least {fewest} --columns, not {len(columns)}")
    corpus = load_corpus(config)
    table = compute_indicator_table(corpus.matrix, corpus.registry, config, columns)
    missing = [c for c in columns if c not in table.columns]
    if missing:
        raise UsageError(f"unknown indicator columns: {missing}")
    if not args.include_degenerate:
        table = table.select_rows(~degenerate_rows(table, columns, [d.value for d in Direction]))
    return corpus, table, columns


def cmd_correlate(args) -> int:
    config = resolve_config(args)
    corpus, table, columns = _table_for_stats(args, config, DEFAULT_CORRELATE_COLUMNS, 2)
    corr = spearman_matrix(table, columns)
    out = _outdir(config.outdir)
    write_correlations(
        corr, out / "correlations.csv", out / "correlations.json", config, corpus.digests
    )
    print(f"wrote correlations for {len(columns)} columns to {out}")
    return 0


def cmd_factor(args) -> int:
    config = resolve_config(args)
    corpus, table, columns = _table_for_stats(args, config, DEFAULT_FACTOR_COLUMNS, 1)
    pca_result = pca(table, columns, config.factors_k)
    solution = varimax(pca_result.loadings)
    out = _outdir(config.outdir)
    write_factors(
        pca_result,
        solution,
        out / "factors.csv",
        out / "factors.json",
        config,
        corpus.digests,
    )
    cumulative = solution.cumulative_variance[-1]
    print(
        f"{config.factors_k} factors explain {cumulative:.1f}% of the variance; "
        f"rotation converged in {solution.iterations} iterations"
        if solution.converged
        else f"{config.factors_k} factors; rotation did not converge"
    )
    print(f"wrote {out / 'factors.csv'} and {out / 'factors.json'}")
    return 0


def cmd_subset(args) -> int:
    config = resolve_config(args)
    corpus = load_corpus(config)
    if args.category:
        ids = corpus.registry.ids_in_category(args.category)
        if not ids:
            raise DataError(f"no journals in category {args.category!r}")
    elif args.ids:
        ids = _int_list(args.ids, "--ids")
    else:
        raise UsageError("subset needs --category or --ids")
    table = scope_table(corpus, ids, args.mode, config)
    out = _write_indicator_reports(table, config, corpus.digests)
    print(f"wrote subset indicators ({len(table)} journals, {args.mode}) to {out}")
    return 0


def _synth_spec_from_args(args) -> SyntheticSpec:
    if args.spec_json:
        with file_errors(args.spec_json):
            data = _read_json(args.spec_json, "spec file")
            try:
                bridges = [BridgeSpec(**b) for b in data.pop("bridges", [])]
                generalists = [GeneralistSpec(**g) for g in data.pop("generalists", [])]
                spec = SyntheticSpec(bridges=bridges, generalists=generalists, **data)
                spec.validate()
            except TypeError as exc:  # an unknown or missing key, or a value of the wrong type
                raise DataError(f"invalid spec file: {exc}") from None
        return spec
    if not args.clusters:
        raise UsageError("synth needs --clusters or --spec-json")
    for flag in ("bridges", "generalists"):
        if getattr(args, flag) < 0:
            raise UsageError(f"--{flag} must be at least 0, not {getattr(args, flag)}")
    if not (math.isfinite(args.generalist_volume) and args.generalist_volume >= 1.0):
        raise UsageError(
            f"--generalist-volume must be a finite number >= 1, not {args.generalist_volume}"
        )
    spec = uniform_spec(
        _int_list(args.clusters, "--clusters"),
        within_rate=args.within_rate,
        leakage_rate=args.leakage,
        n_bridges=args.bridges,
        n_generalists=args.generalists,
        generalist_volume=args.generalist_volume,
        seed=args.seed,
    )
    try:
        spec.validate()
    except DataError as exc:  # the spec came from flag values
        raise UsageError(str(exc)) from None
    return spec


def cmd_synth(args) -> int:
    spec = _synth_spec_from_args(args)
    corpus = generate(spec)
    out = _outdir(args.outdir or "out")
    edges = out / "edges.csv"
    truth = out / "synth_truth.json"
    with report_set(edges, truth) as (edges_temp, truth_temp):
        write_corpus(corpus, edges_temp, truth_temp)
    print(
        f"wrote {len(corpus.names)} journals, {len(corpus.counts)} cells "
        f"to {edges} (truth: {truth})"
    )
    return 0


def cmd_export_matrix(args) -> int:
    # a --config shared with other commands may name metadata the export never reads
    corpus = load_corpus(dataclasses.replace(resolve_config(args), metadata=None))
    if args.kind == "cosine":
        values = cosine_matrix(corpus.matrix, args.axis)
    elif args.kind == "cooccurrence":
        values = cooccurrence(corpus.matrix, args.axis)
    else:
        values = distance_matrix(corpus.matrix, args.axis, args.kind)
    with report_set(args.out) as (temp,):
        export_matrix_market(values, temp)
    print(f"wrote {args.kind} matrix ({args.axis}) to {args.out}")
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="interdisc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indicators", help="compute all indicators and write reports")
    _add_run_options(p, scope=True)
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("rank", help="rank journals by one indicator")
    _add_run_options(p, scope=False)
    p.add_argument("indicator", help="indicator column, e.g. gini or entropy")
    p.add_argument("--direction", default="cited", choices=["cited", "citing"])
    p.add_argument("--top", type=int, default=20)
    p.add_argument("--include-degenerate", action="store_true")
    p.add_argument("--append-journal", help="also list this journal below the table")
    p.add_argument("--sqrt", action="store_true", help="display sqrt of diversity values")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("correlate", help="Spearman correlation matrix")
    _add_run_options(p, scope=False)
    p.add_argument("--columns", help="comma-separated indicator columns")
    p.add_argument("--include-degenerate", action="store_true")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("factor", help="PCA plus varimax-rotated component matrix")
    _add_run_options(p, scope=False)
    p.add_argument("--columns", help="comma-separated indicator columns")
    p.add_argument("--include-degenerate", action="store_true")
    p.add_argument("-k", "--factors", dest="factors_k", type=int, help="factor count")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("subset", help="indicators for a journal subset")
    _add_run_options(p, scope=True)
    p.add_argument("--category", help="registry category to select")
    p.add_argument("--ids", help="comma-separated journal ids")
    p.add_argument(
        "--mode",
        default=SubsetMode.GLOBAL_CONTEXT.value,
        choices=[m.value for m in SubsetMode],
    )
    p.set_defaults(func=cmd_subset)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--clusters", help="comma-separated cluster sizes, e.g. 30,30,30")
    p.add_argument("--within-rate", type=float, default=0.7)
    p.add_argument("--leakage", type=float, default=0.02)
    p.add_argument("--bridges", type=int, default=0)
    p.add_argument("--generalists", type=int, default=0)
    p.add_argument("--generalist-volume", type=float, default=12.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir")
    p.add_argument("--spec-json", help="full SyntheticSpec as JSON (overrides flags)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("export-matrix", help="export a pairwise matrix as Matrix Market")
    _add_input_options(p)
    p.add_argument(
        "--kind",
        default="cosine",
        choices=["cosine", "cooccurrence", "one_minus_cosine", "relative_euclidean"],
    )
    p.add_argument("--axis", default="cited", choices=["cited", "citing"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_matrix)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InterdiscError as exc:
        kind = {1: "usage", 3: "numerical"}.get(exc.exit_code, "data")
        print(f"{kind} error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
