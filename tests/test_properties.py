"""Property tests: the indicator table under relabelling, transposition,
scaling and a change of input format, the symmetry of the cosine matrix
and of the graphs binarized from it, betweenness against the recurrence of
full products at any thread count, the all-journal diversity kernels
against the naive double sum, the loaders on arbitrary bytes, and every
corpus command on small generated corpora and options.

Random count matrices with at most 10 journals; every catalogue column,
every support column and every degeneracy flag is compared within 1e-12,
or exactly where the inputs hold the same matrix.  The loaders may reject
any input, but only with an `InterdiscError`; a command may fail, but
only with an exit code, and then writes no report.
"""

import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import indicator_table
from interdisc.centrality import DENSE_DENSITY, betweenness
from interdisc.cli import main
from interdisc.corpus import CitationMatrix, Direction, load_edge_list, load_matrix_market
from interdisc.diversity import diversity_all
from interdisc.errors import InterdiscError
from interdisc.netspace import BinaryGraph, binarize, cosine_matrix, distance_matrix
from interdisc.pipeline import INDICATORS
from oracles import binarize_symmetrized, brandes_batch_every_level, naive_rao

TOL = 1e-12

pytestmark = pytest.mark.filterwarnings("ignore:.*undefined distances")


@st.composite
def count_matrices(draw) -> np.ndarray:
    n = draw(st.integers(2, 10))
    counts = draw(hnp.arrays(np.int64, (n, n), elements=st.integers(0, 20)))
    assume(counts.any())
    return counts


def table_of(counts: np.ndarray):
    rows, cols = np.nonzero(counts)
    return indicator_table(CitationMatrix(len(counts), rows, cols, counts[rows, cols]))


def assert_close(actual, expected, label: str) -> None:
    np.testing.assert_allclose(actual, expected, rtol=TOL, atol=TOL, err_msg=label)


@given(count_matrices())
def test_transposing_swaps_cited_and_citing_columns(counts):
    table, transposed = table_of(counts), table_of(counts.T)
    swap = {"cited": "citing", "citing": "cited"}
    for direction, other in swap.items():
        # betweenness_citations is the same in both directions, so it must
        # also come out unchanged
        for name in [i.name for i in INDICATORS] + ["support"]:
            assert_close(
                transposed.column(f"{name}_{direction}"),
                table.column(f"{name}_{other}"),
                f"{name}_{direction}",
            )
        assert np.array_equal(
            transposed.flags[f"degenerate_{direction}"], table.flags[f"degenerate_{other}"]
        )


@given(count_matrices(), st.data())
def test_permuting_journal_ids_permutes_every_column(counts, data):
    n = len(counts)
    perm = np.array(data.draw(st.permutations(range(n))))  # journal j becomes perm[j]
    relabelled = np.empty_like(counts)
    relabelled[np.ix_(perm, perm)] = counts
    table, permuted = table_of(counts), table_of(relabelled)
    assert len(table.columns) == len(INDICATORS) * 2 + 2
    for name, column in table.columns.items():
        assert_close(permuted.column(name)[perm], column, name)
    for name, flag in table.flags.items():
        assert np.array_equal(permuted.flags[name][perm], flag)


@given(count_matrices(), st.integers(2, 1000))
def test_scaling_every_count_leaves_distribution_indicators_unchanged(counts, k):
    table, scaled = table_of(counts), table_of(counts * k)
    for indicator in INDICATORS:
        if indicator.family == "vector" or indicator.diversity:
            for direction in ("cited", "citing"):
                name = f"{indicator.name}_{direction}"
                # relative, with a floor for the cancellation in the 1 - cosine
                # form: without it, 3,000 examples found 6.8e-4 off by 7.8e-16
                np.testing.assert_allclose(
                    scaled.column(name), table.column(name), rtol=TOL, atol=1e-15, err_msg=name
                )


@given(count_matrices())
def test_edge_list_and_matrix_market_give_identical_tables(counts):
    # the edge list numbers journals by first appearance, citing name first;
    # the Matrix Market file and its names sidecar list them in that order
    cited, citing = np.nonzero(counts)
    order = list(dict.fromkeys(x for pair in zip(citing, cited) for x in pair))
    assume(len(order) == len(counts))  # every journal appears in some cell
    with tempfile.TemporaryDirectory() as tmp:
        edges, mtx, names = Path(tmp, "e.csv"), Path(tmp, "m.mtx"), Path(tmp, "names.txt")
        edges.write_text(
            "citing,cited,count\n"
            + "".join(f"J{j},J{i},{counts[i, j]}\n" for i, j in zip(cited, citing)),
            encoding="utf-8",
        )
        scipy.io.mmwrite(str(mtx), sp.coo_matrix(counts[np.ix_(order, order)]), field="integer")
        names.write_text("".join(f"J{j}\n" for j in order), encoding="utf-8")
        from_edges = indicator_table(*reversed(load_edge_list(edges)))
        from_mtx = indicator_table(*reversed(load_matrix_market(mtx, names)))
    assert from_edges.names == from_mtx.names
    assert from_edges.columns.keys() == from_mtx.columns.keys()
    for name, column in from_edges.columns.items():
        assert np.array_equal(from_mtx.column(name), column, equal_nan=True), name
    for name, flag in from_edges.flags.items():
        assert np.array_equal(from_mtx.flags[name], flag), name


@given(count_matrices(), st.sampled_from(list(Direction)), st.data())
def test_cosine_matrix_is_symmetric_and_binarizes_without_symmetrizing(counts, axis, data):
    rows, cols = np.nonzero(counts)
    cos = cosine_matrix(CitationMatrix(len(counts), rows, cols, counts[rows, cols]), axis)
    assert np.array_equal(cos.toarray(), cos.T.toarray())  # bitwise
    # a threshold at a cell's own value is where an asymmetric pair would split
    ties = sorted(set(cos.data[cos.data < 1.0])) or [0.0]
    threshold = data.draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(ties)))
    want = binarize_symmetrized(cos, threshold)
    got = binarize(cos, threshold).adjacency
    assert got.dtype == bool and np.array_equal(got.toarray(), want.toarray())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 48),
    st.sampled_from([0.03, 0.08, 0.3]),
    st.booleans(),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_betweenness_is_the_full_product_recurrence_at_any_jobs(n, p, directed, batch_size, seed):
    # every product form on either adjacency format gives the bits of the
    # recurrence's full float64 products, batch by batch, at any thread count
    adj = np.random.default_rng(seed).random((n, n)) < p
    np.fill_diagonal(adj, False)
    if not directed:
        adj |= adj.T
    graph = BinaryGraph(n=n, directed=directed, adjacency=sp.csr_matrix(adj))
    full = adj.astype(np.float64)
    if graph.adjacency.nnz > DENSE_DENSITY * n * n:
        full_t = np.ascontiguousarray(full.T)
    else:
        full = sp.csr_matrix(full)
        full_t = full.T.tocsr()
    want = np.zeros(n)
    for start in range(0, n, batch_size):
        want += brandes_batch_every_level(full, full_t, np.arange(start, min(start + batch_size, n)))
    if not directed:
        want /= 2.0
    for jobs in (1, 3):
        assert np.array_equal(betweenness(graph, jobs, batch_size), want), jobs


@st.composite
def diversity_matrices(draw) -> np.ndarray:
    """Count matrices with the awkward cases made likely: empty rows and
    columns, journals that cite only themselves, and partners whose vectors
    are parallel on either axis."""
    counts = draw(count_matrices())
    journal = st.integers(0, len(counts) - 1)
    for _ in range(draw(st.integers(0, 3))):
        case = draw(st.sampled_from(["empty_row", "empty_col", "self_only", "parallel"]))
        j, k, scale = draw(journal), draw(journal), draw(st.integers(1, 4))
        if case == "empty_row":
            counts[j] = 0
        elif case == "empty_col":
            counts[:, j] = 0
        elif case == "self_only":
            counts[j] = counts[:, j] = 0
            counts[j, j] = scale
        elif draw(st.booleans()):
            counts[j] = scale * counts[k]
        else:
            counts[:, j] = scale * counts[:, k]
    assume(counts.any())
    return counts


@given(diversity_matrices())
def test_diversity_all_matches_the_naive_double_sum(counts):
    rows, cols = np.nonzero(counts)
    matrix = CitationMatrix(len(counts), rows, cols, counts[rows, cols])
    for direction in ("cited", "citing"):
        axis = matrix.axis_matrix(direction).toarray().astype(np.float64)
        for metric in ("one_minus_cosine", "relative_euclidean"):
            dist = distance_matrix(matrix, direction, metric)
            for exclude_self in (False, True):
                label = f"{direction} {metric} exclude_self={exclude_self}"
                full = diversity_all(matrix, direction, metric, exclude_self)
                half = diversity_all(matrix, direction, metric, exclude_self, triangle_sum=True)
                for j, (r, h) in enumerate(zip(full, half)):
                    w = axis[j].copy()
                    assert r.missing == (not w.any()), label
                    assert r.degenerate == (not np.delete(w, j).any()), label
                    if exclude_self:
                        w[j] = 0.0
                    ids = np.flatnonzero(w)
                    block = dist[np.ix_(ids, ids)]
                    undefined = np.isnan(block)
                    np.fill_diagonal(undefined, False)
                    want = naive_rao(w[ids] / w.sum(), block) if ids.size else 0.0
                    assert abs(r.d_value - want) <= TOL, label
                    assert r.undefined_pairs == np.count_nonzero(undefined), label
                    assert h.d_value == r.d_value / 2.0, label
                    assert (h.degenerate, h.missing, h.undefined_pairs) == (
                        r.degenerate, r.missing, r.undefined_pairs), label


MM_FIELDS = ["integer", "real", "double", "complex", "pattern", "unsigned-integer"]
MM_SYMMETRIES = ["general", "symmetric", "skew-symmetric", "hermitian"]
# pieces of plausible and broken lines, so the tail often parses part-way
TOKENS = [b"1", b"2", b"3", b"0", b"-1", b"2.5", b"1e400", b"nan", b"inf", b"99999999999999999999",
          b"A", b"B", b"citing", b" ", b",", b"\t", b"\n", b"\r\n", b'"', b"%", b"\xff", b"\xef\xbb\xbf"]


@st.composite
def loader_inputs(draw) -> bytes:
    """Arbitrary bytes, alone or after an edge-list header or a coordinate
    banner and size line."""
    kind = draw(st.sampled_from(["bare", "edges", "matrix_market"]))
    if kind == "bare":
        prefix = b""
    elif kind == "edges":
        prefix = b"citing,cited,count\n"
    else:
        size = " ".join(str(draw(st.integers(0, 4))) for _ in range(3))
        prefix = (f"%%MatrixMarket matrix coordinate {draw(st.sampled_from(MM_FIELDS))} "
                  f"{draw(st.sampled_from(MM_SYMMETRIES))}\n{size}\n").encode()
    tail = draw(st.one_of(st.binary(max_size=120),
                          st.lists(st.sampled_from(TOKENS), max_size=40).map(b"".join)))
    return prefix + tail


@given(loader_inputs())
def test_loaders_raise_only_interdisc_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "input")
        path.write_bytes(data)
        for load in (load_edge_list, load_matrix_market):
            with suppress(InterdiscError):
                load(path)


RUN_OPTIONS = [
    ["--cosine-threshold", "0.3"], ["--gini-include-zeros"],
    ["--triangle-sum"], ["--exclude-self-citations-from-p"],
]
SCOPE_OPTIONS = [["--directions", "citing"], ["--metrics", "relative_euclidean"]]
STATS_OPTIONS = [["--include-degenerate"], ["--columns", "entropy_cited,betweenness_cosine_citing"]]
# each command with the arguments it needs and the pool its options come from
COMMANDS = {
    "indicators": ([], RUN_OPTIONS + SCOPE_OPTIONS),
    "rank": (
        ["rao_stirling_relative_euclidean"],
        RUN_OPTIONS + [["--direction", "citing"], ["--top", "2"], ["--include-degenerate"],
                       ["--append-journal", "J1"], ["--sqrt"]],
    ),
    "correlate": ([], RUN_OPTIONS + STATS_OPTIONS),
    "factor": ([], RUN_OPTIONS + STATS_OPTIONS + [["-k", "2"]]),
    "subset": (["--ids", "0,2"], RUN_OPTIONS + SCOPE_OPTIONS + [["--mode", "local_submatrix"]]),
    "export-matrix": (
        [],
        [["--kind", "cooccurrence"], ["--kind", "one_minus_cosine"],
         ["--kind", "relative_euclidean"], ["--axis", "citing"]],
    ),
}


def _no_constant(token: str):
    raise AssertionError(f"{token} in a JSON report")


@settings(max_examples=150)
@given(
    st.sampled_from(sorted(COMMANDS)),
    st.data(),
    hnp.arrays(np.int64, st.integers(2, 5).map(lambda n: (n, n)), elements=st.integers(0, 3),
               fill=st.nothing()),
    st.sampled_from(["edges", "matrix_market"]),
    st.sampled_from([None, None, 2, 4]),
    st.sampled_from([False, False, False, True]),
)
def test_every_command_exits_with_a_code_and_whole_reports(
    command, data, counts, form, min_count, zeroed
):
    if zeroed:  # all-zero inputs: a header-only edge list, a Matrix Market file of zeros
        counts[:] = 0
    needed, pool = COMMANDS[command]
    options = data.draw(st.lists(st.sampled_from(pool), max_size=3, unique_by=tuple))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        argv = [command, *needed, *(part for option in options for part in option)]
        argv += ["--out", f"{out}.mtx"] if command == "export-matrix" else ["--outdir", str(out)]
        cited, citing = np.nonzero(counts)
        if form == "edges":
            path = Path(tmp, "e.csv")
            path.write_text(
                "citing,cited,count\n"
                + "".join(f"J{j},J{i},{counts[i, j]}\n" for i, j in zip(cited, citing)),
                encoding="utf-8",
            )
            argv += ["--edges", str(path)]
            if min_count:  # 4 drops every cell
                argv += ["--min-count", str(min_count)]
        else:  # every cell written, zeros included
            path = Path(tmp, "m.mtx")
            n = len(counts)
            path.write_text(
                f"%%MatrixMarket matrix coordinate integer general\n{n} {n} {n * n}\n"
                + "".join(f"{i + 1} {j + 1} {c}\n" for (i, j), c in np.ndenumerate(counts)),
                encoding="utf-8",
            )
            argv += ["--matrix-market", str(path)]
        code, stdout, stderr, reports = _run_command([*argv, "--jobs", "1"], out)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in stderr + stdout, argv
        if code:
            assert not reports, (argv, stderr)
            return
        assert reports, argv
        for report in reports:
            text = report.read_text(encoding="utf-8")
            if report.suffix == ".csv":
                lines = [line for line in text.splitlines() if not line.startswith("#")]
                rows = list(csv.reader(lines))
                assert rows and all(len(row) == len(rows[0]) for row in rows), (argv, report.name)
            elif report.suffix == ".json":
                json.loads(text, parse_constant=_no_constant)
        # three threads write the same bytes, but for the jobs value in the config
        one_thread = {report.name: report.read_bytes() for report in reports}
        for report in reports:
            report.unlink()
        code, _, stderr, reports = _run_command([*argv, "--jobs", "3"], out)
        assert code == 0, (argv, stderr)
        three_threads = {
            report.name: report.read_bytes().replace(b'"jobs": 3', b'"jobs": 1') for report in reports
        }
        assert three_threads == one_thread, argv


def _run_command(argv: list[str], out: Path) -> tuple[int, str, str, list[Path]]:
    """`main(argv)`'s exit code, stdout and stderr, and the reports it wrote
    into the directory `out` or to `out.mtx`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    reports = sorted(out.iterdir()) if out.is_dir() else []
    if Path(f"{out}.mtx").exists():
        reports.append(Path(f"{out}.mtx"))
    return code, stdout.getvalue(), stderr.getvalue(), reports

