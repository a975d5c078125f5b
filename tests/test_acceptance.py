"""Acceptance suite: one test per shipping criterion, in order.

Each test prints a single PASS line on success (pytest -s shows them); any
assertion failure marks the criterion red.  Tolerances are pinned here and
nowhere else.
"""

import json
import os
import resource
import time

import numpy as np
import pytest

from conftest import cited_by_partners, random_sparse_counts
from interdisc import centrality
from interdisc.centrality import betweenness, normalize_betweenness
from interdisc.cli import main as cli_main
from interdisc.corpus import CitationMatrix, Direction, JournalRegistry, load_edge_list
from interdisc.diversity import diversity_all
from interdisc.netspace import (
    BinaryGraph,
    binarize,
    cooccurrence,
    cosine_matrix,
    distance_matrix,
)
from interdisc.pipeline import RunConfig, compute_indicator_table
from interdisc.stats import (
    rank_column,
    spearman,
    varimax,
    varimax_criterion,
)
from interdisc.synth import generate, uniform_spec, write_corpus
from interdisc.vector_indicators import (
    entropy_normalized_from_counts,
    gini_from_counts,
    gini_normalized_from_counts,
    shannon_entropy_from_counts,
)
from oracles import (
    brute_betweenness,
    entropy_direct,
    gini_pairwise,
    naive_rao,
    naive_spearman,
    varimax_grid_criterion,
)

import scipy.sparse as sp


def _graph(adj: np.ndarray, directed: bool) -> BinaryGraph:
    adj = np.asarray(adj, dtype=bool).copy()
    if not directed:
        adj |= adj.T
    np.fill_diagonal(adj, False)
    return BinaryGraph(n=adj.shape[0], directed=directed, adjacency=sp.csr_matrix(adj))


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_betweenness_oracle():
    start = time.time()
    rng = np.random.default_rng(1001)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 9))
        adj = rng.random((n, n)) < 0.3
        np.fill_diagonal(adj, False)
        directed = bool(trial % 2)
        got = betweenness(_graph(adj, directed))
        want = brute_betweenness(adj, directed)
        assert np.allclose(got, want, atol=1e-9), f"trial {trial}"
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    _report(1, f"Brandes matches exhaustive enumeration on {checked} graphs "
               f"(<=1e-9, {elapsed:.1f}s)")


def test_criterion_02_edge_set_and_centrality_equivalence():
    rng = np.random.default_rng(1002)
    matrices = 0
    exact_rho = 0
    while matrices < 50:
        n = int(rng.integers(4, 41))
        rows, cols, counts = random_sparse_counts(rng, n, density=0.12)
        if len(rows) == 0:
            continue
        matrices += 1
        m = CitationMatrix(n, rows, cols, counts)
        for axis in (Direction.CITED, Direction.CITING):
            g_cos = binarize(cosine_matrix(m, axis))
            g_coc = binarize(cooccurrence(m, axis))
            assert np.array_equal(
                g_cos.adjacency.toarray(), g_coc.adjacency.toarray()
            ), "edge sets differ"
            b_cos = betweenness(g_cos)
            b_coc = betweenness(g_coc)
            assert np.allclose(b_cos, b_coc, atol=1e-9)
            if not np.all(b_cos == b_cos[0]):
                rho = spearman(b_cos, b_coc).rho
                assert rho == 1.0, f"rho {rho!r} not exactly 1.0"
                exact_rho += 1
            else:
                # constant scores carry no ranking; identity already checked
                assert np.array_equal(b_cos, b_coc)
    assert exact_rho > 0
    _report(2, f"cosine and co-occurrence graphs identical on {matrices} matrices; "
               f"betweenness agrees <=1e-9, Spearman rho exactly 1.0 ({exact_rho} ranked cases)")


def test_criterion_03_gini_oracle():
    rng = np.random.default_rng(1003)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        x = rng.integers(1, 1000, size=n).astype(float)
        assert abs(gini_from_counts(x) - gini_pairwise(x)) <= 1e-12
    assert gini_from_counts([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-15)
    assert gini_normalized_from_counts([1, 2, 3, 4]) == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )
    _report(3, "Gini matches the pairwise oracle on 1000 vectors (<=1e-12); "
               "[1,2,3,4] -> 0.25, normalized 1/3")


def test_criterion_04_entropy_bounds_and_anchor():
    h = shannon_entropy_from_counts(np.ones(8207))
    assert abs(h - 13.00) <= 0.005, f"uniform-8207 entropy {h}"
    rng = np.random.default_rng(1004)
    for _ in range(1000):
        n = int(rng.integers(1, 120))
        x = rng.integers(1, 500, size=n).astype(float)
        assert shannon_entropy_from_counts(x) <= np.log2(max(n, 2)) + 1e-12
    for n in (2, 3, 7, 10, 64, 501):
        for c in (1, 4, 9):
            assert entropy_normalized_from_counts(np.full(n, c)) == 1.0
    _report(4, f"uniform-8207 entropy {h:.4f} bits (13.00 +/- 0.005); "
               "H <= log2(n) on 1000 vectors; normalized uniform exactly 1.0")


@pytest.mark.filterwarnings("ignore:.*undefined distances")
def test_criterion_05_rao_stirling():
    rng = np.random.default_rng(1005)
    # naive double-loop equivalence on every journal of random corpora
    for _ in range(300):
        n = int(rng.integers(1, 21))
        rows, cols, counts = random_sparse_counts(rng, n, density=0.3)
        if len(rows) == 0:
            continue
        m = CitationMatrix(n, rows, cols, counts)
        axis = m.axis_matrix(Direction.CITED)
        for metric in ("one_minus_cosine", "relative_euclidean"):
            dist = distance_matrix(m, Direction.CITED, metric)
            for r in diversity_all(m, Direction.CITED, metric):
                lo, hi = axis.indptr[r.journal_id], axis.indptr[r.journal_id + 1]
                ids, x = axis.indices[lo:hi], axis.data[lo:hi].astype(float)
                want = naive_rao(x / x.sum(), dist[np.ix_(ids, ids)]) if ids.size else 0.0
                assert abs(r.d_value - want) <= 1e-12
    # Gini-Simpson reduction: journal 0's partners 1..s are cited by journals
    # s+1..2s, one each, so every two are at 1 - cosine = 1
    for _ in range(300):
        s = int(rng.integers(2, 21))
        x = rng.integers(1, 1000, size=s)
        p = x / x.sum()
        m = cited_by_partners(x, [[s + i] for i in range(1, s + 1)])
        value = diversity_all(m, Direction.CITED, "one_minus_cosine")[0].d_value
        assert abs(value - (1.0 - (p**2).sum())) <= 1e-12

    # scale invariance of the full pipeline value under c = 1000 (counts
    # stay integral) ...
    rows, cols, counts = random_sparse_counts(rng, 30, density=0.25)
    base = CitationMatrix(30, rows, cols, counts)
    scaled = CitationMatrix(30, rows, cols, counts * 1000)
    base_vals = {
        r.journal_id: r.d_value
        for r in diversity_all(base, Direction.CITED, "one_minus_cosine")
        if not r.missing
    }
    scaled_vals = {
        r.journal_id: r.d_value
        for r in diversity_all(scaled, Direction.CITED, "one_minus_cosine")
        if not r.missing
    }
    for jid, v in base_vals.items():
        assert abs(v - scaled_vals[jid]) <= 1e-12
    # ... and of the probability construction itself for c in {1e-3, 1, 1e3}
    dist = distance_matrix(base, Direction.CITED, "one_minus_cosine")
    axis = base.axis_matrix(Direction.CITED)
    per_scale = {}
    for c in (1e-3, 1.0, 1e3):
        values = {}
        for jid in range(30):
            lo, hi = axis.indptr[jid], axis.indptr[jid + 1]
            if hi - lo < 1:
                continue
            x = axis.data[lo:hi].astype(float) * c
            p = x / x.sum()
            ids = axis.indices[lo:hi]
            values[jid] = naive_rao(p, dist[np.ix_(ids, ids)])
        per_scale[c] = values
    reference = per_scale[1.0]
    ref_rank = sorted(reference, key=lambda j: reference[j])
    for c, values in per_scale.items():
        for jid, v in values.items():
            assert abs(v - reference[jid]) <= 1e-12, f"c={c}"
        assert sorted(values, key=lambda j: values[j]) == ref_rank

    # bounds on 1000 random journals
    rows, cols, counts = random_sparse_counts(
        np.random.default_rng(1055), 1000, density=0.01
    )
    big = CitationMatrix(1000, rows, cols, counts)
    results = diversity_all(big, Direction.CITED, "one_minus_cosine")
    bounded = [r for r in results if not r.missing]
    assert len(bounded) >= 900
    for r in bounded:
        assert 0.0 <= r.d_value <= 1.0
    _report(5, "diversity matches the naive double loop and Gini-Simpson "
               "reduction (<=1e-12); scale-invariant in value and rank; "
               f"D in [0,1] on {len(bounded)} random journals")


def test_criterion_06_spearman():
    rng = np.random.default_rng(1006)
    for _ in range(100):
        x = rng.random(40)
        assert spearman(x, 10.0 ** x).rho == 1.0
        assert spearman(x, -np.sqrt(x)).rho == -1.0
    checked = 0
    while checked < 500:
        n = int(rng.integers(4, 60))
        x = rng.integers(0, 8, size=n).astype(float)
        y = rng.integers(0, 8, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        checked += 1
        assert abs(spearman(x, y).rho - naive_spearman(x, y)) <= 1e-12
    _report(6, "Spearman is exactly +/-1 on monotone transforms and matches "
               f"the rank-then-Pearson oracle on {checked} tied vectors (<=1e-12)")


def test_criterion_07_varimax():
    rng = np.random.default_rng(1007)
    for _ in range(100):
        p = int(rng.integers(4, 13))
        k = int(rng.integers(2, 5))
        loadings = rng.normal(size=(p, k))
        solution = varimax(loadings)
        r = solution.rotation
        assert np.abs(r.T @ r - np.eye(k)).max() <= 1e-8
        communality_drift = np.abs(
            (loadings**2).sum(axis=1) - (solution.loadings**2).sum(axis=1)
        ).max()
        assert communality_drift <= 1e-8
    for _ in range(25):
        loadings = rng.normal(size=(6, 2))
        solution = varimax(loadings, kaiser_normalize=False)
        best, _ = varimax_grid_criterion(loadings, resolution=1e-4)
        assert abs(varimax_criterion(solution.loadings) - best) <= 1e-6
    pattern = np.array(
        [[0.9, 0.0], [0.8, 0.0], [0.85, 0.0], [0.0, 0.7], [0.0, 0.6], [0.0, 0.65]]
    )
    solution = varimax(pattern)
    assert np.abs(solution.rotation - np.eye(2)).max() <= 1e-6
    _report(7, "varimax keeps rotations orthogonal and communalities intact "
               "(<=1e-8, 100 matrices); k=2 criterion matches the angle grid "
               "(<=1e-6); identity patterns stay put")


PLANTED_SEED = 42


def _planted_corpus(tmp_path):
    spec = uniform_spec(
        [30, 30, 30],
        within_rate=0.7,
        leakage_rate=0.02,
        n_bridges=2,
        n_generalists=1,
        generalist_volume=12.0,
        seed=PLANTED_SEED,
    )
    corpus = generate(spec)
    edges = tmp_path / "edges.csv"
    truth = tmp_path / "synth_truth.json"
    write_corpus(corpus, edges, truth)
    return corpus, edges, truth


def test_criterion_08_planted_structure_recovery(tmp_path):
    start = time.time()
    corpus, edges, _ = _planted_corpus(tmp_path)
    registry, matrix = load_edge_list(edges)
    table = compute_indicator_table(matrix, registry, RunConfig())

    bridge_ids = [registry.get(corpus.names[b]) for b in corpus.bridge_ids]
    generalist = registry.get(corpus.names[corpus.generalist_ids[0]])

    betw_ranks = rank_column(table.column("betweenness_cosine_cited"), "descending")
    assert all(betw_ranks[b] <= 5 for b in bridge_ids), (
        f"bridge cosine-cited betweenness ranks {[betw_ranks[b] for b in bridge_ids]}"
    )
    div_ranks = rank_column(
        table.column("rao_stirling_one_minus_cosine_citing"), "descending"
    )
    assert all(div_ranks[b] <= 5 for b in bridge_ids), (
        f"bridge diversity ranks {[div_ranks[b] for b in bridge_ids]}"
    )
    entropy_ranks = rank_column(table.column("entropy_cited"), "descending")
    assert entropy_ranks[generalist] <= 3, f"generalist entropy rank {entropy_ranks[generalist]}"
    gini_ranks = rank_column(table.column("gini_cited"), "ascending")
    assert gini_ranks[generalist] > 10, f"generalist gini rank {gini_ranks[generalist]}"

    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    _report(8, "planted bridges top-5 in cosine-cited betweenness and citing "
               "diversity; generalist top-3 by raw entropy but rank "
               f"{int(gini_ranks[generalist])} by Gini ({elapsed:.1f}s)")


def test_criterion_09_sign_structure(tmp_path):
    _, edges, _ = _planted_corpus(tmp_path)
    registry, matrix = load_edge_list(edges)
    table = compute_indicator_table(
        matrix, registry, RunConfig(directions=("cited",), metrics=())
    )
    rho = spearman(table.column("gini_cited"), table.column("entropy_cited")).rho
    assert rho < -0.5, f"Spearman(gini, entropy) = {rho:.3f}"
    _report(9, f"Spearman(gini_cited, entropy_cited) = {rho:.3f} < -0.5 on the planted corpus")


def test_criterion_11_determinism(tmp_path):
    # numbered 11 in the criteria list but cheap, so it runs before the
    # scale test; it reuses criterion 8's pipeline end to end via the CLI
    _, edges, _ = _planted_corpus(tmp_path)
    out = tmp_path / "run"
    argv = ["indicators", "--edges", str(edges), "--outdir", str(out)]
    assert cli_main(argv) == 0
    names = ["indicators_cited.csv", "indicators_citing.csv", "indicators.json"]
    rank_argv = ["rank", "entropy", "--edges", str(edges), "--outdir", str(out)]
    assert cli_main(rank_argv) == 0
    names.append("ranking_entropy.csv")
    snapshot = {name: (out / name).read_bytes() for name in names}
    assert cli_main(argv) == 0
    assert cli_main(rank_argv) == 0
    for name in names:
        assert (out / name).read_bytes() == snapshot[name], f"{name} differs"
    _report(11, "two identical pipeline runs produced byte-identical CSV/JSON reports")


def _two_hop_betweenness(adj: np.ndarray, nodes: np.ndarray, height: int = 1024) -> np.ndarray:
    """Asserts that the undirected boolean graph `adj` has diameter <= 2, and
    returns the betweenness that gives each of `nodes`: the sum of
    1 / |N(s) & N(t)| over the non-adjacent pairs s < t of its neighbours.

    Common-neighbour counts are formed in blocks of rows of A.A, in float32
    (exact below 2**24), over the blocks on and above the diagonal.
    """
    n = len(adj)
    member = adj[nodes].astype(np.float64)  # each node's neighbours
    scores = np.zeros(len(nodes))
    for r0 in range(0, n, height):
        rows = np.arange(r0, min(r0 + height, n))
        left = adj[rows].astype(np.float32)
        for c0 in range(r0, n, height):
            cols = np.arange(c0, min(c0 + height, n))
            common = left @ adj[cols].astype(np.float32).T
            pairs = ~adj[np.ix_(rows, cols)] & (rows[:, None] < cols[None, :])
            assert np.all(common[pairs] > 0), "a pair of nodes at distance 3 or more"
            inverse = np.divide(1.0, common, out=np.zeros(common.shape), where=pairs,
                                dtype=np.float64)
            scores += ((member[:, rows] @ inverse) * member[:, cols]).sum(axis=1)
    return scores


def _explicit_relative_euclidean(axis: sp.csr_matrix, journal: int) -> float:
    """`naive_rao` of a journal's distribution over its partners' distances,
    each the norm of the difference of two probability-normalized vectors."""
    lo, hi = axis.indptr[journal], axis.indptr[journal + 1]
    ids, counts = axis.indices[lo:hi], axis.data[lo:hi].astype(np.float64)
    q = axis[ids].toarray().astype(np.float64)
    q /= q.sum(axis=1, keepdims=True)
    distances = np.array([np.sqrt(((q - q[a]) ** 2).sum(axis=1)) for a in range(len(ids))])
    return naive_rao(counts / counts.sum(), distances)


@pytest.mark.slow
def test_criterion_10_scale(monkeypatch):
    jobs = min(8, os.cpu_count() or 1)
    spec = uniform_spec(
        [265] * 30,
        within_rate=0.92,
        leakage_rate=0.02,
        n_bridges=36,
        n_generalists=4,
        generalist_volume=8.0,
        seed=1,
    )
    corpus = generate(spec)
    n = len(corpus.names)
    matrix = CitationMatrix(n, corpus.cited, corpus.citing, corpus.counts)
    assert n >= 7900
    assert matrix.nnz >= 1_400_000, f"only {matrix.nnz} cells"

    registry = JournalRegistry()
    for name in corpus.names:
        registry.add(name)
    runs = []  # (graph, seconds) of each betweenness run in the pipeline

    def timed_betweenness(graph, **options):
        start = time.time()
        scores = betweenness(graph, **options)
        runs.append((graph, time.time() - start))
        return scores

    monkeypatch.setattr(centrality, "betweenness", timed_betweenness)
    start = time.time()
    config = RunConfig(jobs=jobs)
    table = compute_indicator_table(matrix, registry, config)
    pipeline_elapsed = time.time() - start
    pipeline_peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    per_direction = [c for c in table.columns if c.endswith("_cited")]
    assert len([c for c in per_direction if c != "support_cited"]) == 12
    assert table.journal_ids == list(range(n))
    # the raw graph, then the cited and the citing co-occurrence graphs
    assert [graph.directed for graph, _ in runs] == [True, False, False]
    times = [elapsed for _, elapsed in runs]
    assert max(times) < 900.0, f"betweenness runs took {times}"

    for axis, (graph, _) in zip((Direction.CITED, Direction.CITING), runs[1:]):
        column = table.column(f"betweenness_cosine_{axis.value}")
        assert np.all(column >= 0)
        # on a graph of diameter 2 every non-adjacent pair adds exactly 1
        adj = graph.adjacency.toarray()
        order = np.argsort(adj.sum(axis=1), kind="stable")
        nodes = order[[0, n // 4, n // 2, 3 * n // 4, n - 1]]  # degree quantiles
        two_hop = _two_hop_betweenness(adj, nodes)
        del adj
        non_adjacent = n * (n - 1) // 2 - graph.edge_count
        assert column.sum() == pytest.approx(non_adjacent, rel=1e-12)
        np.testing.assert_allclose(column[nodes], two_hop, rtol=1e-12, atol=0)

        values = table.column(f"rao_stirling_relative_euclidean_{axis.value}")
        vectors = matrix.axis_matrix(axis)
        support = np.diff(vectors.indptr)
        small = np.flatnonzero((support > 1) & (support <= 300))
        sampled = small[np.argsort(support[small], kind="stable")[[0, len(small) // 2, -1]]]
        for journal in sampled:
            want = _explicit_relative_euclidean(vectors, journal)
            assert values[journal] == pytest.approx(want, abs=1e-12), journal

        # the vector columns at the least and the median support; the
        # generalists' thousands of cells are too many for the pairwise Gini
        filled = np.flatnonzero(support > 0)
        sampled = filled[np.argsort(support[filled], kind="stable")[[0, len(filled) // 2]]]
        for journal in sampled:
            x = vectors.data[vectors.indptr[journal] : vectors.indptr[journal + 1]].astype(float)
            s = x.size
            gini, entropy = gini_pairwise(x), entropy_direct(x)
            want = {
                "gini": gini,
                "gini_normalized": gini * s / (s - 1) if s > 1 else 0.0,
                "entropy": entropy,
                "entropy_normalized": entropy / np.log2(s) if s > 1 else 0.0,
            }
            for name, value in want.items():
                got = table.column(f"{name}_{axis.value}")[journal]
                assert got == pytest.approx(value, abs=1e-12), (name, journal)

    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    assert peak_gb < 16.0, f"peak RSS {peak_gb:.1f} GB"
    raw_s, cited_s, citing_s = times
    _report(10, f"n={n}, {matrix.nnz} cells: full 12-indicator pipeline "
                f"{pipeline_elapsed:.0f}s, process peak {pipeline_peak_gb:.2f} GB "
                f"after it; its betweenness runs took {raw_s:.0f}s raw, {cited_s:.0f}s "
                f"cited and {citing_s:.0f}s citing co-occurrence on {jobs} workers "
                "(<900s each), diameter 2, sums and values at five degree quantiles exact, "
                "vector columns at the least and median support match the oracles; "
                f"peak {peak_gb:.2f} GB (<16)")
