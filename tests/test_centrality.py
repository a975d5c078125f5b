import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from conftest import indicator_table, random_sparse_counts
from interdisc import centrality
from interdisc.centrality import (
    DENSE_DENSITY,
    _dependencies,
    betweenness,
    normalize_betweenness,
)
from interdisc.corpus import CitationMatrix, Direction
from interdisc.netspace import BinaryGraph, binarize, binarize_directed, cooccurrence_support
from oracles import brandes_batch_every_level, brute_betweenness

BETWEENNESS_COLUMNS = [
    f"betweenness_{kind}_{direction}"
    for kind in ("citations", "citations_normalized", "cosine", "cosine_normalized")
    for direction in ("cited", "citing")
]


def graph_from_dense(adj, directed: bool) -> BinaryGraph:
    adj = np.asarray(adj, dtype=bool)
    if not directed:
        adj = adj | adj.T
    np.fill_diagonal(adj, False)
    return BinaryGraph(n=adj.shape[0], directed=directed, adjacency=sp.csr_matrix(adj))


def runs_dense(graph: BinaryGraph) -> bool:
    return graph.adjacency.nnz > DENSE_DENSITY * graph.n * graph.n


class TestSmallGraphs:
    def test_path_graph(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 2] = True
        scores = betweenness(graph_from_dense(adj, directed=False))
        assert np.allclose(scores, [0.0, 1.0, 0.0])

    def test_star_four_leaves(self):
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 1:] = True
        scores = betweenness(graph_from_dense(adj, directed=False))
        assert scores[0] == pytest.approx(6.0, abs=1e-12)
        assert np.allclose(scores[1:], 0.0)
        assert scores[0] == pytest.approx(
            brute_betweenness(adj, directed=False)[0], abs=1e-12
        )

    def test_complete_graph(self):
        adj = ~np.eye(5, dtype=bool)
        scores = betweenness(graph_from_dense(adj, directed=False))
        assert np.allclose(scores, 0.0)

    def test_directed_cycle(self):
        adj = np.zeros((4, 4), dtype=bool)
        for i in range(4):
            adj[i, (i + 1) % 4] = True
        scores = betweenness(graph_from_dense(adj, directed=True))
        assert np.allclose(scores, brute_betweenness(adj, directed=True), atol=1e-12)

    def test_isolated_and_degree_one_nodes_zero(self):
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 1] = adj[1, 2] = True  # node 3, 4 isolated; 0 and 2 degree-1
        scores = betweenness(graph_from_dense(adj, directed=False))
        assert scores[0] == scores[2] == scores[3] == scores[4] == 0.0


class TestBruteForceEquivalence:
    def test_random_graphs_both_orientations(self):
        rng = np.random.default_rng(99)
        for trial in range(200):
            n = int(rng.integers(2, 9))
            adj = rng.random((n, n)) < 0.3
            np.fill_diagonal(adj, False)
            directed = bool(trial % 2)
            got = betweenness(graph_from_dense(adj, directed=directed))
            want = brute_betweenness(adj, directed=directed)
            assert np.allclose(got, want, atol=1e-9), f"trial {trial}"

    def test_transpose_invariance_directed(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            adj = rng.random((n, n)) < 0.35
            np.fill_diagonal(adj, False)
            fwd = betweenness(graph_from_dense(adj, directed=True))
            rev = betweenness(graph_from_dense(adj.T, directed=True))
            assert np.allclose(fwd, rev, atol=1e-9)
            assert np.allclose(fwd, brute_betweenness(adj, directed=True), atol=1e-9)


class HeldAtFirstBatch:
    """A share's stop flag; its first check waits for the flag to be set, and
    every check appends what it saw to `checks`."""

    def __init__(self, stop, checks: list):
        self.stop, self.checks = stop, checks

    def is_set(self):
        if not self.checks:
            self.stop.wait(timeout=30)
        self.checks.append(self.stop.is_set())
        return self.checks[-1]


class InterruptedAtFirstBatch:
    """A stop flag for share 0, which runs in the calling thread; its first
    check raises KeyboardInterrupt there, as a SIGINT would."""

    def is_set(self):
        raise KeyboardInterrupt


class TestDeterminismAndJobs:
    def test_repeated_runs_identical(self):
        rng = np.random.default_rng(23)
        adj = rng.random((60, 60)) < 0.1
        graph = graph_from_dense(adj, directed=False)
        a = betweenness(graph)
        b = betweenness(graph)
        assert np.array_equal(a, b)

    # 5 batches: workers take interleaved shares of 3 and 2, or of 2, 2 and 1;
    # 8 jobs are clipped to 5 workers of one batch each
    @pytest.mark.parametrize("jobs", [2, 3, 8])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("p, dense", [(0.05, False), (0.2, True)], ids=["sparse", "dense"])
    def test_jobs_do_not_change_results(self, p, dense, directed, jobs):
        rng = np.random.default_rng(24)
        adj = rng.random((150, 150)) < p
        graph = graph_from_dense(adj, directed=directed)
        assert runs_dense(graph) == dense
        sequential = betweenness(graph, jobs=1, batch_size=32)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose a shared write
        try:
            parallel = betweenness(graph, jobs=jobs, batch_size=32)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(sequential, parallel)

    def test_jobs_need_no_fork(self, monkeypatch):
        def no_fork():
            raise OSError("fork is not available")

        monkeypatch.setattr(os, "fork", no_fork)
        rng = np.random.default_rng(24)
        graph = graph_from_dense(rng.random((150, 150)) < 0.05, directed=True)
        assert not runs_dense(graph)
        sequential = betweenness(graph, jobs=1, batch_size=32)
        assert np.array_equal(sequential, betweenness(graph, jobs=2, batch_size=32))

    @pytest.mark.parametrize("failure", ["share", "caller"])
    def test_failure_stops_the_other_share_before_its_next_batch(self, monkeypatch, failure):
        # share 0 runs in the calling thread and share 1 in a pool thread; the
        # one that does not fail is held at its first batch until the flag is set
        rng = np.random.default_rng(24)
        graph = graph_from_dense(rng.random((150, 150)) < 0.05, directed=True)
        assert not runs_dense(graph)
        checks = []  # what the held share saw at each per-batch check of the stop flag
        dependencies = centrality._dependencies

        def share(adj, adj_t, batches, stop):
            if batches[0][0] == 0:
                if failure == "caller":
                    return dependencies(adj, adj_t, batches, InterruptedAtFirstBatch())
                return dependencies(adj, adj_t, batches, HeldAtFirstBatch(stop, checks))
            if failure == "share":
                raise RuntimeError("share 1 failed")
            return dependencies(adj, adj_t, batches, HeldAtFirstBatch(stop, checks))

        monkeypatch.setattr(centrality, "_dependencies", share)
        with pytest.raises(RuntimeError if failure == "share" else KeyboardInterrupt):
            betweenness(graph, jobs=2, batch_size=1)
        assert checks == [True]

    @pytest.mark.parametrize("p, jobs", [(0.05, 1), (0.2, 3)], ids=["sparse-jobs-1", "dense"])
    def test_a_single_share_stops_when_the_caller_is_interrupted(self, monkeypatch, p, jobs):
        # jobs=1 and dense graphs run one share, in the calling thread, where
        # the interrupt ends it; the run still leaves its stop flag set
        rng = np.random.default_rng(24)
        graph = graph_from_dense(rng.random((150, 150)) < p, directed=True)
        assert runs_dense(graph) == (p == 0.2)
        flags = []  # the stop flag of each share the run started
        dependencies = centrality._dependencies

        def share(adj, adj_t, batches, stop):
            flags.append(stop)
            return dependencies(adj, adj_t, batches, InterruptedAtFirstBatch())

        monkeypatch.setattr(centrality, "_dependencies", share)
        with pytest.raises(KeyboardInterrupt):
            betweenness(graph, jobs=jobs, batch_size=1)
        checks = [stop.is_set() for stop in flags]
        assert checks == [True]

    @pytest.mark.parametrize("p, jobs", [(0.05, 1), (0.2, 3)], ids=["sparse-jobs-1", "dense"])
    def test_a_single_share_runs_in_the_calling_thread(self, monkeypatch, p, jobs):
        rng = np.random.default_rng(24)
        graph = graph_from_dense(rng.random((150, 150)) < p, directed=True)
        assert runs_dense(graph) == (p == 0.2)
        calls = []  # (thread, live thread count) at each call of _dependencies
        dependencies = centrality._dependencies

        def share(*args):
            calls.append((threading.get_ident(), threading.active_count()))
            return dependencies(*args)

        before = threading.active_count()
        monkeypatch.setattr(centrality, "_dependencies", share)
        betweenness(graph, jobs=jobs, batch_size=32)
        assert calls == [(threading.get_ident(), before)]
        assert threading.active_count() == before

    def test_batch_size_does_not_change_results_beyond_tolerance(self):
        rng = np.random.default_rng(25)
        adj = rng.random((80, 80)) < 0.08
        graph = graph_from_dense(adj, directed=True)
        a = betweenness(graph, batch_size=16)
        b = betweenness(graph, batch_size=80)
        assert np.allclose(a, b, atol=1e-9)


def parted_graph(rng, parts: int, size: int, p: float, directed: bool) -> np.ndarray:
    """Random arcs inside `parts` blocks of `size` nodes, none between blocks,
    and two isolated nodes at the end."""
    n = parts * size + 2
    adj = np.zeros((n, n), dtype=bool)
    for k in range(parts):
        block = slice(k * size, (k + 1) * size)
        adj[block, block] = rng.random((size, size)) < p
    if not directed:
        adj |= adj.T
    np.fill_diagonal(adj, False)
    return adj


class TestDenseAndSparseAdjacency:
    """Graphs above DENSE_DENSITY run on an ndarray adjacency, the rest on
    CSR; both run the same recurrences."""

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize(
        "size, p, dense", [(10, 0.5, True), (14, 0.1, False)], ids=["dense", "sparse"]
    )
    def test_matches_oracle_with_disconnected_parts(self, size, p, dense, directed):
        rng = np.random.default_rng(41)
        for trial in range(6):
            adj = parted_graph(rng, 3, size, p, directed)
            graph = graph_from_dense(adj, directed=directed)
            assert runs_dense(graph) == dense, f"trial {trial}"
            got = betweenness(graph, batch_size=8)
            want = brute_betweenness(adj, directed=directed)
            assert np.allclose(got, want, atol=1e-9), f"trial {trial}"

    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_dependencies_same_on_ndarray_and_csr(self, directed):
        rng = np.random.default_rng(42)
        adj = parted_graph(rng, 2, 40, 0.15, directed).astype(np.float64)
        csr = sp.csr_matrix(adj)
        sources = np.arange(3, 40)
        (dense,) = _dependencies(adj, adj.T, [sources])
        (sparse,) = _dependencies(csr, csr.T.tocsr(), [sources])
        assert np.any(sparse > 0)
        np.testing.assert_allclose(dense, sparse, rtol=1e-12, atol=0)

    def test_blas_thread_count_changes_only_last_bits(self, tmp_path):
        # Only --jobs is bitwise: the dense backward sums are BLAS GEMMs whose
        # summation order depends on the thread count.
        script = (
            "import sys, numpy as np, scipy.sparse as sp\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from interdisc.centrality import DENSE_DENSITY, betweenness\n"
            "from interdisc.netspace import BinaryGraph\n"
            "adj = np.random.default_rng(43).random((400, 400)) < 0.08\n"
            "adj |= adj.T\n"
            "np.fill_diagonal(adj, False)\n"
            "assert adj.sum() > DENSE_DENSITY * adj.size\n"
            "graph = BinaryGraph(n=400, directed=False, adjacency=sp.csr_matrix(adj))\n"
            "np.save(sys.argv[1], betweenness(graph))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        scores = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.npy"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-c", script, str(out), src],
                env=env, check=True, timeout=120,
            )
            scores.append(np.load(out))
        assert np.any(scores[0] > 0)
        np.testing.assert_allclose(scores[0], scores[1], rtol=1e-12, atol=0)


def path_graph(length: int) -> np.ndarray:
    """Undirected path 0 - 1 - ... - length: depth `length` from node 0."""
    adj = np.zeros((length + 1, length + 1))
    for v in range(length):
        adj[v, v + 1] = adj[v + 1, v] = 1.0
    return adj


def star_graph(leaves: int) -> np.ndarray:
    adj = np.zeros((leaves + 1, leaves + 1))
    adj[0, 1:] = adj[1:, 0] = 1.0
    return adj


def complete_bipartite(a: int, b: int) -> np.ndarray:
    adj = np.zeros((a + b, a + b))
    adj[:a, a:] = adj[a:, :a] = 1.0
    return adj


def level_test_graphs() -> dict[str, tuple[np.ndarray, bool]]:
    """Float64 adjacency and directedness of graphs with unreachable nodes,
    isolated sources, self-arcs and a BFS deeper than 5."""
    rng = np.random.default_rng(44)
    graphs = {}
    for directed in (False, True):
        kind = "directed" if directed else "undirected"
        # disconnected parts of 20 or 30 nodes, then two isolated nodes
        graphs[f"sparse_{kind}"] = (parted_graph(rng, 3, 20, 0.12, directed), directed)
        graphs[f"dense_{kind}"] = (parted_graph(rng, 2, 30, 0.5, directed), directed)
    self_arcs = parted_graph(rng, 3, 20, 0.12, True)
    self_arcs[[0, 5, 33, 61], [0, 5, 33, 61]] = True  # sources in batches of 1, 7 and 64
    graphs["self_arcs_directed"] = (self_arcs, True)
    deep = np.zeros((70, 70), dtype=bool)  # a path of depth 11 beside a random part
    deep[:12, :12] = path_graph(11) > 0
    deep[20:60, 20:60] = rng.random((40, 40)) < 0.08
    deep |= deep.T
    np.fill_diagonal(deep, False)
    graphs["deep_path_undirected"] = (deep, False)
    one_way = np.zeros((10, 10), dtype=bool)  # 0 -> 1 -> ... -> 8, node 9 isolated
    one_way[np.arange(8), np.arange(1, 9)] = True
    graphs["path_directed"] = (one_way, True)
    return {name: (adj.astype(np.float64), directed) for name, (adj, directed) in graphs.items()}


LEVEL_TEST_GRAPHS = level_test_graphs()


def counting(adj: np.ndarray, fmt: str):
    """`adj` as an ndarray or CSR subclass whose `.dot` records each call."""
    calls = []
    if fmt == "ndarray":
        class CountingArray(np.ndarray):
            def dot(self, other):
                calls.append(other.shape)
                return np.asarray(self).dot(other)

        return adj.view(CountingArray), calls

    class CountingCSR(sp.csr_matrix):
        def dot(self, other):
            calls.append(other.shape)
            return super().dot(other)

    return CountingCSR(adj), calls


class TestLevelSkipping:
    """`_dependencies` gathers BFS level 1, stops its BFS at the level
    that reaches the last node and its accumulation at level 2.  The products
    it leaves out cannot change a bit of the result."""

    @pytest.mark.parametrize("fmt", ["ndarray", "csr"])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    @pytest.mark.parametrize("name", sorted(LEVEL_TEST_GRAPHS))
    def test_bitwise_equal_to_every_level_recurrence(self, name, batch, fmt):
        adj, directed = LEVEL_TEST_GRAPHS[name]
        if fmt == "csr":
            adj = sp.csr_matrix(adj)
        adj_t = (adj.T.tocsr() if fmt == "csr" else adj.T) if directed else adj
        n = adj.shape[0]
        for start in range(0, n, batch):
            sources = np.arange(start, min(start + batch, n))
            (got,) = _dependencies(adj, adj_t, [sources])
            want = brandes_batch_every_level(adj, adj_t, sources)
            assert np.array_equal(got, want), f"sources {start}..{sources[-1]}"

    @pytest.mark.parametrize("fmt", ["ndarray", "csr"])
    def test_reused_work_arrays_carry_nothing_between_batches(self, fmt):
        # One call runs deep and shallow batches through the same work arrays:
        # the 11-hop path, isolated nodes, the random part, and a short last batch.
        adj, _ = LEVEL_TEST_GRAPHS["deep_path_undirected"]
        if fmt == "csr":
            adj = sp.csr_matrix(adj)
        batches = [
            np.arange(0, 12),
            np.arange(12, 24),
            np.r_[60:70, 0, 11],
            np.arange(24, 36),
            np.arange(36, 48),
            np.arange(48, 60),
            np.array([3, 8, 40]),
        ]
        got = _dependencies(adj, adj, batches)
        assert len(got) == len(batches)
        for sources, vector in zip(batches, got):
            want = brandes_batch_every_level(adj, adj, sources)
            assert np.array_equal(vector, want), f"sources {sources}"

    def test_graphs_cover_the_corner_cases(self):
        for name, (adj, _) in LEVEL_TEST_GRAPHS.items():
            assert np.any(adj.sum(axis=0) + adj.sum(axis=1) == 0), name  # isolated node
            assert np.any(adj > 0), name
        assert np.any(np.diag(LEVEL_TEST_GRAPHS["self_arcs_directed"][0]) > 0)
        hops = shortest_path(LEVEL_TEST_GRAPHS["deep_path_undirected"][0], unweighted=True)
        assert hops[np.isfinite(hops)].max() >= 5

    @pytest.mark.parametrize("fmt", ["ndarray", "csr"])
    @pytest.mark.parametrize(
        "adj, sources",
        [
            (star_graph(5), [0, 1, 2, 3, 4, 5]),
            (star_graph(5), [3]),
            (complete_bipartite(3, 3), [0, 1, 2, 3, 4, 5]),
            (complete_bipartite(3, 3), [4]),
            (complete_bipartite(3, 3), [0, 5]),
        ],
        ids=["star_all", "star_leaf", "k33_all", "k33_one", "k33_two"],
    )
    def test_two_products_per_batch_at_depth_two(self, adj, sources, fmt):
        counted, calls = counting(adj, fmt)
        sources = np.array(sources)
        (got,) = _dependencies(counted, counted, [sources])
        assert len(calls) == 2
        assert np.array_equal(got, brandes_batch_every_level(adj, adj, sources))

    @pytest.mark.parametrize("fmt", ["ndarray", "csr"])
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8])
    def test_path_of_depth_l_takes_two_l_minus_two_products(self, length, fmt):
        adj = path_graph(length)
        counted, calls = counting(adj, fmt)
        (got,) = _dependencies(counted, counted, [np.array([0])])
        assert len(calls) == 2 * (length - 1)
        assert np.array_equal(got, brandes_batch_every_level(adj, adj, np.array([0])))


class TestNormalization:
    def test_directed_and_undirected_denominators(self):
        scores = np.array([6.0, 0.0, 3.0])
        n = 5
        directed = normalize_betweenness(scores, n, directed=True)
        undirected = normalize_betweenness(scores, n, directed=False)
        assert directed[0] == pytest.approx(6.0 / 12.0)
        assert undirected[0] == pytest.approx(6.0 / 6.0)

    def test_tiny_graph_normalization_is_zero(self):
        assert np.all(normalize_betweenness(np.array([0.0, 0.0]), 2, True) == 0.0)


class TestVariants:
    def test_diagonal_only_matrix_all_zero(self):
        m = CitationMatrix(4, range(4), range(4), [3] * 4)
        table = indicator_table(m, metrics=())
        for name in BETWEENNESS_COLUMNS:
            assert np.allclose(table.column(name), 0.0), name

    def test_two_cluster_bridge_has_max_cosine_cited_betweenness(self):
        # Two 4-journal cliques in the cited dimension plus one journal cited
        # by members of both clusters: the bridge must top cosine-cited
        # betweenness.
        # cluster A journals 0-3 all cited by citers 10-13; cluster B journals
        # 4-7 cited by citers 14-17; bridge 8 cited by one citer of each side.
        n = 18
        cells = [(cited, citer) for cited in range(4) for citer in range(10, 14)]
        cells += [(cited, citer) for cited in range(4, 8) for citer in range(14, 18)]
        rows, cols = zip(*cells, (8, 10), (8, 14))
        m = CitationMatrix(n, rows, cols, [2] * len(cells) + [1, 1])
        graph = binarize(cooccurrence_support(m, Direction.CITED))
        scores = betweenness(graph)
        brute = brute_betweenness(
            graph.adjacency.toarray().astype(int), directed=False
        )
        assert np.allclose(scores, brute, atol=1e-9)
        assert int(np.argmax(scores)) == 8

    def test_raw_directed_on_transpose_identical(self):
        rng = np.random.default_rng(31)
        rows, cols, counts = random_sparse_counts(rng, 8, density=0.3)
        m = CitationMatrix(8, rows, cols, counts)
        mt = CitationMatrix(8, cols, rows, counts)
        a = betweenness(binarize_directed(m))
        b = betweenness(binarize_directed(mt))
        assert np.allclose(a, b, atol=1e-9)

    def test_all_variants_table(self, corpus4):
        registry, matrix = corpus4
        table = indicator_table(matrix, registry, metrics=())
        # raw directed betweenness is one computation reported under both labels
        assert np.array_equal(
            table.column("betweenness_citations_cited"),
            table.column("betweenness_citations_citing"),
        )
        for name in BETWEENNESS_COLUMNS:
            scores = table.column(name)
            assert len(scores) == matrix.n
            assert np.all(scores >= 0.0), name
            if "normalized" in name:
                assert np.all(scores <= 1.0), name


class TestDegree:
    def test_self_cited_only(self):
        m = CitationMatrix(2, [0], [0], [9])
        table = indicator_table(m, metrics=())
        assert table.column("degree_cited")[0] == 0
        assert table.column("total_citations_cited")[0] == 9

    def test_diagonal_excluded_from_degree(self):
        m = CitationMatrix(4, [0, 0, 0], [0, 1, 2], [1, 2, 5])
        table = indicator_table(m, metrics=())
        assert table.column("degree_cited")[0] == 2
        assert table.column("total_citations_cited")[0] == 8

    def test_totals_conserved(self, corpus4):
        registry, matrix = corpus4
        table = indicator_table(matrix, registry, metrics=())
        cited_total = np.nansum(table.column("total_citations_cited"))
        citing_total = np.nansum(table.column("total_citations_citing"))
        assert cited_total == citing_total == matrix.tocsr().sum()

    def test_star_degree_tracks_betweenness(self):
        # In a star, the hub has both the max degree and the max betweenness.
        adj = np.zeros((6, 6), dtype=bool)
        adj[0, 1:] = True
        graph = graph_from_dense(adj, directed=False)
        scores = betweenness(graph)
        degrees = np.diff(graph.adjacency.indptr)
        assert int(np.argmax(scores)) == int(np.argmax(degrees)) == 0
