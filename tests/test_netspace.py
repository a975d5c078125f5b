import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_sparse_counts
from interdisc import netspace
from interdisc.corpus import CitationMatrix, Direction
from interdisc.errors import CountOverflowError
from interdisc.netspace import (
    binarize,
    binarize_directed,
    cooccurrence,
    cooccurrence_support,
    cosine_matrix,
    distance_matrix,
    export_matrix_market,
    _normalize_rows,
)


def matrix_from_dense(dense) -> CitationMatrix:
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return CitationMatrix(dense.shape[0], rows, cols, dense[rows, cols].astype(np.int64))


def cites_each(n: int, k: int = 3) -> CitationMatrix:
    """n journals, each citing k at random: at k = 3 a few thousandths of the
    n^2 pairs share a vector entry on either axis, at n = 1000 and k = 30
    about 0.6 of them."""
    rng = np.random.default_rng(17)
    citing = np.repeat(np.arange(n), k)
    cited = rng.integers(0, n, size=citing.size)
    return CitationMatrix(n, cited, citing, rng.integers(1, 20, size=citing.size))


def traced_peak(f, *args) -> int:
    """Peak bytes `tracemalloc` sees allocated during f(*args)."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCosine:
    def test_identical_rows(self):
        m = matrix_from_dense([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
        cos = cosine_matrix(m, Direction.CITED)
        assert cos[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert cos[0, 0] == 1.0

    def test_disjoint_supports(self):
        m = matrix_from_dense([[1, 0, 0], [0, 0, 5], [1, 1, 0]])
        cos = cosine_matrix(m, Direction.CITED)
        assert cos[0, 1] == 0.0

    def test_half_overlap(self):
        m = matrix_from_dense([[1, 1, 0], [1, 0, 1], [0, 0, 0]])
        cos = cosine_matrix(m, Direction.CITED)
        assert cos[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_zero_vector_journal(self):
        m = matrix_from_dense([[1, 1, 0], [0, 0, 0], [1, 0, 1]])
        cos = cosine_matrix(m, Direction.CITED).toarray()
        assert cos[1, 1] == 0.0
        assert np.all(cos[1, :] == 0.0) and np.all(cos[:, 1] == 0.0)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        rows, cols, counts = random_sparse_counts(rng, 20)
        m = CitationMatrix(20, rows, cols, counts)
        for axis in (Direction.CITED, Direction.CITING):
            cos = cosine_matrix(m, axis).toarray()
            assert np.all(cos >= 0.0) and np.all(cos <= 1.0)
            assert np.array_equal(cos, cos.T)

    def test_diagonal_exact_above_2000_journals(self):
        # n > 2,000; journals 0-9 are never cited and the last 10 cite
        # nothing, so both axes have empty vectors
        n = 2100
        rng = np.random.default_rng(21)
        citing = np.repeat(np.arange(n - 10), 6)
        cited = rng.integers(10, n, size=citing.size)
        m = CitationMatrix(n, cited, citing, rng.integers(1, 50, size=citing.size))
        for axis in (Direction.CITED, Direction.CITING):
            has_vector = np.diff(m.axis_matrix(axis).indptr) > 0
            assert not has_vector.all()
            diag = np.diag(cosine_matrix(m, axis).toarray())
            assert np.array_equal(diag, np.where(has_vector, 1.0, 0.0))


def sparse_cosine_corpus() -> CitationMatrix:
    """12 journals: journals 0 and 1 cite the same three journals once each,
    and journals 2 and 3 are cited once each by the same three; journal 10
    is never cited and journal 11 cites nothing."""
    rng = np.random.default_rng(31)
    dense = (rng.random((12, 12)) < 0.35) * rng.integers(1, 20, size=(12, 12))
    dense[0] = 0
    dense[0, [4, 7, 8]] = 1
    dense[1] = dense[0]
    dense[:, 2] = 0
    dense[[5, 6, 9], 2] = 1
    dense[:, 3] = dense[:, 2]
    dense[10] = 0
    dense[:, 11] = 0
    return matrix_from_dense(dense)


def naive_cosine(matrix: CitationMatrix, axis: Direction) -> np.ndarray:
    """Normalised dot products pair by pair, clipped to 1; 0 against an empty
    vector, and exactly 1 on the diagonal of a nonempty one."""
    vectors = matrix.axis_matrix(axis).toarray().astype(np.float64)
    norms = np.sqrt((vectors**2).sum(axis=1))
    n = len(vectors)
    cos = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if norms[i] > 0 and norms[j] > 0:
                cos[i, j] = min(1.0, vectors[i] @ vectors[j] / (norms[i] * norms[j]))
        cos[i, i] = 1.0 if norms[i] > 0 else 0.0
    return cos


def dense_cosine(matrix: CitationMatrix, axis: Direction) -> np.ndarray:
    """The same product as `cosine_matrix`, densified before it is clipped."""
    vectors = matrix.axis_matrix(axis)
    unit = _normalize_rows(vectors, 2)
    dense = np.clip(unit.dot(unit.T).toarray(), 0.0, 1.0)
    np.fill_diagonal(dense, np.where(np.diff(vectors.indptr) > 0, 1.0, 0.0))
    return dense


@pytest.mark.parametrize("axis", [Direction.CITED, Direction.CITING])
class TestSparseCosine:
    def test_csr_without_stored_zeros(self, axis):
        cos = cosine_matrix(sparse_cosine_corpus(), axis)
        assert sp.isspmatrix_csr(cos) and cos.dtype == np.float64
        assert cos.has_sorted_indices
        assert np.all(cos.data > 0.0) and np.all(cos.data <= 1.0)

    def test_matches_naive_oracle(self, axis):
        m = sparse_cosine_corpus()
        cos = cosine_matrix(m, axis)
        want = naive_cosine(m, axis)
        assert np.max(np.abs(cos.toarray() - want)) <= 1e-15
        empty = {Direction.CITED: 10, Direction.CITING: 11}[axis]
        assert cos[empty].nnz == 0 and cos[:, empty].nnz == 0
        assert np.array_equal(cos.diagonal(), np.diag(want))

    def test_identical_vectors_clip_to_one(self, axis):
        m = sparse_cosine_corpus()
        twin = {Direction.CITED: (0, 1), Direction.CITING: (2, 3)}[axis]
        unit = _normalize_rows(m.axis_matrix(axis), 2)
        assert unit.dot(unit.T)[twin] > 1.0  # the product rounds above 1
        assert cosine_matrix(m, axis)[twin] == 1.0

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 0.5])
    def test_binarize_matches_oracle_graph(self, axis, threshold):
        m = sparse_cosine_corpus()
        want = naive_cosine(m, axis)
        off_diagonal = ~np.eye(m.n, dtype=bool)
        # zeros are exact on both sides; no other value ties a threshold
        assert np.abs(want - threshold)[off_diagonal & (want > 0)].min() > 1e-12
        graph = binarize(cosine_matrix(m, axis), threshold)
        assert np.array_equal(graph.adjacency.toarray(), (want > threshold) & off_diagonal)

    def test_export_bytes_match_dense(self, axis, tmp_path):
        m = sparse_cosine_corpus()
        export_matrix_market(cosine_matrix(m, axis), tmp_path / "sparse.mtx")
        export_matrix_market(dense_cosine(m, axis), tmp_path / "dense.mtx")
        assert (tmp_path / "sparse.mtx").read_bytes() == (tmp_path / "dense.mtx").read_bytes()

    def test_no_dense_allocation(self, axis):
        # the cosine matrix has a few thousandths of its n^2 cells filled; a
        # dense one takes 8 n^2 bytes
        m = cites_each(3000)
        assert traced_peak(cosine_matrix, m, axis) < 8 * m.n * m.n / 4


class TestCooccurrence:
    def test_identity(self):
        m = matrix_from_dense(np.eye(3, dtype=int))
        prod = cooccurrence(m, Direction.CITED).toarray()
        assert np.array_equal(prod, np.eye(3))

    def test_hand_multiplied_3x3(self):
        a = [[1, 2, 0], [0, 1, 1], [3, 0, 1]]
        expected = np.array([[5, 2, 3], [2, 2, 1], [3, 1, 10]])
        m = matrix_from_dense(a)
        prod = cooccurrence(m, Direction.CITED).toarray()
        assert np.array_equal(prod, expected)
        citing = cooccurrence(m, Direction.CITING).toarray()
        assert np.array_equal(citing, np.asarray(a).T @ np.asarray(a))

    def test_support_rule(self):
        rng = np.random.default_rng(9)
        rows, cols, counts = random_sparse_counts(rng, 12, density=0.3)
        m = CitationMatrix(12, rows, cols, counts)
        dense = m.tocsr().toarray()
        prod = cooccurrence(m, Direction.CITED).toarray()
        for i in range(12):
            for j in range(12):
                shares = np.any((dense[i] > 0) & (dense[j] > 0))
                assert (prod[i, j] > 0) == shares

    def test_exact_integers(self):
        m = matrix_from_dense([[10**6, 10**6], [10**6, 0]])
        prod = cooccurrence(m, Direction.CITED).toarray()
        assert prod[0, 0] == 2 * 10**12

    def test_int64_csr_with_sorted_indices(self):
        rng = np.random.default_rng(12)
        rows, cols, counts = random_sparse_counts(rng, 30, density=0.2)
        m = CitationMatrix(30, rows, cols, counts)
        for axis in (Direction.CITED, Direction.CITING):
            prod = cooccurrence(m, axis)
            assert sp.isspmatrix_csr(prod) and prod.dtype == np.int64
            resorted = prod.copy()
            resorted.has_sorted_indices = False
            resorted.sort_indices()
            assert np.array_equal(resorted.indices, prod.indices)
            assert np.all(prod.data != 0)

    def test_overflow_detection(self):
        big = int(np.sqrt(np.iinfo(np.int64).max)) + 1
        m = CitationMatrix(2, [0, 0], [0, 1], [big, big])
        with pytest.raises(CountOverflowError):
            cooccurrence(m, Direction.CITED)


class TestBinarize:
    def test_all_zero_matrix(self):
        graph = binarize(np.zeros((3, 3)))
        assert graph.edge_count == 0

    def test_single_positive_cell(self):
        dense = np.zeros((4, 4))
        dense[1, 2] = dense[2, 1] = 0.7
        graph = binarize(dense)
        assert graph.edge_count == 1
        assert list(graph.adjacency[1].indices) == [2]

    def test_edge_set_identity_cosine_vs_cooccurrence(self):
        rng = np.random.default_rng(10)
        for trial in range(50):
            n = int(rng.integers(3, 41))
            rows, cols, counts = random_sparse_counts(rng, n, density=0.15)
            if len(rows) == 0:
                continue
            m = CitationMatrix(n, rows, cols, counts)
            for axis in (Direction.CITED, Direction.CITING):
                g_cos = binarize(cosine_matrix(m, axis))
                g_coc = binarize(cooccurrence(m, axis))
                assert np.array_equal(
                    g_cos.adjacency.toarray(), g_coc.adjacency.toarray()
                ), f"trial {trial} axis {axis}"
                g_fast = binarize(cooccurrence_support(m, axis))
                assert np.array_equal(
                    g_cos.adjacency.toarray(), g_fast.adjacency.toarray()
                )

    def test_threshold_strictness(self):
        dense = np.array([[1.0, 0.2], [0.2, 1.0]])
        assert binarize(dense, threshold=0.2).edge_count == 0  # strict >
        assert binarize(dense, threshold=0.19).edge_count == 1
        # a sparse matrix binarizes the same way
        assert binarize(sp.csr_matrix(dense), threshold=0.19).edge_count == 1

    def test_no_self_loops(self):
        m = matrix_from_dense([[4, 1], [1, 4]])
        graph = binarize(cooccurrence(m, Direction.CITED))
        assert np.all(graph.adjacency.diagonal() == 0)

    @pytest.mark.parametrize("axis", [Direction.CITED, Direction.CITING])
    def test_support_graph_copies_the_support_once(self, axis):
        # bool data and int32 indices: 5 bytes per arc of a graph of density
        # ~0.6; the support and its one copy take twice that and the diagonal
        # mask less than once more, where symmetrizing peaked at five times
        m = cites_each(1000, k=30)
        adj = binarize(cooccurrence_support(m, axis)).adjacency
        size = adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes
        peak = traced_peak(lambda: binarize(cooccurrence_support(m, axis)))
        assert peak < 4 * size


    @pytest.mark.parametrize("axis", [Direction.CITED, Direction.CITING])
    def test_support_is_the_boolean_product(self, axis):
        # sums of booleans are ORs: no int32 product (8 bytes an entry) to
        # cast, beside the 5 bytes an entry of the result
        m = cites_each(1000, k=30)
        support = cooccurrence_support(m, axis)
        assert support.dtype == bool
        size = support.data.nbytes + support.indices.nbytes + support.indptr.nbytes
        assert traced_peak(cooccurrence_support, m, axis) < 1.5 * size


class TestBinarizeDirected:
    def test_single_cell_arc(self):
        # cell (cited=0, citing=1): arc 1 -> 0
        m = CitationMatrix(2, [0], [1], [5])
        graph = binarize_directed(m)
        assert graph.directed
        assert graph.edge_count == 1
        assert list(graph.adjacency[1].indices) == [0]
        assert list(graph.adjacency[0].indices) == []

    def test_diagonal_only_is_edgeless(self):
        m = CitationMatrix(3, [0, 1], [0, 1], [2, 9])
        assert binarize_directed(m).edge_count == 0

    def test_arc_count_is_offdiagonal_nnz(self, corpus4):
        _, matrix = corpus4
        diag_nnz = int((matrix.tocsr().diagonal() > 0).sum())
        graph = binarize_directed(matrix)
        assert graph.edge_count == matrix.nnz - diag_nnz

    def test_arcs_are_the_transposed_cells_off_the_diagonal(self):
        m = cites_each(300, k=10)
        adj = binarize_directed(m).adjacency
        want = m.tocsr().toarray().T > 0
        np.fill_diagonal(want, False)
        assert adj.dtype == bool and adj.has_sorted_indices
        assert np.array_equal(adj.toarray(), want)
        assert np.all(adj.data)

    def test_graph_copies_the_cells_once(self):
        # the transpose, its per-arc row index and diagonal mask: 10 bytes an
        # arc, twice the graph's 5; a further copy of the graph took it to 5.7
        m = cites_each(1000, k=30)
        adj = binarize_directed(m).adjacency
        size = adj.data.nbytes + adj.indices.nbytes + adj.indptr.nbytes
        assert traced_peak(binarize_directed, m) < 3 * size


class TestProbabilityNormalize:
    def test_basic(self):
        m = CitationMatrix(2, [0, 0], [0, 1], [2, 2])
        prob = _normalize_rows(m.axis_matrix(Direction.CITED), 1)
        assert np.allclose(prob.toarray()[0], [0.5, 0.5])

    def test_direct_division(self):
        m = CitationMatrix(4, [0, 0, 0, 0], [0, 1, 2, 3], [1, 2, 3, 4])
        prob = _normalize_rows(m.axis_matrix(Direction.CITED), 1)
        p = prob.toarray()[0]
        assert np.allclose(p, [0.1, 0.2, 0.3, 0.4], atol=1e-15)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        counts = rng.integers(1, 100, size=9)
        p1 = _normalize_rows(sp.csr_matrix(counts[None, :]), 1)
        p2 = _normalize_rows(p1, 1)
        assert np.allclose(p1.toarray()[0], counts / counts.sum(), atol=1e-15)
        assert np.allclose(p1.toarray(), p2.toarray(), atol=1e-15)


class TestDistanceMatrix:
    @pytest.mark.parametrize("axis", [Direction.CITED, Direction.CITING])
    def test_relative_euclidean_holds_one_dense_array(self, axis):
        # the n x n result takes 8 n^2 bytes; the Gram product stays sparse
        m = cites_each(3000)
        peak = traced_peak(distance_matrix, m, axis, "relative_euclidean")
        assert peak < 1.5 * 8 * m.n * m.n

    def test_same_distribution_different_size(self):
        m = matrix_from_dense([[1, 2, 0], [10, 20, 0], [0, 0, 3]])
        for metric in ("one_minus_cosine", "relative_euclidean"):
            d = distance_matrix(m, Direction.CITED, metric)
            assert d[0, 1] == pytest.approx(0.0, abs=1e-7)

    def test_near_identical_distributions_keep_their_digits(self):
        # rows 1 and 3 are equal and close to the uniform rows; the Gram form
        # |a|^2 + |b|^2 - 2 a.b alone left d(1, 3) at ~5e-9
        counts = np.full((10, 10), 3)
        counts[1] = counts[3] = [3, 3, 3, 1, 3, 3, 3, 3, 2, 3]
        d = distance_matrix(matrix_from_dense(counts), Direction.CITED, "relative_euclidean")
        q = counts / counts.sum(axis=1, keepdims=True)
        explicit = np.sqrt(((q[:, None, :] - q[None, :, :]) ** 2).sum(axis=-1))
        assert d[1, 3] == 0.0
        np.testing.assert_allclose(d, explicit, rtol=1e-12, atol=1e-15)

    def test_disjoint_supports(self):
        m = matrix_from_dense([[5, 0], [0, 3]])
        omc = distance_matrix(m, Direction.CITED, "one_minus_cosine")
        assert omc[0, 1] == pytest.approx(1.0, abs=1e-12)
        euc = distance_matrix(m, Direction.CITED, "relative_euclidean")
        assert euc[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_diagonal_zeroed(self):
        rng = np.random.default_rng(15)
        rows, cols, counts = random_sparse_counts(rng, 10)
        m = CitationMatrix(10, rows, cols, counts)
        for metric in ("one_minus_cosine", "relative_euclidean"):
            d = distance_matrix(m, Direction.CITED, metric)
            assert np.all(np.diag(d) == 0.0)

    def test_empty_vector_pairs_undefined(self):
        m = matrix_from_dense([[1, 1, 0], [0, 0, 0], [1, 0, 1]])
        d = distance_matrix(m, Direction.CITED, "one_minus_cosine")
        dense = d
        assert np.isnan(dense[0, 1]) and np.isnan(dense[1, 2])
        assert not np.isnan(dense[0, 2])
        assert dense[1, 1] == 0.0  # diagonal stays zeroed even when undefined

    def test_metric_sanity(self):
        rng = np.random.default_rng(16)
        rows, cols, counts = random_sparse_counts(rng, 15, density=0.4)
        m = CitationMatrix(15, rows, cols, counts)
        for metric in ("one_minus_cosine", "relative_euclidean"):
            d = distance_matrix(m, Direction.CITING, metric)
            ok = ~np.isnan(d)
            assert np.all(d[ok] >= 0.0)
            assert np.array_equal(np.isnan(d), np.isnan(d.T))
            assert np.allclose(d[ok], d.T[ok], atol=1e-12)

    def test_relative_euclidean_triangle_inequality(self):
        rng = np.random.default_rng(17)
        rows, cols, counts = random_sparse_counts(rng, 12, density=0.5)
        m = CitationMatrix(12, rows, cols, counts)
        d = distance_matrix(m, Direction.CITED, "relative_euclidean")
        n = 12
        for _ in range(300):
            i, j, k = rng.integers(0, n, size=3)
            if np.isnan(d[i, j]) or np.isnan(d[i, k]) or np.isnan(d[k, j]):
                continue
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9

    def test_size_neutrality(self):
        rng = np.random.default_rng(18)
        rows, cols, counts = random_sparse_counts(rng, 8, density=0.5)
        m1 = CitationMatrix(8, rows, cols, counts)
        scaled = counts.copy()
        scaled[rows == 3] *= 50  # scale journal 3's cited vector
        m2 = CitationMatrix(8, rows, cols, scaled)
        for metric in ("one_minus_cosine", "relative_euclidean"):
            d1 = distance_matrix(m1, Direction.CITED, metric)
            d2 = distance_matrix(m2, Direction.CITED, metric)
            ok = ~np.isnan(d1)
            assert np.allclose(d1[ok], d2[ok], atol=1e-9)

    def test_matches_pairwise_formula(self):
        rng = np.random.default_rng(19)
        rows, cols, counts = random_sparse_counts(rng, 25, density=0.3)
        keep = rows > 2  # journals 0-2 are never cited: empty cited vectors
        m = CitationMatrix(25, rows[keep], cols[keep], counts[keep])
        dense = m.tocsr().toarray().astype(np.float64)
        for axis, vectors in ((Direction.CITED, dense), (Direction.CITING, dense.T)):
            for metric in ("one_minus_cosine", "relative_euclidean"):
                got = distance_matrix(m, axis, metric)
                for i in range(25):
                    for j in range(25):
                        a, b = vectors[i], vectors[j]
                        if i == j:
                            want = 0.0
                        elif not a.any() or not b.any():
                            want = np.nan
                        elif metric == "one_minus_cosine":
                            want = 1.0 - a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
                        else:
                            want = np.linalg.norm(a / a.sum() - b / b.sum())
                        if np.isnan(want):
                            assert np.isnan(got[i, j]), (axis, metric, i, j)
                        else:
                            assert got[i, j] == pytest.approx(want, abs=1e-12)


class TestExport:
    def test_round_trip(self, tmp_path):
        import scipy.io

        rng = np.random.default_rng(20)
        rows, cols, counts = random_sparse_counts(rng, 6, density=0.6)
        m = CitationMatrix(6, rows, cols, counts)
        cos = cosine_matrix(m, Direction.CITED).toarray()
        path = tmp_path / "cos.mtx"
        export_matrix_market(cos, path)
        back = scipy.io.mmread(str(path)).toarray()
        assert np.allclose(back, cos, atol=1e-12)

    @pytest.mark.parametrize("cells", [1, 700, 1 << 15])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("field", ["real", "integer"])
    def test_dense_row_blocks_write_the_one_call_bytes(
        self, tmp_path, monkeypatch, n, field, cells
    ):
        import scipy.io

        # zeros, integer values, E-exponent values and (real) NaN rows and
        # columns, across block edges: a block of every row, of a row or two,
        # and of 54 rows or more
        rng = np.random.default_rng(n)
        values = rng.random((n, n)) * 1000
        values[rng.random((n, n)) < 0.2] = 0.0
        values[rng.random((n, n)) < 0.1] = 3.0
        values[rng.random((n, n)) < 0.1] *= 1e-30
        values[rng.random((n, n)) < 0.1] *= 1e12
        if field == "integer":
            values = values.astype(np.int64)
        else:
            undefined = rng.random(n) < 0.1
            values[undefined] = values[:, undefined] = np.nan
        values = np.tril(values) + np.tril(values, -1).T
        monkeypatch.setattr(netspace, "EXPORT_BLOCK_CELLS", cells)
        export_matrix_market(values, tmp_path / "blocks.mtx")
        with open(tmp_path / "one.mtx", "wb") as fh:
            scipy.io.mmwrite(fh, sp.coo_matrix(values), field=field, symmetry="symmetric")
        assert (tmp_path / "blocks.mtx").read_bytes() == (tmp_path / "one.mtx").read_bytes()

    @pytest.mark.parametrize("cells", [1, 37, 1000, 1 << 15])
    @pytest.mark.parametrize("axis", [Direction.CITED, Direction.CITING])
    @pytest.mark.parametrize("kind", ["cosine", "cooccurrence"])
    def test_sparse_row_blocks_write_the_one_call_bytes(
        self, tmp_path, monkeypatch, kind, axis, cells
    ):
        import scipy.io

        # 300 journals citing 8 each; journals 0-2 neither cite nor are cited,
        # so their rows are empty
        counts = cites_each(300, 8).tocsr().tocoo()
        keep = (counts.row > 2) & (counts.col > 2)
        m = CitationMatrix(300, counts.row[keep], counts.col[keep], counts.data[keep])
        values = cosine_matrix(m, axis) if kind == "cosine" else cooccurrence(m, axis)
        assert np.array_equal(np.flatnonzero(np.diff(values.indptr) == 0), [0, 1, 2])
        field = "real" if kind == "cosine" else "integer"
        monkeypatch.setattr(netspace, "EXPORT_BLOCK_CELLS", cells)
        export_matrix_market(values, tmp_path / "blocks.mtx")
        with open(tmp_path / "one.mtx", "wb") as fh:
            scipy.io.mmwrite(fh, sp.coo_matrix(values), field=field, symmetry="symmetric")
        assert (tmp_path / "blocks.mtx").read_bytes() == (tmp_path / "one.mtx").read_bytes()

    def test_dense_write_holds_no_coordinate_list(self):
        # a coordinate list of all n^2 cells takes 16-24 bytes a cell beside
        # the 8 n^2 bytes of the matrix; one row block takes a few MB
        n = 3000
        values = np.random.default_rng(21).random((n, n))
        assert traced_peak(export_matrix_market, values, os.devnull) < 8 * n * n

    def test_sparse_write_holds_no_coordinate_list(self):
        # a coordinate list of all ~0.78M stored cells needs a row index for
        # each, 4 bytes a cell beyond what the CSR matrix shares with it
        values = cosine_matrix(cites_each(1000, 40), Direction.CITED)
        assert traced_peak(export_matrix_market, values, os.devnull) < 4 * values.nnz
