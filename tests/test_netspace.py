import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_sparse_counts
from interdisc.corpus import CitationMatrix, Direction
from interdisc.errors import CountOverflowError
from interdisc.netspace import (
    MatrixKind,
    SymmetricValueMatrix,
    binarize,
    binarize_directed,
    cooccurrence,
    cooccurrence_support,
    cosine_matrix,
    distance_matrix,
    export_matrix_market,
    _l1_normalize_rows,
)


def matrix_from_dense(dense) -> CitationMatrix:
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return CitationMatrix(dense.shape[0], rows, cols, dense[rows, cols].astype(np.int64))


class TestCosine:
    def test_identical_rows(self):
        m = matrix_from_dense([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
        cos = cosine_matrix(m, Direction.CITED).to_dense()
        assert cos[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert cos[0, 0] == 1.0

    def test_disjoint_supports(self):
        m = matrix_from_dense([[1, 0, 0], [0, 0, 5], [1, 1, 0]])
        cos = cosine_matrix(m, Direction.CITED).to_dense()
        assert cos[0, 1] == 0.0

    def test_half_overlap(self):
        m = matrix_from_dense([[1, 1, 0], [1, 0, 1], [0, 0, 0]])
        cos = cosine_matrix(m, Direction.CITED).to_dense()
        assert cos[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_zero_vector_journal(self):
        m = matrix_from_dense([[1, 1, 0], [0, 0, 0], [1, 0, 1]])
        cos = cosine_matrix(m, Direction.CITED).to_dense()
        assert cos[1, 1] == 0.0
        assert np.all(cos[1, :] == 0.0) and np.all(cos[:, 1] == 0.0)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        rows, cols, counts = random_sparse_counts(rng, 20)
        m = CitationMatrix(20, rows, cols, counts)
        for axis in (Direction.CITED, Direction.CITING):
            cos = cosine_matrix(m, axis).to_dense()
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
            diag = np.diag(cosine_matrix(m, axis).to_dense())
            assert np.array_equal(diag, np.where(has_vector, 1.0, 0.0))


class TestCooccurrence:
    def test_identity(self):
        m = matrix_from_dense(np.eye(3, dtype=int))
        prod = cooccurrence(m, Direction.CITED).to_dense()
        assert np.array_equal(prod, np.eye(3))

    def test_hand_multiplied_3x3(self):
        a = [[1, 2, 0], [0, 1, 1], [3, 0, 1]]
        expected = np.array([[5, 2, 3], [2, 2, 1], [3, 1, 10]])
        m = matrix_from_dense(a)
        prod = cooccurrence(m, Direction.CITED).to_dense()
        assert np.array_equal(prod, expected)
        citing = cooccurrence(m, Direction.CITING).to_dense()
        assert np.array_equal(citing, np.asarray(a).T @ np.asarray(a))

    def test_support_rule(self):
        rng = np.random.default_rng(9)
        rows, cols, counts = random_sparse_counts(rng, 12, density=0.3)
        m = CitationMatrix(12, rows, cols, counts)
        dense = m.tocsr().toarray()
        prod = cooccurrence(m, Direction.CITED).to_dense()
        for i in range(12):
            for j in range(12):
                shares = np.any((dense[i] > 0) & (dense[j] > 0))
                assert (prod[i, j] > 0) == shares

    def test_exact_integers(self):
        m = matrix_from_dense([[10**6, 10**6], [10**6, 0]])
        prod = cooccurrence(m, Direction.CITED).to_dense()
        assert prod[0, 0] == 2 * 10**12

    def test_overflow_detection(self):
        big = int(np.sqrt(np.iinfo(np.int64).max)) + 1
        m = CitationMatrix.from_cells(2, {(0, 0): big, (0, 1): big})
        with pytest.raises(CountOverflowError):
            cooccurrence(m, Direction.CITED)


class TestBinarize:
    def test_all_zero_matrix(self):
        sym = SymmetricValueMatrix(3, MatrixKind.COSINE_SIMILARITY, dense=np.zeros((3, 3)))
        graph = binarize(sym)
        assert graph.edge_count == 0

    def test_single_positive_cell(self):
        dense = np.zeros((4, 4))
        dense[1, 2] = dense[2, 1] = 0.7
        sym = SymmetricValueMatrix(4, MatrixKind.COSINE_SIMILARITY, dense=dense)
        graph = binarize(sym)
        assert graph.edge_count == 1
        assert list(graph.neighbors(1)) == [2]

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
        sym = SymmetricValueMatrix(2, MatrixKind.COSINE_SIMILARITY, dense=dense)
        assert binarize(sym, threshold=0.2).edge_count == 0  # strict >
        assert binarize(sym, threshold=0.19).edge_count == 1

    def test_no_self_loops(self):
        m = matrix_from_dense([[4, 1], [1, 4]])
        graph = binarize(cooccurrence(m, Direction.CITED))
        assert np.all(graph.adjacency.diagonal() == 0)


class TestBinarizeDirected:
    def test_single_cell_arc(self):
        # cell (cited=0, citing=1): arc 1 -> 0
        m = CitationMatrix.from_cells(2, {(0, 1): 5})
        graph = binarize_directed(m)
        assert graph.directed
        assert graph.edge_count == 1
        assert list(graph.neighbors(1)) == [0]
        assert list(graph.neighbors(0)) == []

    def test_diagonal_only_is_edgeless(self):
        m = CitationMatrix.from_cells(3, {(0, 0): 2, (1, 1): 9})
        assert binarize_directed(m).edge_count == 0

    def test_arc_count_is_offdiagonal_nnz(self, corpus4):
        _, matrix = corpus4
        diag_nnz = int((matrix.tocsr().diagonal() > 0).sum())
        graph = binarize_directed(matrix)
        assert graph.edge_count == matrix.nnz - diag_nnz


class TestProbabilityNormalize:
    def test_basic(self):
        m = CitationMatrix.from_cells(2, {(0, 0): 2, (0, 1): 2})
        prob, _ = _l1_normalize_rows(m.axis_matrix(Direction.CITED))
        assert np.allclose(prob.toarray()[0], [0.5, 0.5])

    def test_direct_division(self):
        m = CitationMatrix.from_cells(4, {(0, 0): 1, (0, 1): 2, (0, 2): 3, (0, 3): 4})
        prob, _ = _l1_normalize_rows(m.axis_matrix(Direction.CITED))
        p = prob.toarray()[0]
        assert np.allclose(p, [0.1, 0.2, 0.3, 0.4], atol=1e-15)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        counts = rng.integers(1, 100, size=9)
        p1, _ = _l1_normalize_rows(sp.csr_matrix(counts[None, :]))
        p2, _ = _l1_normalize_rows(p1)
        assert np.allclose(p1.toarray()[0], counts / counts.sum(), atol=1e-15)
        assert np.allclose(p1.toarray(), p2.toarray(), atol=1e-15)


class TestDistanceMatrix:
    def test_same_distribution_different_size(self):
        m = matrix_from_dense([[1, 2, 0], [10, 20, 0], [0, 0, 3]])
        for metric in ("one_minus_cosine", "relative_euclidean"):
            d = distance_matrix(m, Direction.CITED, metric).to_dense()
            assert d[0, 1] == pytest.approx(0.0, abs=1e-7)

    def test_near_identical_distributions_keep_their_digits(self):
        # rows 1 and 3 are equal and close to the uniform rows; the Gram form
        # |a|^2 + |b|^2 - 2 a.b alone left d(1, 3) at ~5e-9
        counts = np.full((10, 10), 3)
        counts[1] = counts[3] = [3, 3, 3, 1, 3, 3, 3, 3, 2, 3]
        d = distance_matrix(matrix_from_dense(counts), Direction.CITED, "relative_euclidean")
        q = counts / counts.sum(axis=1, keepdims=True)
        explicit = np.sqrt(((q[:, None, :] - q[None, :, :]) ** 2).sum(axis=-1))
        assert d.to_dense()[1, 3] == 0.0
        np.testing.assert_allclose(d.to_dense(), explicit, rtol=1e-12, atol=1e-15)

    def test_disjoint_supports(self):
        m = matrix_from_dense([[5, 0], [0, 3]])
        omc = distance_matrix(m, Direction.CITED, "one_minus_cosine").to_dense()
        assert omc[0, 1] == pytest.approx(1.0, abs=1e-12)
        euc = distance_matrix(m, Direction.CITED, "relative_euclidean").to_dense()
        assert euc[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_diagonal_zeroed(self):
        rng = np.random.default_rng(15)
        rows, cols, counts = random_sparse_counts(rng, 10)
        m = CitationMatrix(10, rows, cols, counts)
        for metric in ("one_minus_cosine", "relative_euclidean"):
            d = distance_matrix(m, Direction.CITED, metric).to_dense()
            assert np.all(np.diag(d) == 0.0)

    def test_empty_vector_pairs_undefined(self):
        m = matrix_from_dense([[1, 1, 0], [0, 0, 0], [1, 0, 1]])
        d = distance_matrix(m, Direction.CITED, "one_minus_cosine")
        dense = d.to_dense()
        assert np.isnan(dense[0, 1]) and np.isnan(dense[1, 2])
        assert not np.isnan(dense[0, 2])
        assert dense[1, 1] == 0.0  # diagonal stays zeroed even when undefined

    def test_metric_sanity(self):
        rng = np.random.default_rng(16)
        rows, cols, counts = random_sparse_counts(rng, 15, density=0.4)
        m = CitationMatrix(15, rows, cols, counts)
        for metric in ("one_minus_cosine", "relative_euclidean"):
            d = distance_matrix(m, Direction.CITING, metric).to_dense()
            ok = ~np.isnan(d)
            assert np.all(d[ok] >= 0.0)
            assert np.array_equal(np.isnan(d), np.isnan(d.T))
            assert np.allclose(d[ok], d.T[ok], atol=1e-12)

    def test_relative_euclidean_triangle_inequality(self):
        rng = np.random.default_rng(17)
        rows, cols, counts = random_sparse_counts(rng, 12, density=0.5)
        m = CitationMatrix(12, rows, cols, counts)
        d = distance_matrix(m, Direction.CITED, "relative_euclidean").to_dense()
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
            d1 = distance_matrix(m1, Direction.CITED, metric).to_dense()
            d2 = distance_matrix(m2, Direction.CITED, metric).to_dense()
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
                got = distance_matrix(m, axis, metric).to_dense()
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
        sym = cosine_matrix(m, Direction.CITED)
        path = tmp_path / "cos.mtx"
        export_matrix_market(sym, path)
        back = scipy.io.mmread(str(path)).toarray()
        assert np.allclose(back, sym.to_dense(), atol=1e-12)
