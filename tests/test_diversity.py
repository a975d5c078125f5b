import numpy as np
import pytest

from conftest import random_sparse_counts
from interdisc.corpus import CitationMatrix, Direction, load_edge_list
from interdisc.diversity import diversity_all, rao_stirling
from interdisc.errors import ContractError
from interdisc.netspace import distance_matrix
from oracles import naive_rao


def matrix_from_dense(dense) -> CitationMatrix:
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return CitationMatrix(dense.shape[0], rows, cols, dense[rows, cols].astype(np.int64))


def zero_diag(d):
    d = np.asarray(d, dtype=np.float64).copy()
    np.fill_diagonal(d, 0.0)
    return d


class TestRaoStirling:
    def test_concentrated_is_zero(self):
        assert rao_stirling([1.0], np.zeros((1, 1))) == 0.0

    def test_two_journals_distance_one(self):
        d = zero_diag([[0, 1], [1, 0]])
        assert rao_stirling([0.5, 0.5], d) == pytest.approx(0.5, abs=1e-15)

    def test_identical_patterns_zero_distance(self):
        d = np.zeros((2, 2))
        assert rao_stirling([0.5, 0.5], d) == 0.0

    def test_naive_equivalence_random(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            s = int(rng.integers(1, 21))
            p = rng.random(s)
            p /= p.sum()
            d = rng.random((s, s))
            d = zero_diag((d + d.T) / 2.0)
            assert rao_stirling(p, d) == pytest.approx(naive_rao(p, d), abs=1e-12)

    def test_gini_simpson_reduction(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            s = int(rng.integers(2, 21))
            p = rng.random(s)
            p /= p.sum()
            d = zero_diag(np.ones((s, s)))
            expected = 1.0 - (p**2).sum()
            assert rao_stirling(p, d) == pytest.approx(expected, abs=1e-12)

    def test_triangle_sum_halves(self):
        rng = np.random.default_rng(42)
        p = rng.random(6)
        p /= p.sum()
        d = rng.random((6, 6))
        d = zero_diag((d + d.T) / 2.0)
        assert rao_stirling(p, d, triangle_sum=True) == pytest.approx(
            rao_stirling(p, d) / 2.0, abs=1e-15
        )

    def test_unnormalized_p_rejected(self):
        d = zero_diag(np.ones((2, 2)))
        with pytest.raises(ContractError):
            rao_stirling([0.5, 0.6], d)

    def test_asymmetric_distance_rejected(self):
        d = np.array([[0.0, 0.3], [0.7, 0.0]])
        with pytest.raises(ContractError):
            rao_stirling([0.5, 0.5], d)

    def test_nonzero_diagonal_rejected(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ContractError):
            rao_stirling([0.5, 0.5], d)

    def test_undefined_pairs_contribute_zero_with_warning(self):
        d = np.array(
            [[0.0, np.nan, 0.4], [np.nan, 0.0, np.nan], [0.4, np.nan, 0.0]]
        )
        p = np.array([0.25, 0.5, 0.25])
        with pytest.warns(UserWarning, match="undefined"):
            value = rao_stirling(p, d)
        assert value == pytest.approx(2 * 0.25 * 0.25 * 0.4, abs=1e-15)

    def test_monotone_distance_sensitivity(self):
        rng = np.random.default_rng(43)
        s = 8
        p = rng.random(s)
        p /= p.sum()
        d = rng.random((s, s))
        d = zero_diag((d + d.T) / 2.0)
        base = rao_stirling(p, d)
        d2 = d.copy()
        d2[2, 5] += 0.1
        d2[5, 2] += 0.1
        assert rao_stirling(p, d2) > base


class TestDiversityAll:
    def test_diagonal_only_journal_degenerate(self):
        m = CitationMatrix(3, [0, 1, 1, 2], [0, 0, 2, 1], [5, 2, 3, 1])
        results = diversity_all(m, Direction.CITED, "one_minus_cosine")
        r0 = results[0]
        assert r0.degenerate and r0.d_value == 0.0 and not r0.missing

    def test_empty_journal_missing(self):
        m = CitationMatrix(3, [0, 1], [1, 0], [4, 2])
        results = diversity_all(m, Direction.CITED, "one_minus_cosine")
        assert results[2].missing and results[2].degenerate

    def test_matches_naive_on_dense_path(self):
        rng = np.random.default_rng(44)
        for metric in ("one_minus_cosine", "relative_euclidean"):
            rows, cols, counts = random_sparse_counts(rng, 12, density=0.35)
            m = CitationMatrix(12, rows, cols, counts)
            dist = distance_matrix(m, Direction.CITED, metric)
            axis = m.axis_matrix(Direction.CITED)
            results = diversity_all(m, Direction.CITED, metric)
            for r in results:
                if r.missing or r.degenerate:
                    continue
                lo, hi = axis.indptr[r.journal_id], axis.indptr[r.journal_id + 1]
                ids = axis.indices[lo:hi]
                p = axis.data[lo:hi] / axis.data[lo:hi].sum()
                want = naive_rao(p, dist[np.ix_(ids, ids)])
                assert r.d_value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_matches_naive_with_undefined_pairs(self, exclude_self):
        rng = np.random.default_rng(45)
        rows, cols, counts = random_sparse_counts(rng, 30, density=0.2)
        # journals 0-2 cite others but are never cited: their empty cited
        # vectors make distances to them undefined for every journal they cite
        keep = rows > 2
        m = CitationMatrix(30, rows[keep], cols[keep], counts[keep])
        total_undef = 0
        for direction in (Direction.CITED, Direction.CITING):
            axis = m.axis_matrix(direction)
            for metric in ("one_minus_cosine", "relative_euclidean"):
                dist = distance_matrix(m, direction, metric)
                results = diversity_all(
                    m, direction, metric, exclude_self_citations=exclude_self
                )
                for r in results:
                    jid = r.journal_id
                    lo, hi = axis.indptr[jid], axis.indptr[jid + 1]
                    ids, w = axis.indices[lo:hi], axis.data[lo:hi].astype(np.float64)
                    assert r.missing == (ids.size == 0)
                    assert r.degenerate == (np.count_nonzero(ids != jid) == 0)
                    if exclude_self:
                        ids, w = ids[ids != jid], w[ids != jid]
                    if ids.size == 0:
                        assert r.d_value == 0.0 and r.undefined_pairs == 0
                        continue
                    block = dist[np.ix_(ids, ids)]
                    nan_off = np.isnan(block)
                    np.fill_diagonal(nan_off, False)
                    assert r.undefined_pairs == int(nan_off.sum())
                    assert r.d_value == pytest.approx(naive_rao(w / w.sum(), block), abs=1e-12)
                    total_undef += r.undefined_pairs
        assert total_undef > 0  # the fixture genuinely exercises undefined pairs

    def test_near_identical_distributions_keep_their_digits(self):
        # equal rows 1 and 3 sit at distance 0; the Gram form alone put
        # ~5e-9 there and moved these diversities by ~1e-10
        counts = np.full((10, 10), 3)
        counts[1] = counts[3] = [3, 3, 3, 1, 3, 3, 3, 3, 2, 3]
        results = diversity_all(matrix_from_dense(counts), Direction.CITED, "relative_euclidean")
        q = counts / counts.sum(axis=1, keepdims=True)
        explicit = np.sqrt(((q[:, None, :] - q[None, :, :]) ** 2).sum(axis=-1))
        for r in results:
            assert r.d_value == pytest.approx(naive_rao(q[r.journal_id], explicit), abs=1e-15)

    def test_pair_whose_gram_form_cancels_to_exactly_zero_is_recomputed(self, tmp_path):
        # d(A, B)^2 = |q_A|^2 + |q_B|^2 - 2 q_A.q_B rounds to exactly 0 here, where
        # the true distance is 7.07e-9; C's diversity is half of it
        edges = tmp_path / "e.csv"
        edges.write_text(
            "citing,cited,count\nD,A,100000000\nE,A,100000001\nD,B,100000001\n"
            "E,B,100000000\nA,C,1\nB,C,1\n",
            encoding="utf-8",
        )
        registry, m = load_edge_list(edges)
        dist = distance_matrix(m, Direction.CITED, "relative_euclidean")
        axis = m.axis_matrix(Direction.CITED)
        c = registry.id_of("C")
        for r in diversity_all(m, Direction.CITED, "relative_euclidean"):
            lo, hi = axis.indptr[r.journal_id], axis.indptr[r.journal_id + 1]
            ids = axis.indices[lo:hi]
            p = axis.data[lo:hi] / axis.data[lo:hi].sum()
            want = naive_rao(p, dist[np.ix_(ids, ids)]) if ids.size else 0.0
            assert abs(r.d_value - want) <= 1e-12
            if r.journal_id == c:
                assert r.d_value == pytest.approx(3.53553385e-09, rel=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(46)
        rows, cols, counts = random_sparse_counts(rng, 10, density=0.4)
        base = CitationMatrix(10, rows, cols, counts)
        base_results = diversity_all(base, Direction.CITED, "one_minus_cosine")
        for c in (1000,):
            scaled_counts = counts.copy()
            scaled_counts[rows == 4] *= c
            scaled = CitationMatrix(10, rows, cols, scaled_counts)
            got = diversity_all(scaled, Direction.CITED, "one_minus_cosine")
            assert got[4].d_value == pytest.approx(base_results[4].d_value, abs=1e-9)

    def test_bounds_one_minus_cosine(self):
        rng = np.random.default_rng(47)
        rows, cols, counts = random_sparse_counts(rng, 40, density=0.25)
        m = CitationMatrix(40, rows, cols, counts)
        for r in diversity_all(m, Direction.CITED, "one_minus_cosine"):
            if not r.missing:
                assert 0.0 <= r.d_value <= 1.0

    def test_bridge_beats_cluster_members(self):
        # Two disjoint 4-journal clusters plus a bridge citing both evenly:
        # the bridge's citing diversity must exceed every within-cluster one.
        cells = [
            (cited, citing)
            for cluster in (range(4), range(4, 8))
            for citing in cluster
            for cited in cluster
            if cited != citing
        ]
        bridge = 8
        cells += [(cited, bridge) for cited in (0, 1, 4, 5)]
        rows, cols = zip(*cells)
        m = CitationMatrix(9, rows, cols, [3] * len(cells))
        results = diversity_all(m, Direction.CITING, "one_minus_cosine")
        bridge_value = results[bridge].d_value
        for jid in range(8):
            assert bridge_value > results[jid].d_value

    def test_exclude_self_citations_flag(self):
        m = CitationMatrix(3, [0, 0, 0, 1, 2, 1], [0, 1, 2, 0, 1, 2], [10, 1, 1, 2, 2, 1])
        keep = diversity_all(m, Direction.CITED, "one_minus_cosine")
        drop = diversity_all(
            m, Direction.CITED, "one_minus_cosine", exclude_self_citations=True
        )
        # dropping dominant self-citation mass boosts the off-diagonal products
        assert drop[0].d_value > keep[0].d_value
