import numpy as np
import pytest

from conftest import cited_by_partners, random_sparse_counts
from interdisc import diversity
from interdisc.corpus import CitationMatrix, Direction, load_edge_list
from interdisc.diversity import diversity_all
from interdisc.netspace import binarize, cooccurrence_support, distance_matrix
from oracles import naive_rao
from test_netspace import cites_each, traced_peak


def matrix_from_dense(dense) -> CitationMatrix:
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    return CitationMatrix(dense.shape[0], rows, cols, dense[rows, cols].astype(np.int64))


def naive_values(m: CitationMatrix, direction: Direction, metric: str) -> list[float]:
    """`naive_rao` of every journal's distribution over its partners' block
    of `distance_matrix`; 0 for a journal with no vector."""
    axis = m.axis_matrix(direction)
    dist = distance_matrix(m, direction, metric)
    values = []
    for jid in range(m.n):
        lo, hi = axis.indptr[jid], axis.indptr[jid + 1]
        ids, w = axis.indices[lo:hi], axis.data[lo:hi].astype(np.float64)
        values.append(naive_rao(w / w.sum(), dist[np.ix_(ids, ids)]) if ids.size else 0.0)
    return values


def journal_0(m: CitationMatrix, metric: str = "one_minus_cosine", **options) -> float:
    return diversity_all(m, Direction.CITED, metric, **options)[0].d_value


def orthogonal(counts) -> CitationMatrix:
    """Journal 0 cited by partners 1..s with `counts`, every two of them
    orthogonal on the cited axis: at 1 - cosine = 1."""
    s = len(counts)
    return cited_by_partners(counts, [[s + i] for i in range(1, s + 1)])


METRICS = ("one_minus_cosine", "relative_euclidean")


class TestRaoStirling:
    """The Rao-Stirling sum as `diversity_all` gives it, on corpora whose
    partner distances are known."""

    @pytest.mark.parametrize("metric", METRICS)
    def test_concentrated_is_zero(self, metric):
        assert journal_0(cited_by_partners([7], [[2]]), metric) == 0.0

    def test_two_journals_distance_one(self):
        assert journal_0(orthogonal([1, 1])) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("metric", METRICS)
    def test_identical_patterns_zero_distance(self, metric):
        assert journal_0(cited_by_partners([1, 1], [[3], [3]]), metric) == 0.0

    @pytest.mark.filterwarnings("ignore:.*undefined distances")
    def test_naive_equivalence_random(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            rows, cols, counts = random_sparse_counts(rng, n, density=0.3)
            if len(rows) == 0:
                continue
            m = CitationMatrix(n, rows, cols, counts)
            for metric in METRICS:
                got = [r.d_value for r in diversity_all(m, Direction.CITED, metric)]
                want = naive_values(m, Direction.CITED, metric)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_gini_simpson_reduction(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            s = int(rng.integers(2, 21))
            counts = rng.integers(1, 1000, size=s)
            p = counts / counts.sum()
            expected = 1.0 - (p**2).sum()
            assert journal_0(orthogonal(counts)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:.*undefined distances")
    @pytest.mark.parametrize("metric", METRICS)
    def test_triangle_sum_halves(self, metric):
        rng = np.random.default_rng(42)
        m = CitationMatrix(6, *random_sparse_counts(rng, 6, density=0.5))
        for direction in (Direction.CITED, Direction.CITING):
            full = [r.d_value for r in diversity_all(m, direction, metric)]
            half = [r.d_value for r in diversity_all(m, direction, metric, triangle_sum=True)]
            np.testing.assert_allclose(half, np.divide(full, 2.0), rtol=0, atol=1e-15)
            assert any(full)

    def test_undefined_pairs_contribute_zero_with_warning(self):
        # partner 2 is never cited, so its distances are undefined; partners
        # 1 and 3 are orthogonal
        m = cited_by_partners([1, 2, 1], [[4], [], [5]])
        with pytest.warns(UserWarning, match="undefined"):
            result = diversity_all(m, Direction.CITED, "one_minus_cosine")[0]
        assert result.d_value == pytest.approx(2 * 0.25 * 0.25 * 1.0, abs=1e-15)
        assert result.undefined_pairs == 4

    def test_monotone_distance_sensitivity(self):
        # partners 2 and 5 share their one citer, then 5 moves to a citer of
        # its own: d(2, 5) goes 0 -> 1 and every other distance stays 1
        rng = np.random.default_rng(43)
        s = 8
        counts = rng.integers(1, 1000, size=s)
        citers = [[s + i] for i in range(1, s + 1)]
        base = journal_0(cited_by_partners(counts, citers[:4] + [citers[1]] + citers[5:]))
        assert journal_0(cited_by_partners(counts, citers)) > base


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
        c = registry.get("C")
        with pytest.warns(UserWarning, match="undefined"):  # D and E are never cited
            results = diversity_all(m, Direction.CITED, "relative_euclidean")
        for r in results:
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

    @pytest.mark.parametrize("direction", [Direction.CITED, Direction.CITING])
    def test_exclude_self_citations_leaves_the_matrix_as_it_was(self, direction):
        m = CitationMatrix(3, [0, 0, 0, 1, 2, 1], [0, 1, 2, 0, 1, 2], [10, 1, 1, 2, 2, 1])
        before = m.axis_matrix(direction).toarray()
        diversity_all(m, direction, "relative_euclidean", exclude_self_citations=True)
        assert np.array_equal(m.axis_matrix(direction).toarray(), before)
        assert np.array_equal(m.tocsr().toarray().diagonal(), [10, 0, 0])


@pytest.mark.filterwarnings("ignore:.*undefined distances")
class TestRelativeEuclideanBlocks:
    """Relative-Euclidean forms are built in blocks of partner rows, in
    groups that `jobs` threads share, and summed in block and group order.
    The (1 - cosine) products are built in blocks of journals under the
    same budget."""

    @staticmethod
    def corpus() -> CitationMatrix:
        rng = np.random.default_rng(46)
        rows, cols, counts = random_sparse_counts(rng, 60, density=0.15)
        keep = rows > 2  # journals 0-2 are never cited: undefined cited pairs
        return CitationMatrix(60, rows[keep], cols[keep], counts[keep])

    @pytest.mark.parametrize("direction", [Direction.CITED, Direction.CITING])
    def test_any_jobs_gives_the_same_bits(self, direction, monkeypatch):
        monkeypatch.setattr(diversity, "PAIR_BLOCK", 40)  # a block a row
        m = self.corpus()
        runs = [
            [r.d_value for r in diversity_all(m, direction, "relative_euclidean", jobs=jobs)]
            for jobs in (1, 2, 3, 8)
        ]
        assert np.any(np.array(runs[0]) > 0)
        for run in runs[1:]:
            assert np.array_equal(run, runs[0])

    @pytest.mark.parametrize("metric", ["one_minus_cosine", "relative_euclidean"])
    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("direction", [Direction.CITED, Direction.CITING])
    def test_one_row_a_block_matches_naive(self, direction, exclude_self, metric, monkeypatch):
        monkeypatch.setattr(diversity, "PAIR_BLOCK", 1)  # every row alone
        m = self.corpus()
        axis = m.axis_matrix(direction)
        dist = distance_matrix(m, direction, metric)
        results = diversity_all(
            m, direction, metric, exclude_self_citations=exclude_self, jobs=3
        )
        for r in results:
            jid = r.journal_id
            lo, hi = axis.indptr[jid], axis.indptr[jid + 1]
            ids, w = axis.indices[lo:hi], axis.data[lo:hi].astype(np.float64)
            if exclude_self:
                ids, w = ids[ids != jid], w[ids != jid]
            want = naive_rao(w / w.sum(), dist[np.ix_(ids, ids)]) if ids.size else 0.0
            assert r.d_value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("direction", [Direction.CITED, Direction.CITING])
    def test_plans_cover_each_row_once_and_change_no_cosine_bit(
        self, direction, exclude_self, monkeypatch
    ):
        plan, plans = diversity._fixed_row_blocks, []

        def recorded(n, width):
            plans.append((n, width, plan(n, width)))
            return plans[-1][2]

        monkeypatch.setattr(diversity, "_fixed_row_blocks", recorded)
        m = self.corpus()
        runs = {metric: [] for metric in METRICS}
        # a block a row (1, 40); 21 cosine or 7 relative-Euclidean rows a
        # block, the last one shorter; one block
        for budget in (1, 40, 7 * 3 * m.n, diversity.PAIR_BLOCK):
            monkeypatch.setattr(diversity, "PAIR_BLOCK", budget)
            for metric, width in zip(METRICS, (m.n, 3 * m.n)):
                results = diversity_all(m, direction, metric, exclude_self_citations=exclude_self)
                runs[metric].append([r.d_value for r in results])
                [(n, used_width, blocks)] = plans
                plans.clear()
                rows = max(1, budget // width)
                assert (n, used_width) == (m.n, width)
                assert [stop - start for start, stop in blocks[:-1]] == [rows] * (len(blocks) - 1)
                covered = np.concatenate([np.arange(start, stop) for start, stop in blocks])
                assert np.array_equal(covered, np.arange(m.n))  # each row exactly once
        cosine, euclidean = (np.array(runs[metric]) for metric in METRICS)
        assert np.any(cosine[0] > 0)
        for run in cosine[1:]:
            assert np.array_equal(run, cosine[0])
        for run in euclidean[1:]:
            np.testing.assert_allclose(run, euclidean[0], rtol=1e-12)

    def test_peak_follows_the_block_not_the_pairs(self, monkeypatch):
        # ~0.4M partner pairs of the cited distributions (the citing
        # co-occurrence edges); one float64 CSR of them takes 12 bytes a pair
        m = cites_each(1000, 40)
        pairs = binarize(cooccurrence_support(m, Direction.CITING)).edge_count
        monkeypatch.setattr(diversity, "PAIR_BLOCK", 1 << 13)  # 2 partner rows a block
        blocked = traced_peak(diversity_all, m, Direction.CITED, "relative_euclidean")
        monkeypatch.setattr(diversity, "PAIR_BLOCK", 1 << 40)  # one block
        whole = traced_peak(diversity_all, m, Direction.CITED, "relative_euclidean")
        assert blocked < 16 * pairs
        assert blocked < whole / 4

    def test_dense_last_rows_stay_in_the_block(self, monkeypatch):
        # four journals cite all 2,000, so every partner pairs with every
        # other: the last partner rows hold few upper-triangle pairs each,
        # but the products a block makes still have whole rows of 2,000
        n, rng = 2000, np.random.default_rng(5)
        citing = np.concatenate([np.repeat(np.arange(n), 3), np.repeat(np.arange(4), n)])
        cited = np.concatenate([rng.integers(0, n, size=3 * n), np.tile(np.arange(n), 4)])
        m = CitationMatrix(n, cited, citing, rng.integers(1, 20, size=citing.size))
        monkeypatch.setattr(diversity, "PAIR_BLOCK", 1 << 17)  # 21 partner rows a block
        blocked = traced_peak(diversity_all, m, Direction.CITED, "relative_euclidean")
        # 12 bytes a CSR cell of the three products, their temporaries, and
        # about 1.6 MB that the run holds outside the blocks; blocks packed
        # by their pairs above the diagonal instead peak near 98 MB here
        assert blocked < 32 * diversity.PAIR_BLOCK
