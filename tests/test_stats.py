import numpy as np
import pytest

from interdisc.errors import (
    RankError,
    UndefinedCorrelationError,
)
from interdisc.stats import (
    IndicatorTable,
    pca,
    rank_column,
    significance_stars,
    spearman,
    spearman_matrix,
    varimax,
    varimax_criterion,
)
from oracles import naive_spearman, varimax_grid_criterion


def make_table(columns: dict) -> IndicatorTable:
    n = len(next(iter(columns.values())))
    table = IndicatorTable(list(range(n)), [f"J{i}" for i in range(n)])
    for name, values in columns.items():
        table.add_column(name, values)
    return table


class TestSpearman:
    def test_identity_is_exactly_one(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman(x, x).rho == 1.0

    def test_monotone_transform_exact(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            x = rng.random(30)
            assert spearman(x, np.exp(x)).rho == 1.0
            assert spearman(x, -(x**3)).rho == -1.0

    def test_reversed_is_minus_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(x, x[::-1].copy() * 2).rho == -1.0

    def test_tie_handling_matches_oracle(self):
        x = np.array([1.0, 2.0, 2.0, 4.0])
        y = np.array([2.0, 1.0, 3.0, 4.0])
        assert spearman(x, y).rho == pytest.approx(naive_spearman(x, y), abs=1e-12)

    def test_random_tied_vectors_match_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(500):
            n = int(rng.integers(4, 40))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            want = naive_spearman(x, y)
            assert spearman(x, y).rho == pytest.approx(want, abs=1e-12)

    def test_monotone_invariance_with_ties(self):
        rng = np.random.default_rng(52)
        x = rng.integers(0, 5, size=25).astype(float)
        y = rng.random(25)
        base = spearman(x, y).rho
        assert spearman(3.0 * x + 2.0, y).rho == pytest.approx(base, abs=1e-15)
        assert spearman(np.exp(x), y).rho == pytest.approx(base, abs=1e-15)

    def test_missing_pairs_dropped(self):
        x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        y = np.array([2.0, 4.0, 9.0, 8.0, np.nan])
        res = spearman(x, y)
        assert res.n == 3
        assert res.rho == 1.0

    def test_constant_column_error(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_few_observations(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1.0, 2.0], [2.0, 1.0])

    def test_p_value_properties(self):
        rng = np.random.default_rng(53)
        x = rng.random(200)
        noise = x + rng.random(200) * 0.05
        strong = spearman(x, noise)
        assert strong.p_value < 1e-10
        unrelated = spearman(x, rng.random(200))
        assert unrelated.p_value > 1e-4
        assert spearman(x, x).p_value == 0.0


class TestSpearmanMatrix:
    def test_identical_columns(self):
        table = make_table({"a": [1.0, 2.0, 3.0, 4.0], "b": [1.0, 2.0, 3.0, 4.0]})
        corr = spearman_matrix(table, ["a", "b"])
        assert corr.rho[0, 1] == 1.0
        assert corr.rho[0, 0] == 1.0

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(54)
        cols = {name: rng.random(30) for name in "abcd"}
        table = make_table(cols)
        corr = spearman_matrix(table, list("abcd"))
        for i, ci in enumerate("abcd"):
            for j, cj in enumerate("abcd"):
                if i == j:
                    continue
                want = spearman(cols[ci], cols[cj])
                assert corr.rho[i, j] == want.rho
                assert corr.n[i, j] == want.n

    def test_pairwise_n_varies_with_missing(self):
        table = make_table(
            {
                "a": [1.0, 2.0, 3.0, 4.0, 5.0],
                "b": [5.0, 4.0, 3.0, 2.0, np.nan],
                "c": [1.0, np.nan, 2.0, 3.0, 4.0],
            }
        )
        corr = spearman_matrix(table, ["a", "b", "c"])
        assert corr.n[0, 1] == 4
        assert corr.n[0, 2] == 4
        assert corr.n[1, 2] == 3

    def test_mass_transfer_sign_structure(self):
        # progressive mass transfers make vectors more uneven: Gini rises,
        # entropy falls, so the two indicator columns must correlate
        # negatively.
        from interdisc.vector_indicators import (
            gini_from_counts,
            shannon_entropy_from_counts,
        )

        x = np.full(12, 20.0)
        ginis, entropies = [], []
        rng = np.random.default_rng(55)
        for _ in range(40):
            lo, hi = rng.choice(12, size=2, replace=False)
            if x[lo] > x[hi]:
                lo, hi = hi, lo
            if x[lo] > 1:
                x[lo] -= 1
                x[hi] += 1
            ginis.append(gini_from_counts(x))
            entropies.append(shannon_entropy_from_counts(x))
        table = make_table({"gini": ginis, "entropy": entropies})
        corr = spearman_matrix(table, ["gini", "entropy"])
        assert corr.rho[0, 1] < -0.9


def _latent_table(rng, n=400, noise=0.4):
    """Three latent factors, three indicator columns each."""
    latents = rng.normal(size=(n, 3))
    columns = {}
    for block in range(3):
        for rep in range(3):
            columns[f"b{block}_{rep}"] = (
                0.85 * latents[:, block] + noise * rng.normal(size=n)
            )
    return make_table(columns), list(columns)


class TestPca:
    def test_two_identical_columns_rank1(self):
        rng = np.random.default_rng(56)
        x = rng.random(50)
        table = make_table({"a": x, "b": 2.0 * x + 1.0})
        result = pca(table, ["a", "b"], k=1)
        assert result.variance_explained[0] == pytest.approx(100.0, abs=1e-6)
        with pytest.raises(RankError):
            pca(table, ["a", "b"], k=2)

    def test_identity_correlation_eigenvalues(self):
        rng = np.random.default_rng(57)
        n = 60000
        table = make_table({c: rng.normal(size=n) for c in "abc"})
        result = pca(table, ["a", "b", "c"], k=3)
        assert np.allclose(result.eigenvalues, 1.0, atol=0.05)

    def test_three_block_structure_explains_generating_share(self):
        rng = np.random.default_rng(58)
        table, columns = _latent_table(rng)
        result = pca(table, columns, k=3)
        generating_share = 100.0 * 0.85**2 / (0.85**2 + 0.4**2)
        cumulative = result.variance_explained[:3].sum()
        assert cumulative >= generating_share - 2.0

    def test_sign_convention(self):
        rng = np.random.default_rng(59)
        table, columns = _latent_table(rng)
        result = pca(table, columns, k=3)
        for j in range(3):
            col = result.loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_reconstruction_error_bounded(self):
        rng = np.random.default_rng(60)
        table, columns = _latent_table(rng)
        result = pca(table, columns, k=3)
        mask = table.listwise_mask(columns)
        data = np.column_stack([table.column(c)[mask] for c in columns])
        from interdisc.stats import _pearson_correlation_matrix

        corr = _pearson_correlation_matrix(data)
        approx = result.loadings @ result.loadings.T
        discarded = result.eigenvalues[3:].sum()
        err = np.abs(corr - approx).max()
        assert err <= discarded + 1e-9


class TestVarimax:
    def test_identity_pattern_unchanged(self):
        loadings = np.array(
            [
                [0.9, 0.0],
                [0.8, 0.0],
                [0.85, 0.0],
                [0.0, 0.7],
                [0.0, 0.6],
                [0.0, 0.65],
            ]
        )
        solution = varimax(loadings)
        assert np.allclose(solution.rotation, np.eye(2), atol=1e-6)
        assert np.allclose(solution.loadings, loadings, atol=1e-6)
        assert solution.converged

    def test_k1_returned_unchanged(self):
        loadings = np.array([[0.5], [0.7], [0.2]])
        solution = varimax(loadings)
        assert solution.iterations == 0
        assert solution.converged
        assert np.array_equal(solution.loadings, loadings)
        assert np.array_equal(solution.rotation, np.eye(1))

    def test_grid_oracle_k2(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            loadings = rng.normal(size=(6, 2))
            solution = varimax(loadings, kaiser_normalize=False)
            got = varimax_criterion(solution.loadings)
            best, _ = varimax_grid_criterion(loadings, resolution=1e-4)
            assert got == pytest.approx(best, abs=1e-6)
            assert got >= best - 1e-6

    def test_orthogonality_and_communalities(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            p = int(rng.integers(3, 13))
            k = int(rng.integers(2, 5))
            loadings = rng.normal(size=(p, k))
            solution = varimax(loadings)
            r = solution.rotation
            assert np.allclose(r.T @ r, np.eye(k), atol=1e-8)
            before = (loadings**2).sum(axis=1)
            after = (solution.loadings**2).sum(axis=1)
            assert np.allclose(before, after, atol=1e-8)
            total_before = (loadings**2).sum()
            total_after = (solution.loadings**2).sum()
            assert total_after == pytest.approx(total_before, abs=1e-8)

    def test_criterion_never_decreases(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            loadings = rng.normal(size=(8, 3))
            solution = varimax(loadings, kaiser_normalize=False)
            assert varimax_criterion(solution.loadings) >= varimax_criterion(
                loadings
            ) - 1e-12

    def test_rotation_reproduces_loadings(self):
        rng = np.random.default_rng(64)
        loadings = rng.normal(size=(7, 3))
        solution = varimax(loadings)
        assert np.allclose(loadings @ solution.rotation, solution.loadings, atol=1e-10)

    def test_three_block_loadings_align(self):
        rng = np.random.default_rng(65)
        table, columns = _latent_table(rng)
        result = pca(table, columns, k=3)
        solution = varimax(result.loadings)
        assert solution.converged
        # every column loads at least 0.7 on exactly one rotated factor
        for i in range(9):
            row = np.abs(solution.loadings[i])
            assert row.max() >= 0.7
        # and each block maps to a distinct factor
        factors = {
            tuple(np.argmax(np.abs(solution.loadings[3 * b : 3 * b + 3]), axis=1))
            for b in range(3)
        }
        tops = [np.argmax(np.abs(solution.loadings[3 * b])) for b in range(3)]
        assert len(set(tops)) == 3


class TestRankColumn:
    def test_descending_simple(self):
        assert list(rank_column([3.0, 1.0, 2.0], "descending")) == [1.0, 3.0, 2.0]

    def test_average_ties(self):
        assert list(rank_column([5.0, 5.0, 1.0], "descending")) == [1.5, 1.5, 3.0]

    def test_ascending(self):
        assert list(rank_column([3.0, 1.0, 2.0], "ascending")) == [3.0, 1.0, 2.0]

    def test_missing_ranked_last(self):
        ranks = rank_column([2.0, np.nan, 1.0, np.nan], "ascending")
        assert ranks[0] == 2.0 and ranks[2] == 1.0
        assert ranks[1] == ranks[3] == 3.5

    def test_bad_order(self):
        with pytest.raises(ValueError):
            rank_column([1.0], "sideways")


class TestStars:
    def test_thresholds(self):
        assert significance_stars(0.004) == "**"
        assert significance_stars(0.02) == "*"
        assert significance_stars(0.2) == ""
