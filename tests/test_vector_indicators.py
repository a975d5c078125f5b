import numpy as np
import pytest

from conftest import indicator_table
from interdisc.corpus import CitationMatrix, Direction
from interdisc.errors import UndefinedIndicatorError
from interdisc.vector_indicators import (
    entropy_normalized_from_counts,
    gini_from_counts,
    gini_normalized_from_counts,
    shannon_entropy_from_counts,
    vector_indicator_columns,
)
from oracles import entropy_direct, gini_pairwise


class TestGini:
    def test_even_distribution_is_zero(self):
        for c in (1, 7, 1000):
            assert gini_from_counts(np.full(3, c)) == 0.0

    def test_1234_quarter(self):
        # pairwise oracle: sum|x_i-x_j| = 20, 2 n^2 mean = 80
        assert gini_from_counts([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-15)
        assert gini_pairwise([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-15)

    def test_spike_vector_matches_pairwise_oracle(self):
        x = [1, 1, 1, 97]
        assert gini_from_counts(x) == pytest.approx(gini_pairwise(x), abs=1e-12)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = rng.integers(2, 51)
            x = rng.integers(1, 1000, size=n).astype(float)
            assert gini_from_counts(x) == pytest.approx(gini_pairwise(x), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            x = rng.integers(1, 500, size=n).astype(float)
            g = gini_from_counts(x)
            assert 0.0 <= g <= (n - 1) / n + 1e-12
            if n >= 2:
                gn = gini_normalized_from_counts(x)
                assert 0.0 <= gn <= 1.0 + 1e-12

    def test_single_element_zero(self):
        assert gini_from_counts([5]) == 0.0
        assert gini_normalized_from_counts([5]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(UndefinedIndicatorError):
            gini_from_counts([])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.integers(1, 50, size=12).astype(float)
        for c in (3.0, 0.001, 1000.0):
            assert gini_from_counts(c * x) == pytest.approx(
                gini_from_counts(x), abs=1e-12
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.integers(1, 50, size=15).astype(float)
        for _ in range(5):
            assert gini_from_counts(rng.permutation(x)) == gini_from_counts(x)

    def test_tie_shuffling_is_invariant(self):
        # blocks of tied values in any sort order give the same result
        x = np.array([2.0, 2.0, 2.0, 5.0, 5.0, 9.0])
        base = gini_from_counts(x)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert gini_from_counts(rng.permutation(x)) == base

    def test_normalized_reaches_one_in_limit(self):
        x = np.array([1e-9, 1e-9, 1e-9, 1e9])
        assert gini_normalized_from_counts(x) == pytest.approx(1.0, abs=1e-6)


class TestGiniNormalized:
    def test_1234_third(self):
        assert gini_normalized_from_counts([1, 2, 3, 4]) == pytest.approx(
            1.0 / 3.0, abs=1e-15
        )

    def test_even_pair_zero(self):
        assert gini_normalized_from_counts([4, 4]) == 0.0

    def test_degenerate_flagging(self):
        matrix = CitationMatrix(2, [0], [0], [9])
        table = indicator_table(matrix, metrics=())
        assert table.flags["degenerate_cited"][0]
        assert table.column("gini_cited")[0] == 0.0
        assert table.column("gini_normalized_cited")[0] == 0.0


class TestEntropy:
    def test_uniform_8207_bits(self):
        h = shannon_entropy_from_counts(np.ones(8207))
        assert h == pytest.approx(13.00, abs=0.005)

    def test_concentrated_zero(self):
        assert shannon_entropy_from_counts([123]) == 0.0

    def test_half_quarter_quarter(self):
        assert shannon_entropy_from_counts([2, 1, 1]) == pytest.approx(1.5, abs=1e-15)

    def test_direct_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = rng.integers(1, 51)
            x = rng.integers(1, 1000, size=n).astype(float)
            assert shannon_entropy_from_counts(x) == pytest.approx(
                entropy_direct(x), abs=1e-10
            )

    def test_bound_log2_n(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = int(rng.integers(1, 80))
            x = rng.integers(1, 100, size=n).astype(float)
            assert shannon_entropy_from_counts(x) <= np.log2(max(n, 2)) + 1e-12

    def test_scale_invariance(self):
        x = np.array([3.0, 1.0, 8.0, 8.0])
        for c in (2.0, 0.5, 100.0):
            assert shannon_entropy_from_counts(c * x) == pytest.approx(
                shannon_entropy_from_counts(x), abs=1e-12
            )


class TestEntropyNormalized:
    def test_uniform_exactly_one(self):
        for n in (2, 3, 5, 8, 17, 100):
            for c in (1, 3, 7):
                assert entropy_normalized_from_counts(np.full(n, c)) == 1.0

    def test_half_quarter_quarter(self):
        expected = 1.5 / np.log2(3)
        assert entropy_normalized_from_counts([2, 1, 1]) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.946, abs=5e-4)

    def test_degenerate(self):
        assert entropy_normalized_from_counts([9]) == 0.0

    def test_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            x = rng.integers(1, 50, size=n).astype(float)
            assert 0.0 <= entropy_normalized_from_counts(x) <= 1.0


class TestMassTransfer:
    def test_transfer_never_decreases_gini_or_increases_entropy(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            x = rng.integers(2, 60, size=n).astype(float)
            i, j = rng.choice(n, size=2, replace=False)
            lo, hi = (i, j) if x[i] <= x[j] else (j, i)
            if x[lo] <= 1:
                continue
            y = x.copy()
            y[lo] -= 1.0  # keep support intact
            y[hi] += 1.0
            assert gini_from_counts(y) >= gini_from_counts(x) - 1e-12
            assert shannon_entropy_from_counts(y) <= shannon_entropy_from_counts(x) + 1e-12


class TestIncludeZeros:
    def test_population_switch_changes_gini(self, corpus3):
        _, matrix = corpus3
        axis = matrix.axis_matrix(Direction.CITED)  # A (row 1) cited by B(3) and C(2)
        default = vector_indicator_columns(axis)[0][1]
        padded = vector_indicator_columns(axis, population=matrix.n)[0][1]
        # padding with the third journal's zero makes the distribution less even
        assert padded > default

    def test_include_zeros_matches_manual_population(self, corpus3):
        _, matrix = corpus3
        axis = matrix.axis_matrix(Direction.CITED)
        manual = axis.toarray()[1]
        assert vector_indicator_columns(axis, population=matrix.n)[0][1] == gini_from_counts(
            manual
        )


class TestAllZeroInput:
    @pytest.mark.parametrize(
        "fn",
        [
            gini_from_counts,
            gini_normalized_from_counts,
            shannon_entropy_from_counts,
            entropy_normalized_from_counts,
        ],
    )
    @pytest.mark.parametrize("x", [[], [0, 0, 0], [0], [3, -1]])
    def test_raises(self, fn, x):
        with pytest.raises(UndefinedIndicatorError):
            fn(x)


class TestTableColumnsAgainstOracles:
    """Every journal's four vector columns from the table path vs the oracles."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(5)
        n = 24
        dense = np.where(rng.random((n, n)) < 0.3, rng.integers(1, 40, (n, n)), 0)
        dense[0, :] = 0  # journal 0 is never cited: empty cited vector
        dense[:, 1] = 0  # journal 1 cites nothing: empty citing vector
        dense[2, :] = 0
        dense[2, 5] = 7  # single-cell cited vector
        dense[:, 3] = 0
        dense[3, 3] = 4  # single-cell citing vector, a self-citation
        dense[4, :] = 0
        dense[4, [6, 7, 8]] = 5  # uniform cited vector
        rows, cols = np.nonzero(dense)
        return dense, CitationMatrix(n, rows, cols, dense[rows, cols])

    @pytest.mark.parametrize("include_zeros", [False, True])
    def test_columns_match_oracles(self, include_zeros):
        dense, matrix = self.corpus()
        n = matrix.n
        table = indicator_table(matrix, gini_include_zeros=include_zeros, metrics=())
        for direction, vectors in (("cited", dense), ("citing", dense.T)):
            support = (vectors > 0).sum(axis=1)
            assert np.array_equal(table.flags[f"degenerate_{direction}"], support <= 1)
            columns = {
                name: table.column(f"{name}_{direction}")
                for name in ("gini", "gini_normalized", "entropy", "entropy_normalized")
            }
            for j in range(n):
                counts = vectors[j][vectors[j] > 0].astype(float)
                if counts.size == 0:
                    assert all(np.isnan(col[j]) for col in columns.values())
                    continue
                population = vectors[j].astype(float) if include_zeros else counts
                size = population.size
                gini = gini_pairwise(population)
                gini_norm = gini * size / (size - 1) if size > 1 else 0.0
                entropy = entropy_direct(counts)
                entropy_norm = entropy / np.log2(counts.size) if counts.size > 1 else 0.0
                assert columns["gini"][j] == pytest.approx(gini, abs=1e-12)
                assert columns["gini_normalized"][j] == pytest.approx(gini_norm, abs=1e-12)
                assert columns["entropy"][j] == pytest.approx(entropy, abs=1e-12)
                assert columns["entropy_normalized"][j] == pytest.approx(
                    entropy_norm, abs=1e-12
                )
            # the corpus has empty, single-cell and multi-cell journals on both sides
            assert (support == 0).any() and (support == 1).any() and (support > 1).any()
