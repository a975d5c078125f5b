"""Property tests: the indicator table under relabelling and transposition.

Random count matrices with at most 10 journals; every catalogue column,
every support column and every degeneracy flag is compared within 1e-12.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import indicator_table
from interdisc.corpus import CitationMatrix
from interdisc.pipeline import INDICATORS

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
