import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdisc import synth
from interdisc.corpus import CitationMatrix, canonical_name, load_edge_list
from interdisc.errors import DataError
from interdisc.synth import (
    BridgeSpec,
    GeneralistSpec,
    SyntheticCorpus,
    SyntheticSpec,
    generate,
    uniform_spec,
    write_corpus,
)


def hand_built(names, cells) -> SyntheticCorpus:
    """A corpus of `names` whose rows are the (cited, citing, count) `cells`."""
    cells = np.array(cells, dtype=np.int64).reshape(-1, 3)
    return SyntheticCorpus(
        names=list(names),
        cluster_of=np.full(len(names), -1),
        bridge_ids=[],
        generalist_ids=[],
        cited=cells[:, 0],
        citing=cells[:, 1],
        counts=cells[:, 2],
        spec=SyntheticSpec(cluster_sizes=[len(names)]),
    )


class TestSpecValidation:
    def test_empty_clusters_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(cluster_sizes=[]).validate()
        with pytest.raises(DataError):
            SyntheticSpec(cluster_sizes=[10, 0]).validate()

    def test_rates_must_be_probabilities(self):
        with pytest.raises(DataError):
            SyntheticSpec([5, 5], within_rate=1.5).validate()
        with pytest.raises(DataError):
            SyntheticSpec([5, 5], leakage_rate=-0.1).validate()

    def test_allocations_must_sum_to_one(self):
        with pytest.raises(DataError):
            SyntheticSpec(
                [5, 5], bridges=[BridgeSpec("b", [0.9, 0.2])]
            ).validate()
        with pytest.raises(DataError):
            SyntheticSpec(
                [5, 5], generalists=[GeneralistSpec("g", [0.5])]
            ).validate()

    def test_valid_spec_passes(self):
        uniform_spec([5, 5, 5], n_bridges=1, n_generalists=1).validate()


class TestGeneration:
    def test_zero_leakage_is_block_diagonal(self):
        spec = uniform_spec([6, 6], within_rate=0.9, leakage_rate=0.0, seed=1)
        corpus = generate(spec)
        cluster = corpus.cluster_of
        for cited, citing in zip(corpus.cited, corpus.citing):
            assert cluster[cited] == cluster[citing]

    def test_bridges_span_clusters(self):
        spec = uniform_spec(
            [10, 10, 10], within_rate=0.8, leakage_rate=0.0, n_bridges=1, seed=2
        )
        corpus = generate(spec)
        bid = corpus.bridge_ids[0]
        cited_by = {
            int(corpus.cluster_of[j])
            for i, j in zip(corpus.cited, corpus.citing)
            if i == bid and j != bid
        }
        cites_into = {
            int(corpus.cluster_of[i])
            for i, j in zip(corpus.cited, corpus.citing)
            if j == bid and i != bid
        }
        assert cited_by == {0, 1, 2}
        assert cites_into == {0, 1, 2}

    def test_generalist_cited_by_nearly_everyone(self):
        spec = uniform_spec(
            [10, 10, 10], n_generalists=1, generalist_volume=12.0, seed=3
        )
        corpus = generate(spec)
        gid = corpus.generalist_ids[0]
        citers = {int(j) for i, j in zip(corpus.cited, corpus.citing) if i == gid}
        assert len(citers) >= 28

    def test_same_seed_identical_files(self, tmp_path):
        spec = uniform_spec([8, 8], n_bridges=1, n_generalists=1, seed=9)
        for run in ("a", "b"):
            corpus = generate(uniform_spec([8, 8], n_bridges=1, n_generalists=1, seed=9))
            write_corpus(corpus, tmp_path / f"edges_{run}.csv", tmp_path / f"truth_{run}.json")
        assert (tmp_path / "edges_a.csv").read_bytes() == (tmp_path / "edges_b.csv").read_bytes()
        assert (tmp_path / "truth_a.json").read_bytes() == (tmp_path / "truth_b.json").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate(uniform_spec([8, 8], seed=1))
        b = generate(uniform_spec([8, 8], seed=2))
        assert not (
            len(a.counts) == len(b.counts) and np.array_equal(a.counts, b.counts)
        )

    def test_truth_file_contents(self, tmp_path):
        spec = uniform_spec([5, 5], n_bridges=2, n_generalists=1, seed=4)
        corpus = generate(spec)
        write_corpus(corpus, tmp_path / "edges.csv", tmp_path / "truth.json")
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["prng"] == "numpy.random.Generator(PCG64)"
        assert [b["name"] for b in truth["bridges"]] == ["Bridge_0", "Bridge_1"]
        assert truth["generalists"][0]["name"] == "Generalist_0"
        assert truth["spec"]["seed"] == 4
        assert set(truth["clusters"]) == {"cluster_0", "cluster_1"}

    @pytest.mark.parametrize(
        "corpus",
        [
            generate(uniform_spec([6, 6], n_bridges=1, seed=5)),
            # Repeated cells, which the loader sums; A's row names C before
            # B appears, so the loaded ids differ from the corpus's.
            hand_built(["A", "B", "C"], [(0, 1, 3), (2, 0, 1), (0, 1, 4), (1, 2, 2), (0, 1, 5)]),
        ],
        ids=["generated", "repeated-cells"],
    )
    def test_output_loads_as_corpus(self, tmp_path, corpus):
        write_corpus(corpus, tmp_path / "edges.csv", tmp_path / "truth.json")
        truth = json.loads((tmp_path / "truth.json").read_text())
        registry, matrix = load_edge_list(tmp_path / "edges.csv")
        assert matrix.n == len(corpus.names)
        assert matrix.nnz == len(np.unique(corpus.cited * matrix.n + corpus.citing))
        assert matrix.nnz == truth["nonzero_cells"]
        # The loader numbers journals by first appearance, so compare every
        # cell through the names.
        loaded_id = [registry.get(name) for name in corpus.names]
        expected = CitationMatrix(matrix.n, corpus.cited, corpus.citing, corpus.counts)
        assert np.array_equal(
            matrix.tocsr().toarray()[np.ix_(loaded_id, loaded_id)], expected.tocsr().toarray()
        )

    def test_self_citations_on_diagonal(self):
        corpus = generate(uniform_spec([4, 4], seed=6))
        diagonal = {int(i) for i, j in zip(corpus.cited, corpus.citing) if i == j}
        assert diagonal == set(range(8))


# Names whose spelling csv must decide: delimiters, quotes, CR and LF, inner
# spaces and non-ASCII text, nonempty, trimmed and distinct once case-folded.
odd_names = st.lists(
    st.text(st.sampled_from(',"\r\n aZé\u00df\u4e2d'), min_size=1, max_size=5)
    .map(str.strip)
    .filter(bool),
    min_size=1,
    max_size=6,
    unique_by=canonical_name,
)


@settings(max_examples=60)
@given(odd_names, st.data())
def test_written_bytes_are_csv_writers(names, data):
    n = len(names)
    cells = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 10**12)),
                 max_size=25)
    )
    corpus = hand_built(names, cells)
    order = np.lexsort((corpus.cited, corpus.citing))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["citing", "cited", "count"])
    writer.writerows(
        (names[corpus.citing[k]], names[corpus.cited[k]], int(corpus.counts[k])) for k in order
    )
    with tempfile.TemporaryDirectory() as tmp:
        edges, truth = Path(tmp, "edges.csv"), Path(tmp, "truth.json")
        write_corpus(hand_built(names, []), edges, truth)
        assert edges.read_bytes() == b"citing,cited,count\n"
        assert json.loads(truth.read_text())["nonzero_cells"] == 0
        for chunk in (synth.WRITE_CHUNK, 1, 3):
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(synth, "WRITE_CHUNK", chunk)
                write_corpus(corpus, edges, truth)
            assert edges.read_bytes() == expected.getvalue().encode("utf-8"), chunk
            assert json.loads(truth.read_text())["nonzero_cells"] == len(
                np.unique(corpus.cited * n + corpus.citing)
            )
