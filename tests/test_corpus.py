import re

import numpy as np
import pytest

from interdisc.corpus import (
    CitationMatrix,
    Direction,
    SubsetMode,
    load_edge_list,
    load_matrix_market,
    load_metadata,
    subset,
)
from interdisc.pipeline import LoadedCorpus, RunConfig, compute_indicator_table, scope_table
from interdisc.errors import (
    DataError,
    DimensionError,
    EmptyCorpusError,
    MetadataConflictError,
    ParseError,
    UnknownJournalError,
    file_errors,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEdgeList:
    def test_duplicate_rows_are_summed(self, tmp_path):
        path = write(tmp_path, "e.csv", "citing,cited,count\nB,A,3\nB,A,2\n")
        registry, matrix = load_edge_list(path)
        a, b = registry.get("A"), registry.get("B")
        assert matrix.tocsr()[a, b] == 5
        assert matrix.nnz == 1

    def test_min_count_drops_after_summing(self, tmp_path):
        # D cites A twice with count 1: the summed cell of 2 survives min_count=2
        path = write(tmp_path, "e.csv", "citing,cited,count\nB,A,1\nD,A,1\nC,A,4\nD,A,1\n")
        registry, matrix = load_edge_list(path, min_count=2)
        a, c, d = registry.get("A"), registry.get("C"), registry.get("D")
        assert len(registry) == 4
        assert matrix.nnz == 2
        assert matrix.tocsr()[a, c] == 4
        assert matrix.tocsr()[a, d] == 2

    def test_hand_tally(self, corpus3):
        registry, matrix = corpus3
        assert len(registry) == 3
        assert matrix.nnz == 4
        b, a, c = 0, 1, 2  # first-appearance order
        assert registry.name_of(b) == "B" and registry.name_of(a) == "A"
        dense = matrix.tocsr().toarray()
        assert list(dense.sum(axis=1)) == [5, 5, 0]
        assert list(dense.sum(axis=0)) == [3, 1, 6]
        assert dense.sum() == 10

    def test_conservation(self, corpus4):
        _, matrix = corpus4
        cited, citing = (matrix.axis_matrix(d).sum(axis=1) for d in Direction)
        assert cited.sum() == citing.sum() == matrix.tocsr().data.sum()

    def test_order_independence(self, tmp_path):
        rows = ["B,A,3", "C,A,2", "A,B,1", "C,B,4"]
        p1 = write(tmp_path, "e1.csv", "citing,cited,count\n" + "\n".join(rows) + "\n")
        p2 = write(
            tmp_path, "e2.csv", "citing,cited,count\n" + "\n".join(reversed(rows)) + "\n"
        )
        r1, m1 = load_edge_list(p1)
        r2, m2 = load_edge_list(p2)
        # Ids differ with input order, but the matrix is identical by name.
        for cited in "ABC":
            for citing in "ABC":
                assert (
                    m1.tocsr()[r1.get(cited), r1.get(citing)]
                    == m2.tocsr()[r2.get(cited), r2.get(citing)]
                )

    def test_canonicalization_merges_case_and_space(self, tmp_path):
        path = write(
            tmp_path, "e.csv", 'citing,cited,count\n" J One ",X,1\nj one,Y,2\n'
        )
        registry, _ = load_edge_list(path)
        assert len(registry) == 3  # "J One" and "j one" collapse

    def test_malformed_rows(self, tmp_path):
        bad_arity = write(tmp_path, "a.csv", "citing,cited,count\nA,B\n")
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(bad_arity)
        bad_count = write(tmp_path, "b.csv", "citing,cited,count\nA,B,x\n")
        with pytest.raises(ParseError, match="not an integer"):
            load_edge_list(bad_count)
        nonpositive = write(tmp_path, "c.csv", "citing,cited,count\nA,B,0\n")
        with pytest.raises(ParseError, match="positive"):
            load_edge_list(nonpositive)

    @pytest.mark.parametrize("row", [",C,1", "C, ,1"])
    def test_empty_journal_name_names_its_line(self, tmp_path, row):
        path = write(tmp_path, "e.csv", f"citing,cited,count\nA,B,2\n{row}\n")
        message = f"^{re.escape(str(path))}: line 3: empty journal name$"
        with pytest.raises(ParseError, match=message):
            load_edge_list(path)

    def test_empty_file(self, tmp_path):
        empty = write(tmp_path, "e.csv", "")
        with pytest.raises(EmptyCorpusError):
            load_edge_list(empty)
        header_only = write(tmp_path, "h.csv", "citing,cited,count\n")
        with pytest.raises(EmptyCorpusError):
            load_edge_list(header_only)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "e.csv", "cited,citing,count\nA,B,1\n")
        with pytest.raises(ParseError, match="header"):
            load_edge_list(path)

    def test_utf8_bom_is_ignored(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfciting,cited,count\nA,B,3\n")
        registry, matrix = load_edge_list(path)
        assert registry.name_of(0) == "A"
        assert matrix.tocsr()[registry.get("B"), registry.get("A")] == 3

    def test_count_beyond_int64_is_parse_error(self, tmp_path):
        one_row = write(tmp_path, "a.csv", "citing,cited,count\nA,B,99999999999999999999\n")
        with pytest.raises(ParseError, match="int64"):
            load_edge_list(one_row)
        half = 2**62
        summed = write(tmp_path, "b.csv", f"citing,cited,count\nA,B,{half}\nA,B,{half}\n")
        with pytest.raises(ParseError, match="int64"):
            load_edge_list(summed)


class TestMatrixMarket:
    def test_small_direct(self, tmp_path):
        mm = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 5\n1 2 3\n",
        )
        registry, matrix = load_matrix_market(mm)
        assert matrix.n == 2 and matrix.nnz == 2
        assert registry.name_of(0) == "J0"
        assert matrix.tocsr()[0, 0] == 5 and matrix.tocsr()[0, 1] == 3

    def test_symmetric_fixture_transpose(self, tmp_path):
        mm = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer symmetric\n3 3 3\n1 1 2\n2 1 7\n3 2 4\n",
        )
        _, matrix = load_matrix_market(mm)
        dense = matrix.tocsr().toarray()
        assert np.array_equal(dense, dense.T)

    def test_round_trip(self, tmp_path):
        import scipy.io
        import scipy.sparse as sp

        rng = np.random.default_rng(5)
        dense = rng.integers(0, 4, size=(5, 5))
        path = tmp_path / "r.mtx"
        scipy.io.mmwrite(str(path), sp.coo_matrix(dense), field="integer")
        _, matrix = load_matrix_market(path)
        assert np.array_equal(matrix.tocsr().toarray(), dense)

    def test_non_square(self, tmp_path):
        mm = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 3 1\n1 1 5\n",
        )
        with pytest.raises(DimensionError):
            load_matrix_market(mm)

    def test_negative_entry(self, tmp_path):
        mm = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 -5\n",
        )
        with pytest.raises(ParseError, match="negative"):
            load_matrix_market(mm)

    @pytest.mark.parametrize("copies", [2, 4, 5])  # sums wrap to -2**63, 0, 2**62
    def test_duplicate_sum_beyond_int64_is_parse_error(self, tmp_path, copies):
        lines = "".join(f"1 2 {2**62}\n" for _ in range(copies))
        mm = write(
            tmp_path,
            "m.mtx",
            f"%%MatrixMarket matrix coordinate integer general\n2 2 {copies}\n{lines}",
        )
        with pytest.raises(ParseError, match="int64"):
            load_matrix_market(mm)

    @pytest.mark.parametrize("field, entry, shown", [
        ("real", "2.000001", "2.000001"),
        ("real", "inf", "inf"),
        ("real", "1e300", "1e+300"),
        ("real", "nan", "nan"),
        ("unsigned-integer", str(2**63), str(2**63)),
    ])
    def test_entry_that_is_not_an_int64_count_is_parse_error(self, tmp_path, field, entry, shown):
        mm = write(
            tmp_path,
            "m.mtx",
            f"%%MatrixMarket matrix coordinate {field} general\n2 2 1\n1 2 {entry}\n",
        )
        with pytest.raises(ParseError, match=re.escape(f"entry {shown} is not an integer")):
            load_matrix_market(mm)

    def test_integral_real_entry_loads(self, tmp_path):
        mm = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 2.0\n2 1 4e0\n",
        )
        _, matrix = load_matrix_market(mm)
        assert matrix.tocsr()[0, 1] == 2 and matrix.tocsr()[1, 0] == 4

    def test_duplicate_entries_are_summed(self, tmp_path):
        mm = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 3\n1 2 3\n1 2 4\n2 1 1\n",
        )
        _, matrix = load_matrix_market(mm)
        assert matrix.nnz == 2 and matrix.tocsr()[0, 1] == 7

    def test_banner_is_matched_without_case(self, tmp_path):
        mm = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket MATRIX Coordinate integer general\n2 2 1\n1 2 3\n",
        )
        _, matrix = load_matrix_market(mm)
        assert matrix.tocsr()[0, 1] == 3

    def test_complex_field_is_parse_error(self, tmp_path):
        mm = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 3 4\n",
        )
        with pytest.raises(ParseError, match="complex"):
            load_matrix_market(mm)

    def test_array_format_is_parse_error(self, tmp_path):
        mm = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix array integer general\n2 2\n1\n2\n3\n4\n",
        )
        with pytest.raises(ParseError, match="coordinate"):
            load_matrix_market(mm)

    def test_sidecar_names(self, tmp_path):
        mm = write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3\n",
        )
        names = write(tmp_path, "names.txt", "Alpha\nBeta\n")
        registry, matrix = load_matrix_market(mm, names)
        assert registry.name_of(0) == "Alpha"
        assert matrix.tocsr()[registry.get("Alpha"), registry.get("Beta")] == 3


class TestFileErrors:
    def test_names_the_file_and_keeps_the_type(self):
        with pytest.raises(ParseError, match="^f.csv: line 4: bad row$"):
            with file_errors("f.csv"):
                raise ParseError("bad row", 4)

    def test_nested_guards_name_the_innermost_file_once(self):
        with pytest.raises(MetadataConflictError) as caught:
            with file_errors("outer.json"):
                with file_errors("inner.csv"):
                    raise MetadataConflictError("duplicate", 2)
        assert str(caught.value) == "inner.csv: line 2: duplicate"
        assert caught.value.path == "inner.csv"

    def test_outer_guard_names_an_error_raised_outside_the_inner_one(self):
        with pytest.raises(DataError, match="^outer.json: not an object$"):
            with file_errors("outer.json"):
                with file_errors("inner.csv"):
                    pass
                raise DataError("not an object")


class TestMetadata:
    def test_fields_attached(self, tmp_path, corpus3):
        registry, _ = corpus3
        meta = write(tmp_path, "m.csv", "name,category,total_cites,impact_factor,immediacy\nA,LIS,100,1.5,0.2\n")
        unmatched = load_metadata(meta, registry)
        assert unmatched == 0
        entry = registry.entries[registry.get("A")]
        assert entry.category == "LIS"
        assert entry.total_cites == 100
        assert entry.impact_factor == 1.5
        assert entry.immediacy == 0.2

    def test_unknown_journal_is_warned_not_fatal(self, tmp_path, corpus3):
        registry, _ = corpus3
        meta = write(tmp_path, "m.csv", "name,category\nNOPE,LIS\n")
        assert load_metadata(meta, registry) == 1
        assert all(e.category is None for e in registry.entries)

    def test_duplicate_rows_conflict(self, tmp_path, corpus3):
        registry, _ = corpus3
        meta = write(tmp_path, "m.csv", "name,category\nA,LIS\nA,PHYS\n")
        with pytest.raises(MetadataConflictError):
            load_metadata(meta, registry)

    @pytest.mark.parametrize(
        "header",
        ["A,LIS", "name,category,total_cites,impact_factor,immediacy,extra", "category,name", ""],
    )
    def test_header_that_is_not_a_leading_run_of_the_fields_is_parse_error(
        self, tmp_path, corpus3, header
    ):
        registry, _ = corpus3
        meta = write(tmp_path, "m.csv", f"{header}\nB,PHYS\n")
        with pytest.raises(ParseError, match="line 1: expected a header"):
            load_metadata(meta, registry)
        assert all(e.category is None for e in registry.entries)

    @pytest.mark.parametrize(
        "header", ["name", " Name , CATEGORY", "\ufeffname,category,total_cites"]
    )
    def test_header_of_any_leading_run_loads(self, tmp_path, corpus3, header):
        registry, _ = corpus3
        fields = len(header.split(","))
        meta = write(tmp_path, "m.csv", f"{header}\n" + ",".join(["A", "LIS", "100"][:fields]) + "\n")
        assert load_metadata(meta, registry) == 0
        entry = registry.entries[registry.get("A")]
        assert entry.category == ("LIS" if fields > 1 else None)
        assert entry.total_cites == (100 if fields > 2 else None)

    def test_row_wider_than_its_header_is_parse_error(self, tmp_path, corpus3):
        registry, _ = corpus3
        meta = write(tmp_path, "m.csv", "name\nB\nA,LIS\n")
        message = f"^{re.escape(str(meta))}: line 3: expected at most 1 fields, got 2$"
        with pytest.raises(ParseError, match=message):
            load_metadata(meta, registry)
        assert all(e.category is None for e in registry.entries)

    def test_row_with_empty_name_is_parse_error(self, tmp_path, corpus3):
        registry, _ = corpus3
        meta = write(tmp_path, "m.csv", "name,category\nA,LIS\n ,PHYS\n")
        message = f"^{re.escape(str(meta))}: line 3: empty journal name$"
        with pytest.raises(ParseError, match=message):
            load_metadata(meta, registry)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("A,LIS," + "9" * 400, "total_cites exceeds the int64 range$"),
            (f"A,LIS,{2**63}", "total_cites exceeds the int64 range$"),
            ("A,LIS,1,inf", "not a finite number: 'inf'"),
            ("A,LIS,1,1e999", "not a finite number: '1e999'"),
            ("A,LIS,1,nan", "not a finite number: 'nan'"),
            ("A,LIS,1,1.5,-Infinity", "not a finite number: '-Infinity'"),
        ],
        ids=["total-400-digits", "total-2**63", "if-inf", "if-1e999",
             "if-nan", "immediacy-minus-infinity"],
    )
    def test_number_out_of_range_is_parse_error_on_its_line(
        self, tmp_path, corpus3, row, message
    ):
        registry, _ = corpus3
        header = "name,category,total_cites,impact_factor,immediacy"
        meta = write(tmp_path, "m.csv", f"{header}\nB,PHYS\n{row}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{meta}: line 3: ')}{message}"):
            load_metadata(meta, registry)

    def test_largest_int64_total_cites_loads(self, tmp_path, corpus3):
        registry, _ = corpus3
        meta = write(tmp_path, "m.csv", f"name,category,total_cites\nA,LIS,{2**63 - 1}\n")
        load_metadata(meta, registry)
        assert registry.entries[registry.get("A")].total_cites == 2**63 - 1

    def test_category_subset_of_61(self, tmp_path):
        n = 100
        rows = "\n".join(f"X,J{k},1" for k in range(n))
        edges = write(tmp_path, "e.csv", "citing,cited,count\n" + rows + "\n")
        registry, matrix = load_edge_list(edges)
        meta_rows = "\n".join(f"J{k},LIS" for k in range(61))
        meta = write(tmp_path, "m.csv", "name,category\n" + meta_rows + "\n")
        load_metadata(meta, registry)
        ids = registry.ids_in_category("LIS")
        assert len(ids) == 61
        _, sub = subset(matrix, registry, ids)
        assert sub.n == 61


class TestVector:
    """A journal's vector in a direction is its row of `axis_matrix`."""

    def test_diagonal_only_support(self):
        matrix = CitationMatrix(2, [0], [0], [7])
        vec = matrix.axis_matrix(Direction.CITED)[0]
        assert vec.nnz == 1
        assert vec.sum() == 7

    def test_direction_convention(self):
        # cell (cited=A0, citing=B1) = 2: A's citing vector is empty.
        matrix = CitationMatrix(2, [0], [1], [2])
        assert matrix.axis_matrix(Direction.CITING)[0].nnz == 0
        assert matrix.axis_matrix(Direction.CITED)[0].nnz == 1
        assert matrix.axis_matrix(Direction.CITING)[1].nnz == 1

    def test_hand_read_slices(self, corpus4):
        registry, matrix = corpus4
        w, x = registry.get("W"), registry.get("X")
        cited = matrix.axis_matrix(Direction.CITED)[x]
        assert dict(zip(cited.indices, cited.data)) == {
            registry.get("W"): 2,
            registry.get("Y"): 5,
        }
        # column W holds cells (cited=X, citing=W)=2 and the diagonal (W,W)=7
        citing = matrix.axis_matrix(Direction.CITING)[w]
        assert dict(zip(citing.indices, citing.data)) == {
            registry.get("X"): 2,
            registry.get("W"): 7,
        }

    def test_cited_equals_transposed_citing(self, corpus4):
        _, matrix = corpus4
        transposed = CitationMatrix(
            matrix.n, *_coo_arrays(matrix.tocsr().T.tocoo())
        )
        for jid in range(matrix.n):
            a = matrix.axis_matrix(Direction.CITED)[jid]
            b = transposed.axis_matrix(Direction.CITING)[jid]
            assert np.array_equal(np.sort(a.indices), np.sort(b.indices))
            assert dict(zip(a.indices, a.data)) == dict(zip(b.indices, b.data))

    def test_axes_are_read_only(self):
        matrix = CitationMatrix(3, [0, 1, 2, 2], [1, 2, 0, 2], [1, 2, 3, 4])
        before = matrix.tocsr().toarray()
        for stored in (*map(matrix.axis_matrix, Direction), matrix.tocsr()):
            with pytest.raises(ValueError, match="read-only"):
                stored.data[0] = 9
        assert np.array_equal(matrix.tocsr().toarray(), before)


def _coo_arrays(coo):
    return coo.row, coo.col, coo.data.astype(np.int64)


class TestSubset:
    def test_full_set_is_identity(self, corpus4):
        registry, matrix = corpus4
        sub_registry, sub = subset(matrix, registry, list(range(matrix.n)))
        assert np.array_equal(sub.tocsr().toarray(), matrix.tocsr().toarray())
        assert [e.name for e in sub_registry.entries] == [e.name for e in registry.entries]

    def test_local_restriction(self, corpus4):
        registry, matrix = corpus4
        w, x = registry.get("W"), registry.get("X")
        _, sub = subset(matrix, registry, [w, x])
        dense = sub.tocsr().toarray()
        assert dense.shape == (2, 2)
        # only intra-pair cells survive: (X,W)=2, (W,X)=1, (W,W)=7
        assert dense.sum() == 10

    def test_local_then_full_is_identity(self, corpus4):
        registry, matrix = corpus4
        sub_registry, sub = subset(matrix, registry, [0, 1, 2, 3])
        _, again = subset(sub, sub_registry, [0, 1, 2, 3])
        assert np.array_equal(again.tocsr().toarray(), matrix.tocsr().toarray())


class TestScopeTable:
    def test_global_context_rows_are_the_full_tables(self, corpus4):
        registry, matrix = corpus4
        config = RunConfig()
        full = compute_indicator_table(matrix, registry, config)
        table = scope_table(
            LoadedCorpus(registry, matrix), [3, 1, 3], SubsetMode.GLOBAL_CONTEXT, config
        )
        assert table.journal_ids == [1, 3]
        assert table.names == [full.names[1], full.names[3]]
        assert list(table.columns) == list(full.columns)
        for name, values in full.columns.items():
            np.testing.assert_array_equal(table.column(name), values[[1, 3]], err_msg=name)
        assert list(table.flags) == list(full.flags)
        for name, flags in full.flags.items():
            np.testing.assert_array_equal(table.flags[name], flags[[1, 3]], err_msg=name)

    def test_local_submatrix_keeps_sorted_original_ids_and_names(self, corpus4):
        registry, matrix = corpus4
        config = RunConfig()
        table = scope_table(
            LoadedCorpus(registry, matrix), [3, 0, 3], SubsetMode.LOCAL_SUBMATRIX, config
        )
        assert table.journal_ids == [0, 3]
        assert table.names == [registry.name_of(0), registry.name_of(3)]
        sub_registry, sub = subset(matrix, registry, [0, 3])
        local = compute_indicator_table(sub, sub_registry, config)
        for name, values in local.columns.items():
            np.testing.assert_array_equal(table.column(name), values, err_msg=name)

    @pytest.mark.parametrize("mode", list(SubsetMode))
    @pytest.mark.parametrize("ids", [[], [17], [-1, 0], [0, 99]])
    def test_bad_ids(self, corpus3, mode, ids):
        registry, matrix = corpus3
        with pytest.raises(UnknownJournalError):
            scope_table(LoadedCorpus(registry, matrix), ids, mode, RunConfig())
