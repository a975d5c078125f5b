import argparse
import csv
import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from interdisc import centrality, pipeline
from interdisc.cli import DEFAULT_CORRELATE_COLUMNS, DEFAULT_FACTOR_COLUMNS, build_parser, main
from interdisc.corpus import load_edge_list
from interdisc.errors import UsageError
from interdisc.pipeline import INDICATORS, RunConfig, compute_indicator_table, file_digest
from interdisc.stats import IndicatorTable

ROOT = Path(__file__).resolve().parents[1]


def run(argv) -> int:
    return main([str(a) for a in argv])


def src_env() -> dict:
    """This environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def data_lines(path: Path) -> list[list[str]]:
    """The fields of a report's lines after the comments and the header."""
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


@pytest.fixture
def synth_outdir(tmp_path) -> Path:
    out = tmp_path / "synth"
    code = run(
        [
            "synth",
            "--clusters", "8,8,8",
            "--bridges", "1",
            "--generalists", "1",
            "--seed", "7",
            "--outdir", out,
        ]
    )
    assert code == 0
    return out


class TestIndicatorsCommand:
    def test_twelve_indicator_columns_per_direction(self, edges_path, tmp_path):
        out = tmp_path / "out"
        assert run(["indicators", "--edges", edges_path, "--outdir", out]) == 0
        assert len(INDICATORS) == 12
        for direction in ("cited", "citing"):
            path = out / f"indicators_{direction}.csv"
            header = [
                line for line in path.read_text().splitlines() if not line.startswith("#")
            ][0].split(",")
            indicator_cols = [
                c for c in header if c not in ("journal_id", "name", "support", "degenerate")
            ]
            assert len(indicator_cols) == 12
            assert indicator_cols == [f"{i.name}_{direction}" for i in INDICATORS]
        combined = json.loads((out / "indicators.json").read_text())
        assert "config" in combined and "inputs" in combined

    def test_rerun_is_byte_identical(self, edges_path, tmp_path):
        out = tmp_path / "r"
        names = ("indicators_cited.csv", "indicators_citing.csv", "indicators.json")
        run(["indicators", "--edges", edges_path, "--outdir", out])
        first = {name: (out / name).read_bytes() for name in names}
        run(["indicators", "--edges", edges_path, "--outdir", out])
        for name in names:
            assert (out / name).read_bytes() == first[name]

    def test_parallel_vectors_read_zero_one_minus_cosine_at_any_scale(self, tmp_path):
        # A and B cite and are cited by both: every vector is (k, k), so each
        # (1 - cosine) diversity is 0, whatever the count k
        columns = {}
        for k in (1, 3):
            edges = tmp_path / f"e{k}.csv"
            edges.write_text(
                f"citing,cited,count\nA,A,{k}\nA,B,{k}\nB,A,{k}\nB,B,{k}\n", encoding="utf-8"
            )
            out = tmp_path / f"out{k}"
            assert run(["indicators", "--edges", edges, "--outdir", out]) == 0
            for direction in ("cited", "citing"):
                lines = [
                    line.split(",")
                    for line in (out / f"indicators_{direction}.csv").read_text().splitlines()
                    if line and not line.startswith("#")
                ]
                col = lines[0].index(f"rao_stirling_one_minus_cosine_{direction}")
                columns[k, direction] = [row[col] for row in lines[1:]]
        for direction in ("cited", "citing"):
            assert columns[1, direction] == columns[3, direction] == ["0", "0"]

    def test_empty_direction_journal_is_flagged_row(self, tmp_path):
        edges = tmp_path / "e.csv"
        edges.write_text("citing,cited,count\nB,A,3\nC,A,2\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["indicators", "--edges", edges, "--outdir", out]) == 0
        rows = [
            line.split(",")
            for line in (out / "indicators_cited.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        header, data = rows[0], rows[1:]
        by_name = {r[header.index("name")]: r for r in data}
        # B and C are never cited: flagged degenerate with empty gini cell
        assert by_name["B"][header.index("degenerate")] == "1"
        assert by_name["B"][header.index("gini_cited")] == ""
        assert by_name["A"][header.index("degenerate")] == "0"

    def test_restricted_metrics_still_writes(self, edges_path, tmp_path):
        out = tmp_path / "restricted"
        code = run(
            [
                "indicators", "--edges", edges_path, "--outdir", out,
                "--metrics", "one_minus_cosine", "--directions", "cited",
            ]
        )
        assert code == 0
        text = (out / "indicators_cited.csv").read_text()
        assert "rao_stirling_one_minus_cosine_cited" in text
        assert "relative_euclidean" not in text
        assert not (out / "indicators_citing.csv").exists()

    def test_config_file_with_flag_override(self, edges_path, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_count": 1, "outdir": str(tmp_path / "cfg")}))
        out = tmp_path / "flag_wins"
        assert run(["indicators", "--edges", edges_path, "--config", config, "--outdir", out]) == 0
        assert (out / "indicators.json").exists()

    def test_int_for_float_config_field_matches_default_run(self, edges_path, tmp_path):
        out = tmp_path / "o"
        argv = ["indicators", "--edges", edges_path, "--outdir", out]
        names = ("indicators_cited.csv", "indicators_citing.csv", "indicators.json")
        assert run(argv) == 0
        default = {name: (out / name).read_bytes() for name in names}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cosine_threshold": 0}), encoding="utf-8")
        assert run(argv + ["--config", config]) == 0
        for name in names:
            assert (out / name).read_bytes() == default[name], name

    def test_names_file_bom_does_not_change_reports(self, tmp_path):
        import scipy.io
        import scipy.sparse as sp

        counts = np.array([[0, 2, 1, 0], [3, 0, 4, 1], [1, 5, 0, 2], [2, 0, 3, 0]])
        mm = tmp_path / "m.mtx"
        scipy.io.mmwrite(str(mm), sp.coo_matrix(counts), field="integer")
        names_path = tmp_path / "names.txt"
        out = tmp_path / "o"
        reports = ("indicators_cited.csv", "indicators_citing.csv", "indicators.json",
                   "ranking_entropy.csv")
        runs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            names_path.write_bytes(prefix + b"Alpha\nBeta\nGamma\nDelta\n")
            common = ["--matrix-market", mm, "--names", names_path, "--outdir", out]
            assert run(["indicators", *common]) == 0
            assert run(["rank", "entropy", *common]) == 0
            # the names file's own digest differs; every other byte must not
            digest = file_digest(names_path).encode()
            runs.append({name: (out / name).read_bytes().replace(digest, b"<names>")
                         for name in reports})
        assert b"Alpha" in runs[0]["indicators_cited.csv"]
        assert runs[1] == runs[0]


class TestRankCommand:
    def test_rank_file_and_top_n(self, synth_outdir, tmp_path):
        out = tmp_path / "rank"
        code = run(
            [
                "rank", "entropy",
                "--edges", synth_outdir / "edges.csv",
                "--outdir", out,
                "--top", "5",
            ]
        )
        assert code == 0
        path = out / "ranking_entropy.csv"
        data = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        assert data[0] == "rank,journal_id,name,value,appended"
        assert len(data) == 1 + 5

    def test_append_journal(self, synth_outdir, tmp_path):
        out = tmp_path / "rank"
        code = run(
            [
                "rank", "entropy",
                "--edges", synth_outdir / "edges.csv",
                "--outdir", out,
                "--top", "3",
                "--append-journal", "C02_J007",
            ]
        )
        assert code == 0
        lines = (out / "ranking_entropy.csv").read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(data) == 4
        assert data[-1].endswith(",1")  # appended marker
        assert "C02_J007" in data[-1]

    def test_unknown_indicator_is_usage_error(self, edges_path, tmp_path):
        code = run(
            ["rank", "nonsense", "--edges", edges_path, "--outdir", tmp_path / "x"]
        )
        assert code == 1

    def test_all_degenerate_gives_empty_table_with_warning(self, tmp_path):
        edges = tmp_path / "e.csv"
        # every journal has exactly one citer: all degenerate
        edges.write_text("citing,cited,count\nA,B,1\nB,A,1\n", encoding="utf-8")
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="degenerate"):
            code = run(["rank", "gini", "--edges", edges, "--outdir", out])
        assert code == 0
        data = [
            l
            for l in (out / "ranking_gini.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(data) == 1  # header only

    def test_row_order_does_not_change_rankings(self, synth_outdir, tmp_path):
        edges = (synth_outdir / "edges.csv").read_text().splitlines()
        header, rows = edges[0], edges[1:]
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "\n" + "\n".join(reversed(rows)) + "\n")
        names = {}
        for label, path in (("orig", synth_outdir / "edges.csv"), ("perm", shuffled)):
            out = tmp_path / label
            assert run(["rank", "entropy", "--edges", path, "--outdir", out]) == 0
            names[label] = [r[2] for r in data_lines(out / "ranking_entropy.csv")]
        assert names["orig"] == names["perm"]

    def test_gini_ranked_ascending(self, synth_outdir, tmp_path):
        out = tmp_path / "rank"
        run(["rank", "gini", "--edges", synth_outdir / "edges.csv", "--outdir", out])
        values = [float(r[3]) for r in data_lines(out / "ranking_gini.csv")]
        assert values == sorted(values)

    def test_column_naming_a_direction_drops_that_directions_degenerates(self, tmp_path):
        # B and C cite only A, so they are degenerate on the citing side;
        # nobody cites D, so D is degenerate (empty) only on the cited side
        edges = tmp_path / "e.csv"
        edges.write_text(
            "citing,cited,count\nA,B,1\nA,C,1\nB,A,1\nC,A,1\nD,A,1\nD,B,1\n",
            encoding="utf-8",
        )
        listed = []
        for k, argv in enumerate([["entropy_citing"], ["entropy", "--direction", "citing"]]):
            out = tmp_path / f"rank{k}"
            assert run(["rank", *argv, "--edges", edges, "--outdir", out]) == 0
            listed.append([r[2] for r in data_lines(out / f"ranking_{argv[0]}.csv")])
        assert listed == [["A", "D"], ["A", "D"]]

    @pytest.mark.parametrize(
        "name, code, listed", [("A", 0, [["0", "0", "A", "0", "1"]]), ("NOPE", 2, None)]
    )
    def test_append_journal_below_an_empty_ranking(self, tmp_path, name, code, listed):
        # A and B each have one citer and C only cites itself: no journal ranks
        edges = tmp_path / "e.csv"
        edges.write_text("citing,cited,count\nA,B,2\nB,A,3\nC,C,1\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["rank", "entropy", "--edges", edges, "--outdir", out, "--append-journal", name]
        with pytest.warns(UserWarning, match="degenerate"):
            assert run(argv) == code
        path = out / "ranking_entropy.csv"
        assert (data_lines(path) if path.exists() else None) == listed


class TestReportEncoding:
    ODD = ["Comma, J", 'Quote "J"', "CR\rJ", "LF\nJ"]

    @pytest.fixture
    def odd_edges(self, tmp_path) -> Path:
        path = tmp_path / "odd.csv"
        names = ["A", *self.ODD]
        rows = [(a, b, 1 + i + 2 * j) for i, a in enumerate(names) for j, b in enumerate(names)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([("citing", "cited", "count"), *rows])
        return path

    @staticmethod
    def read_rows(path: Path) -> list[list[str]]:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh) if not row[0].startswith("#")]

    @pytest.mark.parametrize(
        "command,report",
        [
            (["indicators"], "indicators_cited.csv"),
            (["rank", "entropy", "--include-degenerate"], "ranking_entropy.csv"),
        ],
    )
    def test_odd_names_read_back_as_one_field(self, odd_edges, tmp_path, command, report):
        out = tmp_path / "o"
        assert run([*command, "--edges", odd_edges, "--outdir", out]) == 0
        header, *rows = self.read_rows(out / report)
        assert all(len(row) == len(header) for row in rows)
        assert sorted(row[header.index("name")] for row in rows) == sorted(["A", *self.ODD])

    def test_printed_ranking_keeps_each_journal_on_one_line(self, odd_edges, tmp_path, capsys):
        argv = ["rank", "entropy", "--include-degenerate", "--edges", odd_edges]
        assert run([*argv, "--outdir", tmp_path / "o"]) == 0
        *ranked, wrote = capsys.readouterr().out.splitlines()
        assert wrote.startswith("wrote ")
        assert [line.split()[0] for line in ranked] == ["1", "2", "3", "4", "5"]
        assert sorted(line.lstrip().split("  ")[1] for line in ranked) == sorted(
            ["A", "Comma, J", 'Quote "J"', "CR\\rJ", "LF\\nJ"]
        )

    def test_unconverged_rotation_is_written_as_such(self, tmp_path):
        from interdisc.stats import PcaResult, RotatedFactorSolution

        loadings = np.array([[0.9, 0.05], [0.2, 0.8], [0.5, -0.5]])
        pca_result = PcaResult(["a", "b", "c"], loadings, np.array([1.5, 1.0]),
                               np.array([50.0, 33.3]), n_observations=40)
        solution = RotatedFactorSolution(loadings, np.eye(2), np.array([40.0, 30.0]),
                                         np.array([40.0, 70.0]), k=2, converged=False,
                                         iterations=500)
        csv_path, json_path = tmp_path / "f.csv", tmp_path / "f.json"
        pipeline.write_factors(pca_result, solution, csv_path, json_path, RunConfig(), {})
        lines = csv_path.read_text().splitlines()
        assert "# kaiser normalization); rotation did NOT converge in 500 iterations" in lines
        assert "a,0.9," in lines  # a loading below the display threshold is blank
        report = json.loads(json_path.read_text())
        assert report["converged"] is False and report["iterations"] == 500
        assert report["rotated_loadings"] == loadings.tolist()


class TestDegenerateRows:
    """`degenerate_rows` marks the rows degenerate in a direction the columns use."""

    @staticmethod
    def rows(*args) -> list:
        return pipeline.degenerate_rows(*args).tolist()

    @staticmethod
    def table(**flags) -> IndicatorTable:
        table = IndicatorTable([0, 1, 2], ["A", "B", "C"])
        for direction, flag in flags.items():
            table.add_flag(f"degenerate_{direction}", flag)
        return table

    def test_a_column_naming_a_direction_uses_that_directions_flag(self):
        table = self.table(cited=[True, False, False], citing=[False, True, False])
        assert self.rows(table, ["entropy_citing"], ["cited"]) == [0, 1, 0]
        assert self.rows(table, ["gini_cited"], ["citing"]) == [1, 0, 0]

    def test_a_column_naming_none_uses_every_given_direction(self):
        table = self.table(cited=[True, False, False], citing=[False, True, False])
        assert self.rows(table, ["total_cites"], ["cited"]) == [1, 0, 0]
        assert self.rows(table, ["total_cites"], ["cited", "citing"]) == [1, 1, 0]

    def test_a_direction_the_table_did_not_compute_marks_no_row(self):
        table = self.table(cited=[True, False, False])
        assert self.rows(table, ["entropy_citing"], ["cited"]) == [0, 0, 0]
        assert self.rows(table, ["impact_factor"], ["cited", "citing"]) == [1, 0, 0]


class TestCorrelateAndFactor:
    def test_correlate_outputs(self, synth_outdir, tmp_path):
        out = tmp_path / "corr"
        code = run(
            [
                "correlate",
                "--edges", synth_outdir / "edges.csv",
                "--outdir", out,
            ]
        )
        assert code == 0
        report = json.loads((out / "correlations.json").read_text())
        assert report["columns"] == [
            "gini_cited", "entropy_cited", "gini_citing", "entropy_citing",
        ]
        rho = np.asarray(report["rho"])
        assert np.allclose(rho, rho.T)
        assert np.allclose(np.diag(rho), 1.0)
        assert rho[0, 1] < 0  # gini vs entropy, cited
        csv_text = (out / "correlations.csv").read_text()
        assert "**" in csv_text
        assert "# pairwise complete n" in csv_text

    def test_identical_column_twice(self, synth_outdir, tmp_path):
        out = tmp_path / "corr"
        code = run(
            [
                "correlate",
                "--edges", synth_outdir / "edges.csv",
                "--outdir", out,
                "--columns", "entropy_cited,entropy_cited",
            ]
        )
        assert code == 0
        report = json.loads((out / "correlations.json").read_text())
        assert report["rho"][0][1] == 1.0

    def test_factor_outputs(self, synth_outdir, tmp_path):
        out = tmp_path / "factor"
        code = run(
            [
                "factor",
                "--edges", synth_outdir / "edges.csv",
                "--outdir", out,
                "-k", "3",
            ]
        )
        assert code == 0
        report = json.loads((out / "factors.json").read_text())
        assert report["k"] == 3
        assert report["converged"]
        loadings = np.asarray(report["rotated_loadings"])
        assert loadings.shape == (6, 3)
        rotation = np.asarray(report["rotation"])
        assert np.allclose(rotation.T @ rotation, np.eye(3), atol=1e-8)
        text = (out / "factors.csv").read_text()
        assert "cumulative variance explained" in text
        assert "rotation converged in" in text

    def test_default_factor_keeps_journal_degenerate_only_when_citing(
        self, synth_outdir, tmp_path
    ):
        # X cites one journal (degenerate on the citing side) and is cited by
        # two (not degenerate on the cited side, where every default column is)
        edges = tmp_path / "edges.csv"
        text = (synth_outdir / "edges.csv").read_text(encoding="utf-8")
        first, second = [line.split(",")[1] for line in text.splitlines()[1:3]]
        assert first != second
        edges.write_text(text + f"X,{first},1\n{first},X,2\n{second},X,3\n", encoding="utf-8")
        config = RunConfig(edges=str(edges))
        corpus = pipeline.load_corpus(config)
        table = compute_indicator_table(
            corpus.matrix, corpus.registry, config, DEFAULT_FACTOR_COLUMNS
        )
        x = corpus.registry.get("X")
        assert table.flags["degenerate_citing"][x] and not table.flags["degenerate_cited"][x]
        complete = table.listwise_mask(DEFAULT_FACTOR_COLUMNS)
        out = tmp_path / "factor"
        assert run(["factor", "--edges", edges, "--outdir", out]) == 0
        report = json.loads((out / "factors.json").read_text())
        assert report["columns"] == DEFAULT_FACTOR_COLUMNS
        assert report["n_observations"] == np.count_nonzero(
            complete & ~table.flags["degenerate_cited"]
        )
        assert complete[x]

    def test_synthetic_three_block_factor_alignment(self, tmp_path):
        # build an indicator table whose blocks come from independent latent
        # factors, then check the CLI-level factor pipeline via the stats API
        from interdisc.stats import IndicatorTable, pca, varimax

        rng = np.random.default_rng(77)
        n = 500
        latents = rng.normal(size=(n, 3))
        table = IndicatorTable(list(range(n)), [f"J{i}" for i in range(n)])
        columns = []
        for block in range(3):
            for rep in range(2):
                name = f"block{block}_{rep}"
                table.add_column(
                    name, 0.9 * latents[:, block] + 0.35 * rng.normal(size=n)
                )
                columns.append(name)
        solution = varimax(pca(table, columns, 3).loadings)
        for block in range(3):
            rows = solution.loadings[2 * block : 2 * block + 2]
            factor = np.argmax(np.abs(rows[0]))
            assert np.abs(rows[0][factor]) >= 0.7
            assert np.argmax(np.abs(rows[1])) == factor


class TestSubsetCommand:
    def test_category_subset_global_context(self, tmp_path, synth_outdir):
        meta = tmp_path / "meta.csv"
        lines = ["name,category"]
        lines += [f"C00_J{k:03d},LIS" for k in range(8)]
        meta.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "subset"
        code = run(
            [
                "subset",
                "--edges", synth_outdir / "edges.csv",
                "--metadata", meta,
                "--category", "LIS",
                "--mode", "global_context",
                "--outdir", out,
            ]
        )
        assert code == 0
        data = [
            l
            for l in (out / "indicators_cited.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(data) == 1 + 8

    def test_ids_subset_local(self, synth_outdir, tmp_path):
        out = tmp_path / "subset"
        code = run(
            [
                "subset",
                "--edges", synth_outdir / "edges.csv",
                "--ids", "0,1,2,3",
                "--mode", "local_submatrix",
                "--outdir", out,
            ]
        )
        assert code == 0
        data = [
            l
            for l in (out / "indicators_cited.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(data) == 1 + 4

    def test_missing_selector_is_usage_error(self, synth_outdir, tmp_path):
        code = run(
            ["subset", "--edges", synth_outdir / "edges.csv", "--outdir", tmp_path / "x"]
        )
        assert code == 1


class TestSynthCommand:
    def test_truth_and_edges_written(self, synth_outdir):
        assert (synth_outdir / "edges.csv").exists()
        truth = json.loads((synth_outdir / "synth_truth.json").read_text())
        assert truth["journals"] == 26

    def test_spec_json_input(self, tmp_path):
        spec = {
            "cluster_sizes": [4, 4],
            "within_rate": 0.9,
            "leakage_rate": 0.0,
            "seed": 3,
            "bridges": [{"name": "B0", "allocation": [0.5, 0.5]}],
            "generalists": [],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "synth"
        assert run(["synth", "--spec-json", spec_path, "--outdir", out]) == 0
        truth = json.loads((out / "synth_truth.json").read_text())
        assert truth["bridges"][0]["name"] == "B0"

    @pytest.mark.parametrize(
        "spec, field",
        [
            pytest.param({"seed": -2}, "seed", id="seed-spec"),
            pytest.param({"cluster_sizes": [1.5, 3]}, "cluster_sizes", id="float-size"),
            pytest.param({"evenness_range": [1]}, "evenness_range", id="evenness-one"),
            pytest.param({"count_mean": -1}, "count_mean", id="count-mean"),
            pytest.param({"generalists": [{"name": "G", "allocation": [0.5, 0.5],
                                           "volume": float("inf")}]},
                         "volume", id="volume-spec"),
            pytest.param({"bridges": [{"name": "B", "allocation": [0.5, 0.5]},
                                      {"name": "B", "allocation": [0.5, 0.5]}]},
                         "name", id="bridge-twice"),
            pytest.param({"bridges": [{"name": " c00_j000", "allocation": [0.5, 0.5]}]},
                         "name", id="bridge-is-member"),
        ],
    )
    def test_invalid_spec_is_data_error_naming_field(self, tmp_path, capsys, spec, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"cluster_sizes": [5, 5], **spec}), encoding="utf-8")
        assert run(["synth", "--spec-json", path, "--outdir", tmp_path / "x"]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args, field",
        [
            pytest.param(["--seed", "-1"], "seed", id="seed-flag"),
            pytest.param(["--generalists", "1", "--generalist-volume", "nan"], "volume",
                         id="volume-nan"),
            pytest.param(["--generalist-volume", "inf"], "volume", id="volume-inf"),
        ],
    )
    def test_invalid_flag_is_usage_error_naming_field(self, tmp_path, capsys, args, field):
        assert run(["synth", "--clusters", "5,5", *args, "--outdir", tmp_path / "x"]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestExportMatrix:
    def test_cosine_export(self, edges_path, tmp_path):
        target = tmp_path / "cos.mtx"
        code = run(
            ["export-matrix", "--edges", edges_path, "--kind", "cosine",
             "--axis", "cited", "--out", target]
        )
        assert code == 0
        import scipy.io

        m = scipy.io.mmread(str(target))
        assert m.shape == (3, 3)

    def test_cosine_diagonal_exact_above_2000_journals(self, tmp_path):
        import scipy.io

        n = 2100
        rng = np.random.default_rng(22)
        citing = np.repeat(np.arange(n - 10), 6)
        cited = rng.integers(10, n, size=citing.size)  # J0-J9 are never cited
        counts = rng.integers(1, 50, size=citing.size)
        edges = tmp_path / "edges.csv"
        lines = ["citing,cited,count"]
        lines += [f"J{a},J{b},{c}" for a, b, c in zip(citing, cited, counts)]
        edges.write_text("\n".join(lines) + "\n", encoding="utf-8")
        target = tmp_path / "cos.mtx"
        code = run(
            ["export-matrix", "--edges", edges, "--kind", "cosine",
             "--axis", "cited", "--out", target]
        )
        assert code == 0
        diag = scipy.io.mmread(str(target)).diagonal()
        assert diag.size == len(set(citing) | set(cited))
        assert np.count_nonzero(diag == 1.0) == len(set(cited))
        assert np.count_nonzero(diag == 0.0) == diag.size - len(set(cited))


    def test_missing_out_directory_is_data_error(self, edges_path, tmp_path, capsys):
        import scipy.io
        import scipy.sparse as sp

        target = tmp_path / "missing" / "cos.mtx"
        argv = ["export-matrix", "--edges", edges_path, "--out", target]
        assert run(argv) == 2
        assert not target.parent.exists()
        # the error names the report, not the temporary file written first
        assert capsys.readouterr().err == f"data error: {target}: No such file or directory\n"
        # writing through an open file gives the bytes mmwrite writes to a path
        target.parent.mkdir()
        assert run(argv) == 0
        by_path = tmp_path / "by_path.mtx"
        dense = scipy.io.mmread(str(target)).toarray()
        scipy.io.mmwrite(str(by_path), sp.coo_matrix(dense), field="real", symmetry="symmetric")
        assert target.read_bytes() == by_path.read_bytes()

    @pytest.mark.parametrize("kind", ["relative_euclidean", "cosine"], ids=["dense", "sparse"])
    def test_failed_export_keeps_the_previous_file(self, edges_path, tmp_path, monkeypatch, kind):
        import scipy.io

        from interdisc import netspace

        target = tmp_path / "d.mtx"
        argv = ["export-matrix", "--edges", edges_path, "--kind", kind, "--out", target]
        assert run(argv) == 0
        before = target.read_bytes()
        monkeypatch.setattr(netspace, "EXPORT_BLOCK_CELLS", 1)  # one block per journal
        mmwrite, calls = scipy.io.mmwrite, []

        def fail_second_block(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            mmwrite(*args, **kwargs)

        monkeypatch.setattr(scipy.io, "mmwrite", fail_second_block)
        assert run(argv) == 2
        assert len(calls) == 2
        assert target.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_metadata_named_in_config_is_not_read(self, edges_path, tmp_path):
        # a config shared with other commands may name metadata; the export ignores it
        bad_meta = tmp_path / "meta.csv"
        bad_meta.write_text("name,category\nA,LIS,extra\n", encoding="utf-8")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"metadata": str(bad_meta)}), encoding="utf-8")
        argv = ["export-matrix", "--edges", edges_path]
        assert run([*argv, "--out", tmp_path / "plain.mtx"]) == 0
        assert run([*argv, "--config", config, "--out", tmp_path / "cfg.mtx"]) == 0
        assert (tmp_path / "cfg.mtx").read_bytes() == (tmp_path / "plain.mtx").read_bytes()

    def test_jobs_is_accepted_and_changes_no_byte(self, edges_path, tmp_path):
        # benchmark command lines give every command --jobs
        argv = ["export-matrix", "--edges", edges_path, "--kind", "relative_euclidean"]
        assert run([*argv, "--out", tmp_path / "one.mtx"]) == 0
        assert run([*argv, "--jobs", "2", "--out", tmp_path / "two.mtx"]) == 0
        assert (tmp_path / "one.mtx").read_bytes() == (tmp_path / "two.mtx").read_bytes()

    @pytest.mark.parametrize("axis", ["cited", "citing"])
    def test_every_kind(self, edges_path, tmp_path, axis):
        import scipy.io
        import scipy.sparse as sp

        _, matrix = load_edge_list(edges_path)
        a = matrix.axis_matrix(axis).toarray()  # C is never cited: an empty cited vector
        empty = ~a.any(axis=1)
        assert empty.any() == (axis == "cited")
        read = {}
        for kind in ("cosine", "cooccurrence", "one_minus_cosine", "relative_euclidean"):
            target = tmp_path / f"{kind}.mtx"
            argv = ["export-matrix", "--edges", edges_path, "--kind", kind, "--axis", axis]
            assert run([*argv, "--out", target]) == 0
            read[kind] = scipy.io.mmread(str(target)).toarray()

        # co-occurrence counts come back exact, written as integers, and in
        # the bytes of the same product written from a dense array
        target = tmp_path / "cooccurrence.mtx"
        assert target.read_text().startswith("%%MatrixMarket matrix coordinate integer symmetric")
        assert np.array_equal(read["cooccurrence"], a @ a.T)
        by_dense = tmp_path / "by_dense.mtx"
        scipy.io.mmwrite(
            str(by_dense), sp.coo_matrix(a @ a.T), field="integer", symmetry="symmetric"
        )
        assert target.read_bytes() == by_dense.read_bytes()

        assert np.array_equal(np.diag(read["cosine"]), np.where(empty, 0.0, 1.0))
        undefined = (empty[:, None] | empty[None, :]) & ~np.eye(len(a), dtype=bool)
        for kind in ("one_minus_cosine", "relative_euclidean"):
            assert np.array_equal(np.isnan(read[kind]), undefined), kind
            assert np.all(np.diag(read[kind]) == 0.0), kind


class TestComputesOnlyWhatItReports:
    """Each command asks the table for the columns it reports, and only the
    families behind those columns run."""

    @pytest.fixture
    def edges(self, synth_outdir):
        return synth_outdir / "edges.csv"

    @pytest.fixture
    def refuse_betweenness_and_diversity(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("this command does not report the column")

        monkeypatch.setattr(centrality, "betweenness", refuse)
        monkeypatch.setattr(pipeline, "diversity_all", refuse)

    @pytest.fixture
    def families_run(self, monkeypatch):
        calls = []
        family_columns = pipeline._family_columns

        def record(family, matrix, direction, config):
            calls.append((family, direction.value))
            return family_columns(family, matrix, direction, config)

        monkeypatch.setattr(pipeline, "_family_columns", record)
        return calls

    @pytest.mark.parametrize(
        "columns",
        [
            ["entropy", "entropy_cited"],  # rank entropy
            ["rao_stirling_relative_euclidean", "rao_stirling_relative_euclidean_citing"],
            ["betweenness_cosine_citing", "betweenness_cosine_citing_cited"],
            ["total_citations_cited", "betweenness_citations_citing"],
            DEFAULT_CORRELATE_COLUMNS,
            DEFAULT_FACTOR_COLUMNS,
        ],
    )
    def test_restricted_columns_equal_full_table(self, edges, columns):
        registry, matrix = load_edge_list(edges)
        full = compute_indicator_table(matrix, registry, RunConfig())
        restricted = compute_indicator_table(matrix, registry, RunConfig(), columns)
        catalogue = {f"{i.name}_{d}" for i in INDICATORS for d in ("cited", "citing")}
        assert {c for c in restricted.columns if c in catalogue} == set(columns) & catalogue
        assert set(restricted.columns) - catalogue == {"support_cited", "support_citing"}
        for name, column in restricted.columns.items():
            assert np.array_equal(column, full.column(name), equal_nan=True), name
        for name, flag in full.flags.items():
            assert np.array_equal(restricted.flags[name], flag)

    @pytest.mark.usefixtures("refuse_betweenness_and_diversity")
    @pytest.mark.parametrize("command", [["rank", "entropy"], ["correlate"]])
    def test_vector_only_commands_run_no_betweenness_or_diversity(self, edges, tmp_path, command):
        assert run([*command, "--edges", edges, "--outdir", tmp_path / "o"]) == 0

    @pytest.mark.usefixtures("refuse_betweenness_and_diversity")
    @pytest.mark.parametrize(
        "command",
        [
            ["rank", "nonsense"],
            ["correlate", "--columns", "entropy_cited,nonsense"],
            ["factor", "--columns", "nonsense"],
            ["correlate", "--columns", "entropy_cited"],
            ["correlate", "--columns", ","],
            ["factor", "--columns", ","],
        ],
    )
    def test_unknown_column_is_usage_error_before_betweenness(self, edges, tmp_path, command):
        assert run([*command, "--edges", edges, "--outdir", tmp_path / "o"]) == 1

    def test_named_columns_ignore_directions_and_metrics(self, edges):
        registry, matrix = load_edge_list(edges)
        columns = ["rao_stirling_relative_euclidean_citing", "entropy_citing", "gini_cited"]
        narrow = RunConfig(directions=("cited",), metrics=("one_minus_cosine",))
        got = compute_indicator_table(matrix, registry, narrow, columns)
        want = compute_indicator_table(matrix, registry, RunConfig(), columns)
        assert set(columns) < set(got.columns) and got.columns.keys() == want.columns.keys()
        for name, column in want.columns.items():
            assert np.array_equal(got.column(name), column, equal_nan=True), name
        assert sorted(got.flags) == ["degenerate_cited", "degenerate_citing"]
        for name, flag in want.flags.items():
            assert np.array_equal(got.flags[name], flag), name

    @pytest.mark.parametrize(
        "command, report",
        [
            (["rank", "entropy", "--direction", "citing"], "ranking_entropy.csv"),
            (["correlate"], "correlations.csv"),
        ],
    )
    def test_config_directions_and_metrics_leave_named_columns(
        self, edges, tmp_path, command, report
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"directions": ["cited"], "metrics": []}), encoding="utf-8")
        argv = [*command, "--edges", edges]
        assert run([*argv, "--config", config, "--outdir", tmp_path / "narrow"]) == 0
        assert run([*argv, "--outdir", tmp_path / "default"]) == 0
        narrow, default = (data_lines(tmp_path / d / report) for d in ("narrow", "default"))
        assert narrow and narrow == default
        if command == ["correlate"]:
            assert [row[0] for row in narrow[: len(DEFAULT_CORRELATE_COLUMNS)]] == (
                DEFAULT_CORRELATE_COLUMNS
            )

    def test_default_factor_runs_no_citing_family(self, edges, tmp_path, families_run):
        assert run(["factor", "--edges", edges, "--outdir", tmp_path / "o"]) == 0
        assert sorted(families_run) == [
            ("cosine_betweenness", "cited"),
            ("one_minus_cosine", "cited"),
            ("raw_betweenness", "cited"),
            ("relative_euclidean", "cited"),
            ("vector", "cited"),
        ]

    def test_full_table_runs_raw_betweenness_once(self, edges, tmp_path, families_run):
        assert run(["indicators", "--edges", edges, "--outdir", tmp_path / "o"]) == 0
        families = [family for family, _ in families_run]
        assert families.count("raw_betweenness") == 1
        assert len(families) == 1 + 5 * 2
        assert len(set(families_run)) == len(families_run)


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["frobnicate"]) == 1
        assert main(["indicators"]) == 1  # no input given

    def test_data_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("citing,cited,count\nA,B,-3\n", encoding="utf-8")
        assert main(["indicators", "--edges", str(bad), "--outdir", str(tmp_path / "o")]) == 2

    def test_missing_file_is_2(self, tmp_path):
        assert (
            main(
                [
                    "indicators",
                    "--edges", str(tmp_path / "nope.csv"),
                    "--outdir", str(tmp_path / "o"),
                ]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "name,text",
        [
            ("e.csv", "citing,cited,count\nA,B,99999999999999999999\n"),
            (
                "m.mtx",
                "%%MatrixMarket matrix coordinate integer general\n2 2 2\n"
                f"1 2 {2**62}\n1 2 {2**62}\n",
            ),
        ],
    )
    def test_count_beyond_int64_is_2(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        flag = "--edges" if name.endswith(".csv") else "--matrix-market"
        assert run(["indicators", flag, path, "--outdir", tmp_path / "o"]) == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["indicators", "--outdir", "o"],
            ["rank", "entropy", "--outdir", "o"],
            ["correlate", "--outdir", "o"],
            ["factor", "--outdir", "o"],
            ["subset", "--ids", "0,1", "--outdir", "o"],
            ["export-matrix", "--out", "cos.mtx"],
        ],
    )
    def test_corpus_emptied_by_min_count_is_2(
        self, edges_path, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        argv = [*command, "--edges", edges_path, "--min-count", "100"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {edges_path}: citation matrix has no cells\n"
        assert not (tmp_path / "o").exists() and not (tmp_path / "cos.mtx").exists()

    @pytest.mark.parametrize(
        "flag,text",
        [
            ("--matrix-market",
             "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 0\n2 1 0\n"),
            ("--matrix-market", "%%MatrixMarket matrix coordinate integer general\n3 3 0\n"),
            ("--edges", "citing,cited,count\n"),
        ],
        ids=["matrix-market-all-zero", "matrix-market-no-entry", "edges-header-only"],
    )
    def test_file_without_cells_is_2_naming_the_file(self, tmp_path, capsys, flag, text):
        path = tmp_path / ("m.mtx" if flag == "--matrix-market" else "e.csv")
        path.write_text(text, encoding="utf-8")
        assert run(["indicators", flag, path, "--outdir", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == f"data error: {path}: citation matrix has no cells\n"
        assert not (tmp_path / "o").exists()

    def test_local_subset_without_cells_is_2(self, edges4_path, tmp_path, capsys):
        # X (1) and Z (3) cite neither each other nor themselves
        argv = ["subset", "--edges", edges4_path, "--ids", "1,3", "--mode", "local_submatrix"]
        assert run([*argv, "--outdir", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == "data error: citation matrix has no cells\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["edges", "names", "metadata"])
    def test_non_utf8_file_is_2_naming_the_file(self, tmp_path, capsys, kind):
        edges = tmp_path / "e.csv"
        edges.write_bytes(b"citing,cited,count\nA,B,1\nB,C,2\nC,A,3\n")
        mm = tmp_path / "m.mtx"
        mm.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3\n")
        bad = tmp_path / f"{kind}.bad"
        argv = ["indicators", "--outdir", tmp_path / "o"]
        if kind == "edges":
            bad.write_bytes(b"citing,cited,count\nA,B,1\n\xff,C,2\n")
            argv += ["--edges", bad]
        elif kind == "names":
            bad.write_bytes(b"Alpha\nB\xffeta\n")
            argv += ["--matrix-market", mm, "--names", bad]
        else:
            bad.write_bytes(b"name,category\nA,\xff\n")
            argv += ["--edges", edges, "--metadata", bad]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            # scipy's reader crashes the process on this truncated array file
            "%%MatrixMarket matrix array real general\n5 665\n8 i",
            "%%MatrixMarket matrix array integer general\n2 2\n1\n2\n3\n4\n",
            "%%MatrixMarket vector coordinate integer general\n2 1\n1 3\n",
            "2 2 1\n1 2 3\n",
        ],
        ids=["truncated_array", "array", "vector", "no_banner"],
    )
    def test_non_coordinate_matrix_market_is_2_in_a_subprocess(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "interdisc.cli", "indicators",
             "--matrix-market", str(path), "--outdir", str(tmp_path / "o")],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "expected a '%%MatrixMarket matrix coordinate' banner" in proc.stderr

    @pytest.mark.parametrize(
        "argv,directory",
        [
            pytest.param(["indicators", "--edges", "{dir}"], "d", id="edges"),
            pytest.param(["indicators", "--edges", "{edges}", "--metadata", "{dir}"], "d",
                         id="metadata"),
            pytest.param(["indicators", "--matrix-market", "{mm}", "--names", "{dir}"], "d",
                         id="names"),
            pytest.param(["indicators", "--edges", "{edges}"], "o/indicators.json",
                         id="indicators-report"),
            pytest.param(["rank", "entropy", "--edges", "{edges}"], "o/ranking_entropy.csv",
                         id="ranking-report"),
            pytest.param(["synth", "--clusters", "4,4"], "o/edges.csv", id="synth-edges"),
        ],
    )
    def test_directory_in_place_of_a_file_is_2_in_a_subprocess(
        self, edges_path, tmp_path, argv, directory
    ):
        mm = tmp_path / "m.mtx"
        mm.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3\n")
        path = tmp_path / directory
        path.mkdir(parents=True)
        argv = [part.format(dir=path, edges=edges_path, mm=mm) for part in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "interdisc.cli", *argv, "--outdir", str(tmp_path / "o")],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert f"data error: {path}: " in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv,directory,partners",
        [
            pytest.param(["indicators", "--edges", "{edges}"], "indicators.json",
                         ["indicators_cited.csv", "indicators_citing.csv"], id="indicators"),
            pytest.param(["correlate", "--edges", "{edges}"], "correlations.json",
                         ["correlations.csv"], id="correlate"),
            pytest.param(["factor", "--edges", "{edges}", "-k", "2"], "factors.json",
                         ["factors.csv"], id="factor"),
            pytest.param(["synth", "--clusters", "4,4"], "synth_truth.json", ["edges.csv"],
                         id="synth"),
        ],
    )
    def test_failed_report_set_writes_none_of_it(
        self, synth_outdir, tmp_path, argv, directory, partners
    ):
        argv = [part.format(edges=synth_outdir / "edges.csv") for part in argv]
        out = tmp_path / "o"
        (out / directory).mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "interdisc.cli", *argv, "--outdir", str(out)],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert f"data error: {out / directory}: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in out.iterdir()) == [directory]
        # the set is written whole once the directory is gone
        (out / directory).rmdir()
        assert run([*argv, "--outdir", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([directory, *partners])

    def test_numerical_error_is_3(self, synth_outdir, tmp_path):
        # k larger than the column count triggers a rank error
        code = run(
            [
                "factor",
                "--edges", synth_outdir / "edges.csv",
                "--outdir", tmp_path / "x",
                "--columns", "entropy_cited,gini_cited",
                "-k", "5",
            ]
        )
        assert code == 3


class TestOptionValidation:
    def test_min_count_with_matrix_market_is_usage_error(self, tmp_path):
        import scipy.io
        import scipy.sparse as sp

        mm = tmp_path / "m.mtx"
        scipy.io.mmwrite(str(mm), sp.coo_matrix(np.array([[0, 2], [3, 0]])), field="integer")
        argv = ["indicators", "--matrix-market", mm, "--outdir", tmp_path / "o"]
        assert run(argv) == 0
        assert run(argv + ["--min-count", "2"]) == 1

    def test_names_without_matrix_market_is_usage_error(self, edges_path, tmp_path, capsys):
        names = tmp_path / "names.txt"
        names.write_text("A\nB\nC\n", encoding="utf-8")
        argv = ["indicators", "--edges", edges_path, "--outdir", tmp_path / "o"]
        assert run(argv + ["--names", names]) == 1
        assert "--names applies to --matrix-market" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["indicators", "--outdir", "o"],
            ["rank", "entropy", "--outdir", "o"],
            ["correlate", "--outdir", "o"],
            ["subset", "--ids", "0,1", "--outdir", "o"],
            ["export-matrix", "--out", "cos.mtx"],
        ],
    )
    def test_factors_outside_factor_is_usage_error(
        self, edges_path, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        assert run([*command, "--edges", edges_path, "-k", "4"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: -k 4" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists() and not (tmp_path / "cos.mtx").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            *[
                (["export-matrix", "--out", "x.mtx"], flag)
                for flag in (
                    ["--outdir", "o"],
                    ["--directions", "cited"],
                    ["--metrics", "one_minus_cosine"],
                    ["--cosine-threshold", "0.5"],
                    ["--gini-include-zeros"],
                    ["--triangle-sum"],
                    ["--exclude-self-citations-from-p"],
                    ["--metadata", "meta.csv"],
                )
            ],
            *[
                ([*command, "--outdir", "o"], flag)
                for command in (["rank", "entropy"], ["correlate"], ["factor"])
                for flag in (["--directions", "cited"], ["--metrics", "one_minus_cosine"])
            ],
        ],
    )
    def test_flag_a_command_does_not_read_is_usage_error(
        self, edges_path, tmp_path, monkeypatch, capsys, command, flag
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "meta.csv").write_text("name,category\nA,X\n", encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        assert run([*command, "--edges", edges_path, *flag]) == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    def test_each_command_takes_the_options_it_reads(self):
        corpus = ["-h", "--help", "--edges", "--matrix-market", "--names", "--min-count",
                  "--config", "--jobs"]
        run_options = corpus + ["--metadata", "--outdir", "--cosine-threshold",
                                "--gini-include-zeros", "--triangle-sum",
                                "--exclude-self-citations-from-p"]
        scope = ["--directions", "--metrics"]
        expected = {
            "indicators": run_options + scope,
            "rank": run_options + ["--direction", "--top", "--include-degenerate",
                                   "--append-journal", "--sqrt"],
            "correlate": run_options + ["--columns", "--include-degenerate"],
            "factor": run_options + ["--columns", "--include-degenerate", "-k", "--factors"],
            "subset": run_options + scope + ["--category", "--ids", "--mode"],
            "synth": ["-h", "--help", "--clusters", "--within-rate", "--leakage", "--bridges",
                      "--generalists", "--generalist-volume", "--seed", "--outdir",
                      "--spec-json"],
            "export-matrix": corpus + ["--kind", "--axis", "--out"],
        }
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        surface = {
            name: sorted(o for action in parser._actions for o in action.option_strings)
            for name, parser in subparsers.choices.items()
        }
        assert surface == {name: sorted(options) for name, options in expected.items()}

    def test_nan_cosine_threshold_is_usage_error(self, edges_path, tmp_path):
        code = run(
            ["indicators", "--edges", edges_path, "--outdir", tmp_path / "o",
             "--cosine-threshold", "nan"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["indicators", "--jobs", "0"], id="jobs-0"),
            pytest.param(["indicators", "--jobs", "-3"], id="jobs-minus-3"),
            pytest.param(["factor", "-k", "0"], id="factors-0"),
            pytest.param(["indicators", "--min-count", "0"], id="min-count-0"),
        ],
    )
    def test_count_below_one_is_usage_error(self, edges_path, tmp_path, argv):
        assert run([*argv, "--edges", edges_path, "--outdir", tmp_path / "o"]) == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("jobs", 0),
            ("factors_k", 0),
            ("min_count", 0),
            ("cosine_threshold", float("nan")),
            pytest.param("cosine_threshold", -0.1, id="cosine_threshold-negative"),
            pytest.param("cosine_threshold", 1.0, id="cosine_threshold-one"),
        ],
    )
    def test_library_config_rejects_bad_value(self, field, value):
        # the checks live in RunConfig, so library callers get them as well as the CLI
        with pytest.raises(UsageError, match=field):
            RunConfig(**{field: value})

    def test_negative_top_is_usage_error(self, edges_path, tmp_path):
        argv = ["rank", "entropy", "--edges", edges_path, "--outdir", tmp_path / "o"]
        assert run(argv + ["--top", "0"]) == 0
        assert run(argv + ["--top", "-1"]) == 1

    @pytest.mark.parametrize(
        "config",
        [
            {"cosine_threshold": "0.5"},
            {"jobs": "2"},
            {"gini_include_zeros": "no"},
            {"directions": "cited"},
        ],
    )
    def test_config_value_of_wrong_type_is_usage_error(self, edges_path, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["indicators", "--edges", edges_path, "--outdir", tmp_path / "o"]
        assert run(argv + ["--config", path]) == 1

    def test_config_float_out_of_range_is_usage_error(self, edges_path, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"cosine_threshold": 10**400}), encoding="utf-8")
        argv = ["indicators", "--edges", edges_path, "--outdir", tmp_path / "o"]
        assert run(argv + ["--config", path]) == 1


class TestTypedErrors:
    """Bad flag values are usage errors (exit 1); unreadable or invalid files
    are data errors (exit 2); neither ends in a traceback."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            pytest.param(["subset", "--edges", "{edges}", "--ids", "1,x"], 1, id="ids-not-int"),
            pytest.param(["synth", "--clusters", "a,b"], 1, id="clusters-not-int"),
            pytest.param(["synth", "--spec-json", "{not_json}"], 2, id="spec-not-json"),
            pytest.param(["synth", "--spec-json", "{unknown_key}"], 2, id="spec-unknown-key"),
            pytest.param(["synth", "--spec-json", "{wrong_type}"], 2, id="spec-wrong-type"),
            pytest.param(["synth", "--spec-json", "{not_object}"], 2, id="spec-not-object"),
            pytest.param(["indicators", "--edges", "{edges}", "--config", "{directory}"], 2,
                         id="config-is-directory"),
            pytest.param(["indicators", "--edges", "{edges}", "--config", "{not_object}"], 2,
                         id="config-not-object"),
            pytest.param(["indicators", "--edges", "{edges}", "--outdir", "{file}"], 1,
                         id="outdir-is-file"),
            pytest.param(["synth", "--clusters", "4,4", "--outdir", "{file}"], 1,
                         id="synth-outdir-is-file"),
            pytest.param(["indicators", "--edges", "{edges}", "--directions", ","], 1,
                         id="no-direction"),
            pytest.param(["synth", "--clusters", "4,4", "--bridges", "-3"], 1,
                         id="negative-bridges"),
            pytest.param(["synth", "--clusters", "4,4", "--generalists", "-2"], 1,
                         id="negative-generalists"),
            pytest.param(["synth", "--clusters", "4,4", "--within-rate", "2"], 1,
                         id="within-rate-above-one"),
            pytest.param(["synth", "--clusters", "4,4", "--leakage", "-1"], 1,
                         id="negative-leakage"),
            pytest.param(["synth", "--clusters", "4,4", "--seed", "-1"], 1, id="negative-seed"),
            pytest.param(["synth", "--clusters", "4,4", "--generalist-volume", "0.5"], 1,
                         id="generalist-volume-below-one"),
            pytest.param(["synth", "--clusters", "4,4,0"], 1, id="zero-cluster-size"),
            pytest.param(["indicators", "--edges", "{edges}", "--cosine-threshold", "-0.1"], 1,
                         id="cosine_threshold-negative"),
            pytest.param(["indicators", "--edges", "{edges}", "--cosine-threshold", "1"], 1,
                         id="cosine_threshold-one"),
        ],
    )
    def test_bad_value_is_typed_error(self, edges_path, tmp_path, argv, code):
        files = {
            "not_json": "{\"cluster_sizes\": [4, 4],",
            "unknown_key": json.dumps({"cluster_sizes": [4, 4], "colour": "red"}),
            "wrong_type": json.dumps({"cluster_sizes": [4, 4], "within_rate": "high"}),
            "not_object": json.dumps([4, 4]),
            "file": "",
        }
        paths = {"edges": edges_path, "directory": tmp_path}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text, encoding="utf-8")
        argv = [part.format(**paths) for part in argv]
        if "--outdir" not in argv:
            argv += ["--outdir", str(tmp_path / "o")]
        assert run(argv) == code
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv,bad,line",
        [
            pytest.param(["indicators", "--edges", "{bad}"],
                         "citing,cited,count\nA,B,2\nC\n", 3, id="edges-short-row"),
            pytest.param(["indicators", "--edges", "{bad}"],
                         f"citing,cited,count\nA,B,{2**63}\n", None, id="edges-count-beyond-int64"),
            pytest.param(["indicators", "--edges", "{bad}"],
                         f"citing,cited,count\nA,B,{2**62}\nA,B,{2**62}\n", None,
                         id="edges-sum-beyond-int64"),
            pytest.param(["indicators", "--matrix-market", "{bad}"],
                         "%%MatrixMarket matrix coordinate integer general\n2 2 2\n"
                         f"1 2 {2**62}\n1 2 {2**62}\n", None, id="matrix-market-sum-beyond-int64"),
            pytest.param(["indicators", "--edges", "{edges}", "--metadata", "{bad}"],
                         "name,category\nA,LIS\nB,LIS,x\n", 3, id="metadata-wide-row"),
            pytest.param(["rank", "entropy", "--edges", "{edges}", "--metadata", "{bad}"],
                         "name,category\nA,LIS\nA,PHYS\n", 3, id="metadata-duplicate-row"),
            pytest.param(["indicators", "--matrix-market", "{mm}", "--names", "{bad}"],
                         "Alpha\n", None, id="names-count"),
            pytest.param(["subset", "--ids", "0", "--matrix-market", "{mm}", "--names", "{bad}"],
                         "Alpha\n ALPHA \n", None, id="names-duplicate"),
            pytest.param(["correlate", "--edges", "{edges}", "--config", "{bad}"],
                         "{\"jobs\": 2,", None, id="config-not-json"),
            pytest.param(["synth", "--spec-json", "{bad}"], "[4, 4]", None,
                         id="spec-not-object"),
            pytest.param(["indicators", "--edges", "{edges}", "--config", "{bad}"], "[1]", None,
                         id="config-not-object"),
        ],
    )
    def test_data_error_names_its_file(self, edges_path, tmp_path, capsys, argv, bad, line):
        mm = tmp_path / "m.mtx"
        mm.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3\n")
        bad_path = tmp_path / "bad.txt"
        bad_path.write_text(bad, encoding="utf-8")
        argv = [part.format(bad=bad_path, edges=edges_path, mm=mm) for part in argv]
        assert run([*argv, "--outdir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        prefix = f"data error: {bad_path}: " + (f"line {line}: " if line else "")
        assert err.startswith(prefix), err
        assert err.count(str(bad_path)) == 1 and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestWarnings:
    def test_each_warning_is_one_line_in_a_subprocess(self, edges_path, tmp_path):
        # C is never cited, so its pairs have undefined cited distances
        proc = subprocess.run(
            [sys.executable, "-m", "interdisc.cli", "indicators", "--edges", str(edges_path),
             "--outdir", str(tmp_path / "o")],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert "warning: 4 journal pairs had undefined distances (cited, relative_euclidean)" in lines
        assert all(line.startswith("warning: ") for line in lines), lines
        assert not any(".py" in line for line in lines), lines

    def test_main_restores_the_warning_format(self, edges_path, tmp_path):
        before = warnings.formatwarning
        with pytest.warns(UserWarning, match="undefined distances"):
            assert run(["indicators", "--edges", edges_path, "--outdir", tmp_path / "o"]) == 0
        assert warnings.formatwarning is before


class TestTracedRun:
    """perfbench/traced.py rebinds package functions by name and aborts when
    one is gone; run it in a subprocess so the rebinding stays out of this
    session."""

    @pytest.mark.parametrize(
        "command",
        [
            ["indicators", "--outdir", "o"],
            ["rank", "entropy", "--outdir", "o"],
            ["export-matrix", "--kind", "cosine", "--out", "c.mtx"],
        ],
    )
    def test_traced_command_runs(self, edges4_path, tmp_path, command):
        spans = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans), *command,
             "--edges", str(edges4_path)],
            env=src_env(), cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(spans.read_text(encoding="utf-8"))["spans"]


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.special"])
def test_cli_import_leaves_scipy_stats_out(tmp_path, module):
    # scipy.stats takes most of a second to import and no command needs it;
    # scipy.special takes ~0.2 s and only correlate's p-values need it
    code = f"import sys, interdisc.cli; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=src_env(), cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
