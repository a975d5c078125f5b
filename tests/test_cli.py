import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from interdisc.cli import main
from interdisc.pipeline import INDICATOR_NAMES, file_digest

ROOT = Path(__file__).resolve().parents[1]


def run(argv) -> int:
    return main([str(a) for a in argv])


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
        assert len(INDICATOR_NAMES) == 12
        for direction in ("cited", "citing"):
            path = out / f"indicators_{direction}.csv"
            header = [
                line for line in path.read_text().splitlines() if not line.startswith("#")
            ][0].split(",")
            indicator_cols = [
                c for c in header if c not in ("journal_id", "name", "support", "degenerate")
            ]
            assert len(indicator_cols) == 12
            assert indicator_cols == [f"{n}_{direction}" for n in INDICATOR_NAMES]
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
            data = [
                l.split(",")
                for l in (out / "ranking_entropy.csv").read_text().splitlines()
                if l and not l.startswith("#")
            ][1:]
            names[label] = [r[2] for r in data]
        assert names["orig"] == names["perm"]

    def test_gini_ranked_ascending(self, synth_outdir, tmp_path):
        out = tmp_path / "rank"
        run(["rank", "gini", "--edges", synth_outdir / "edges.csv", "--outdir", out])
        data = [
            l.split(",")
            for l in (out / "ranking_gini.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ][1:]
        values = [float(r[3]) for r in data]
        assert values == sorted(values)


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

    def test_infeasible_spec_is_data_error(self, tmp_path):
        code = run(["synth", "--clusters", "0,5", "--outdir", tmp_path / "x"])
        assert code == 2


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

    def test_nan_cosine_threshold_is_usage_error(self, edges_path, tmp_path):
        code = run(
            ["indicators", "--edges", edges_path, "--outdir", tmp_path / "o",
             "--cosine-threshold", "nan"]
        )
        assert code == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, edges_path, tmp_path, jobs):
        code = run(
            ["indicators", "--edges", edges_path, "--outdir", tmp_path / "o",
             "--jobs", jobs]
        )
        assert code == 1

    def test_negative_top_is_usage_error(self, edges_path, tmp_path):
        argv = ["rank", "entropy", "--edges", edges_path, "--outdir", tmp_path / "o"]
        assert run(argv + ["--top", "0"]) == 0
        assert run(argv + ["--top", "-1"]) == 1

    @pytest.mark.parametrize(
        "config",
        [
            {"cosine_threshold": "0.5"},
            {"jobs": "2"},
            [1, 2],
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


class TestTracedRun:
    """perfbench/traced.py rebinds package functions by name and aborts when
    one is gone; run it in a subprocess so the rebinding stays out of this
    session."""

    @pytest.mark.parametrize("command", [["indicators"], ["rank", "entropy"]])
    def test_traced_command_runs(self, edges4_path, tmp_path, command):
        spans = tmp_path / "spans.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans), *command,
             "--edges", str(edges4_path), "--outdir", str(tmp_path / "o")],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(spans.read_text(encoding="utf-8"))["spans"]
