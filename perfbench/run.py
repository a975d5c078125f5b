#!/usr/bin/env python3
"""Benchmark of the interdisc command-line pipeline on seeded synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload dense-cooc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

A run generates the workload's corpus with `interdisc.synth` from the seed,
then runs the real CLI as a subprocess (`interdisc indicators`, `rank
entropy`, `export-matrix --kind cosine`) round after round until the time
is up, checks every report, and prints each metric by name with its unit.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 1` the
commands also run under `traced.py`, which times the calls into each
module, and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from checks import (
    check_betweenness_identity,
    check_export,
    check_ranking,
    check_reference,
    pattern,
    read_indicators,
    read_matrix_market_size,
    reference_arrays,
)
from traced import ABORT_EXIT

clock = time.perf_counter

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = HERE / "reference"

DEFAULT_SEED = 1
COMMAND_LIMIT_S = 150
IMPORT_PROBES = 3
CLI_STUB = "import sys; from interdisc.cli import main; sys.exit(main())"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RANK_INDICATOR = "entropy"
RANK_COLUMN = "entropy_cited"  # rank's default direction is cited


@dataclass(frozen=True)
class Workload:
    spec: dict
    round: tuple[str, ...]  # invocations per measurement round, in order
    export_axis: str
    setup_reps: int  # set-up repetitions after each command invocation

    @property
    def commands(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.round))


WORKLOADS = {
    # n=1,512; co-occurrence density 0.08 cited, 0.49 citing; dense branches.
    "dense-cooc": Workload(
        spec=dict(cluster_sizes=[50] * 30, within_rate=0.92, leakage_rate=0.02,
                  n_bridges=8, n_generalists=4, generalist_volume=12),
        round=("indicators", "export", "rank", "export"),
        export_axis="citing",
        setup_reps=2,
    ),
    # n=2,408; density 0.03 cited, 0.05 citing; above MATERIALIZE_LIMIT, lazy branches.
    "sparse-lazy": Workload(
        spec=dict(cluster_sizes=[40] * 60, within_rate=0.7, leakage_rate=0.01,
                  n_bridges=6, n_generalists=2, generalist_volume=8),
        round=("indicators", "export", "rank", "export"),
        export_axis="citing",
        setup_reps=2,
    ),
    # Criterion 10's corpus: n=7,990, 1.54M cells.  The indicator table takes
    # minutes at this size, so only the export runs.
    "ingest-export": Workload(
        spec=dict(cluster_sizes=[265] * 30, within_rate=0.92, leakage_rate=0.02,
                  n_bridges=36, n_generalists=4, generalist_volume=8),
        round=("export",),
        export_axis="cited",
        setup_reps=1,
    ),
    # Tiny planted corpus for --self-test.
    "planted": Workload(
        spec=dict(cluster_sizes=[30, 30, 30], n_bridges=2, n_generalists=1),
        round=("indicators", "rank", "export"),
        export_axis="citing",
        setup_reps=1,
    ),
}

END_TO_END_UNITS = {
    "indicators_s": "s",
    "rank_s": "s",
    "export_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
COMMAND_METRIC = {"indicators": "indicators_s", "rank": "rank_s", "export": "export_s"}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "stats.import_s": "s",
    "corpus.load_s": "s",
    "corpus.rows": "count",
    "corpus.cells": "count",
    "corpus.rss_mb": "MB",
    "netspace.graph_s": "s",
    "netspace.edges.raw": "count",
    "netspace.edges.cited": "count",
    "netspace.edges.citing": "count",
    "netspace.density.cited": "ratio",
    "netspace.density.citing": "ratio",
    "netspace.export_s": "s",
    "netspace.export_bytes": "bytes",
    "netspace.rss_mb": "MB",
    "centrality.raw_s": "s",
    "centrality.cos_cited_s": "s",
    "centrality.cos_citing_s": "s",
    "centrality.batches": "count",
    "vector_indicators.s": "s",
    "vector_indicators.calls": "count",
    "diversity.one_minus_cosine.cited_s": "s",
    "diversity.one_minus_cosine.citing_s": "s",
    "diversity.relative_euclidean.cited_s": "s",
    "diversity.relative_euclidean.citing_s": "s",
    "stats.s": "s",
    "pipeline.table_s": "s",
    "pipeline.self_s": "s",
    "pipeline.write_s": "s",
    "pipeline.bytes_written": "bytes",
    "synth.generate_s": "s",
    "synth.write_s": "s",
    "trace.wall_ratio": "ratio",
    "trace.coverage": "ratio",
}

# Printed in the table but not in the JSON result: each of these is 0, or
# near it, on a healthy tree, so a relative comparison of them means nothing.
PRINTED_ONLY_UNITS = {
    "ops_failed": "ratio",
    "diversity.undefined_pairs": "count",
    "trace.overhead": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark itself cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# Running commands


@dataclass
class Invocation:
    command: str
    traced: bool
    wall_s: float
    rss_mb: float
    exit_code: int
    digest: str
    spans: dict | None = None


def run_child(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[float, float, int]:
    """Run one process to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "wb") as out:
        start = clock()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def directory_digest(path: Path) -> str:
    h = hashlib.sha256()
    for item in sorted(path.iterdir()):
        h.update(item.name.encode("utf-8") + b"\0")
        with open(item, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


@dataclass
class Session:
    """One workload run: its directories, environment and invocations."""

    name: str
    workload: Workload
    seed: int
    work: Path
    env: dict
    jobs: int
    invocations: list[Invocation] = field(default_factory=list)
    evidence: dict = field(default_factory=dict)  # first outputs, for the checks
    setup_samples: list[tuple[float, float]] = field(default_factory=list)  # (generate, write)
    corpus_digests: set[str] = field(default_factory=set)

    def set_up(self, directory: Path):
        """Generate the corpus from the seed and write it to `directory`, timed."""
        from interdisc.synth import generate, uniform_spec, write_corpus

        spec = uniform_spec(**self.workload.spec, seed=self.seed)
        directory.mkdir(parents=True, exist_ok=True)
        edges = directory / "edges.csv"
        start = clock()
        corpus = generate(spec)
        mid = clock()
        write_corpus(corpus, edges, directory / "synth_truth.json")
        self.setup_samples.append((mid - start, clock() - mid))
        self.corpus_digests.add(hashlib.sha256(edges.read_bytes()).hexdigest())
        return corpus

    def outdir(self, command: str) -> Path:
        return self.work / command

    def cli_args(self, command: str) -> list[str]:
        common = ["--edges", "corpus/edges.csv", "--jobs", str(self.jobs)]
        if command == "indicators":
            return ["indicators", *common, "--outdir", command]
        if command == "rank":
            return ["rank", RANK_INDICATOR, *common, "--outdir", command]
        return ["export-matrix", "--kind", "cosine", "--axis", self.workload.export_axis,
                *common, "--out", f"{command}/cosine.mtx"]

    def invoke(self, command: str, traced: bool) -> Invocation:
        out = self.outdir(command)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        index = len(self.invocations)
        spans_path = self.work / f"spans-{index}.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-c", CLI_STUB]
        log = self.work / f"log-{index}.txt"
        wall, rss, code = run_child(argv + self.cli_args(command), self.work, self.env, log)
        if code != 0:
            sys.stderr.write(f"{command} exited {code}:\n{log.read_text(errors='replace')[-2000:]}\n")
        digest = directory_digest(out)
        spans = None
        if traced:
            if code == ABORT_EXIT:
                raise BenchmarkError(log.read_text(errors="replace").strip())
            if spans_path.exists():
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
        inv = Invocation(command, traced, wall, rss, code, digest, spans)
        self.invocations.append(inv)
        if command not in self.evidence and code == 0:
            self.keep_evidence(command)
        return inv

    def keep_evidence(self, command: str) -> None:
        out = self.outdir(command)
        if command == "export":
            self.evidence[command] = read_matrix_market_size(out / "cosine.mtx")
        else:
            kept = self.work / "first" / command
            shutil.copytree(out, kept)
            self.evidence[command] = kept


def new_session(name: str, seed: int) -> Session:
    """A fresh work directory, and the environment every command runs with."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    jobs = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = str(jobs)
    env["TMPDIR"] = str(work / "tmp")
    return Session(name, WORKLOADS[name], seed, work, env, jobs)


# ---------------------------------------------------------------------------
# Checks


def evaluate(session: Session, a) -> tuple[int, list[str]]:
    """Failed invocations and the problems found, given the corpus pattern `a`."""
    problems: list[str] = []
    content_ok: dict[str, bool] = {}
    report = None
    if "indicators" in session.evidence:
        report = read_indicators(session.evidence["indicators"] / "indicators.json")

    for command in session.workload.commands:
        found: list[str] = []
        if command not in session.evidence:
            found.append(f"{command}: no successful invocation")
        elif command == "indicators":
            reference = REFERENCE_DIR / f"{session.name}.npz"
            if session.seed == DEFAULT_SEED and reference.exists():
                found += check_reference(report, reference)
            found += check_betweenness_identity(report, a)
        elif command == "rank":
            if report is None:
                found.append("rank: no indicator report to compare with")
            else:
                ranking = session.evidence["rank"] / f"ranking_{RANK_INDICATOR}.csv"
                found += check_ranking(ranking, report, RANK_COLUMN)
        else:
            found += check_export(session.evidence["export"], a, session.workload.export_axis)
        content_ok[command] = not found
        problems += [f"{command}: {p}" for p in found]

    first_digest: dict[str, str] = {}
    failed = 0
    for inv in session.invocations:
        expected = first_digest.setdefault(inv.command, inv.digest)
        if inv.exit_code != 0:
            problems.append(f"{inv.command}: exit code {inv.exit_code}")
            failed += 1
        elif inv.digest != expected:
            problems.append(f"{inv.command}: reports differ between invocations")
            failed += 1
        elif not content_ok[inv.command]:
            failed += 1
    return failed, problems


# ---------------------------------------------------------------------------
# Metrics


def layer_metrics(inv: Invocation) -> dict[str, float]:
    """Per-layer numbers from one traced invocation's spans."""
    payload = inv.spans
    spans = payload["spans"]
    counters = payload["counters"]
    self_time: dict[str, float] = {}
    for s in spans:
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + s["self"]
    names = set(self_time)

    def total(prefix: str) -> float:
        return sum(v for k, v in self_time.items() if k.startswith(prefix))

    m: dict[str, float] = {"cli.import_s": payload["import_s"]}
    vector = payload["aggregates"].get("vector_indicators", {"s": 0.0, "calls": 0})
    # cli.main's self time is the glue no layer reports; every other span
    # nests under it, so counting it would make coverage a tautology.
    layers = sum(v for k, v in self_time.items() if k != "cli.main")
    m["trace.coverage"] = (layers + vector["s"] + payload["import_s"]) / inv.wall_s
    if "corpus.load_edge_list" in names:
        m["corpus.load_s"] = total("corpus.")
        m["corpus.cells"] = counters["corpus.cells"]
        m["corpus.rss_mb"] = counters["corpus.rss_mb"]
    if "pipeline.table" in names:
        m["pipeline.table_s"] = sum(s["end"] - s["start"] for s in spans if s["name"] == "pipeline.table")
        m["netspace.graph_s"] = self_time.get("netspace.graph", 0.0)
        for key in ("netspace.edges.raw", "netspace.edges.cited", "netspace.edges.citing",
                    "netspace.density.cited", "netspace.density.citing",
                    "centrality.batches", "diversity.undefined_pairs"):
            m[key] = counters.get(key, 0)
        for variant in ("raw", "cos_cited", "cos_citing"):
            m[f"centrality.{variant}_s"] = self_time.get(f"centrality.{variant}", 0.0)
        for metric in ("one_minus_cosine", "relative_euclidean"):
            for axis in ("cited", "citing"):
                m[f"diversity.{metric}.{axis}_s"] = self_time.get(f"diversity.{metric}.{axis}", 0.0)
        m["vector_indicators.s"] = vector["s"]
        m["vector_indicators.calls"] = vector["calls"]
        m["pipeline.self_s"] = total("pipeline.") - total("pipeline.write")
        m["pipeline.write_s"] = total("pipeline.write")
        m["pipeline.bytes_written"] = counters.get("pipeline.bytes_written", 0)
    if "pipeline.ranking" in names:
        m["stats.s"] = total("stats.")
    if "netspace.export" in names:
        m["netspace.export_s"] = total("netspace.cosine") + total("netspace.export")
        m["netspace.export_bytes"] = counters["netspace.export_bytes"]
        m["netspace.rss_mb"] = counters["netspace.rss_mb"]
    return m


def scipy_stats_import_s(env: dict, work: Path) -> float:
    """Cumulative `-X importtime` of scipy.stats while importing interdisc.cli."""
    log = work / "importtime.txt"
    argv = [sys.executable, "-X", "importtime", "-c", "import interdisc.cli"]
    _, _, code = run_child(argv, work, env, log)
    if code != 0:
        raise BenchmarkError(f"import probe failed:\n{log.read_text(errors='replace')}")
    for line in log.read_text(errors="replace").splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "scipy.stats":
            return int(parts[1]) / 1e6
    return 0.0


# ---------------------------------------------------------------------------
# Environment


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "interdisc").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(session: Session, corpus_info: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": session.jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: session.env[var] for var in BLAS_THREAD_VARS},
        "workload": session.name,
        "seed": session.seed,
        "corpus": corpus_info,
    }


# ---------------------------------------------------------------------------
# One run


@dataclass
class RunResult:
    result: dict
    printed_only: dict[str, tuple[float, str]]  # name -> (value, unit)
    notes: dict[str, str]
    problems: list[str]
    env: dict
    session: Session
    pattern: object
    summary: str


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    session = new_session(name, seed)
    workload, work = session.workload, session.work

    # The first set-up writes the corpus the commands read.  It imports the
    # package in this process, which also compiles its bytecode and warms the
    # file cache before any command is timed.
    corpus = session.set_up(work / "corpus")
    a = pattern(corpus.cited, corpus.citing, len(corpus.names))
    corpus_info = {
        "n": len(corpus.names),
        "cells": int(a.nnz),
        "rows": int(len(corpus.counts)),
        "bytes": (work / "corpus" / "edges.csv").stat().st_size,
    }

    # Untraced runs always take two samples of each command for the medians.
    # A traced run pairs each traced invocation with an untraced one, in
    # alternating order, for trace.wall_ratio.  The set-up repetitions are
    # spread between the invocations, so that setup_s is sampled over the
    # same stretch of time as the commands.
    min_rounds = 1 if trace else 2
    pairs: list[tuple[Invocation, Invocation]] = []
    start = clock()
    rounds = 0
    while True:
        for command in workload.round:
            if trace:
                first = len(pairs) % 2 == 0
                one = session.invoke(command, traced=first)
                other = session.invoke(command, traced=not first)
                pairs.append((one, other) if first else (other, one))
            else:
                session.invoke(command, traced=False)
            for _ in range(workload.setup_reps):
                session.set_up(work / "corpus-rep")
        rounds += 1
        measured_s = clock() - start
        overrun = measured_s * (rounds + 1) / rounds > seconds
        if rounds >= min_rounds and overrun:
            break

    failed, problems = evaluate(session, a)
    if len(session.corpus_digests) != 1:
        problems.append("setup: the same seed wrote different corpora")
    attempted = len(session.invocations)
    generate_s = [g for g, _ in session.setup_samples]
    write_s = [w for _, w in session.setup_samples]

    metrics: dict[str, float] = {"ops_failed": failed / attempted}
    notes: dict[str, str] = {"ops_failed": f"{failed} of {attempted} invocations"}
    if not trace:
        for command in workload.commands:
            walls = [i.wall_s for i in session.invocations if i.command == command]
            metrics[COMMAND_METRIC[command]] = median(walls)
            notes[COMMAND_METRIC[command]] = f"median of {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls)
        metrics["peak_rss_mb"] = max(i.rss_mb for i in session.invocations)
        notes["peak_rss_mb"] = f"max of {attempted}"
        metrics["setup_s"] = median(g + w for g, w in session.setup_samples)
        notes["setup_s"] = f"median of {len(session.setup_samples)}"
        units = END_TO_END_UNITS
    else:
        per_command: dict[str, list[dict]] = {}
        for inv in session.invocations:
            if inv.traced and inv.spans is not None and inv.exit_code == 0:
                per_command.setdefault(inv.command, []).append(layer_metrics(inv))
        for command in workload.commands:  # earlier commands win a shared metric
            samples = per_command.get(command, [])
            for key in samples[0] if samples else []:
                if key not in metrics:
                    metrics[key] = median([s[key] for s in samples])
                    notes[key] = f"median of {len(samples)} traced {command}"
        metrics["trace.wall_ratio"] = median(t.wall_s / p.wall_s for t, p in pairs)
        notes["trace.wall_ratio"] = f"median of {len(pairs)} traced/untraced pairs"
        metrics["trace.overhead"] = metrics["trace.wall_ratio"] - 1.0
        notes["trace.overhead"] = "trace.wall_ratio - 1"
        metrics["corpus.rows"] = corpus_info["rows"]
        metrics["synth.generate_s"] = median(generate_s)
        metrics["synth.write_s"] = median(write_s)
        notes["synth.generate_s"] = notes["synth.write_s"] = f"median of {len(generate_s)}"
        probes = [scipy_stats_import_s(session.env, work) for _ in range(IMPORT_PROBES)]
        metrics["stats.import_s"] = median(probes)
        notes["stats.import_s"] = f"median of {IMPORT_PROBES} probes"
        units = PER_LAYER_UNITS
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    printed_only = {k: (metrics[k], u) for k, u in PRINTED_ONLY_UNITS.items() if k in metrics}
    summary = (f"perfbench {name} seed={seed} trace={int(trace)}: "
               f"{rounds} rounds in {measured_s:.1f} s, jobs={session.jobs}")
    env = environment(session, corpus_info)
    return RunResult(result, printed_only, notes, problems, env, session, a, summary)


def print_result(run: RunResult) -> None:
    r = run.result
    print(run.summary)
    rows = [(k, v["value"], v["unit"]) for k, v in r["metrics"].items()]
    rows += [(k, value, unit) for k, (value, unit) in run.printed_only.items()]
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>16.6f} {unit:<6} {run.notes.get(name, '')}")
    for problem in run.problems:
        print(f"  check failed: {problem}")
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(run.env, sort_keys=True))
    print(json.dumps(r))


# ---------------------------------------------------------------------------
# Maintenance modes


def record_reference() -> None:
    """Write the default-seed indicator columns that check (a) compares against."""
    import numpy as np

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        if "indicators" not in workload.commands:
            continue
        session = new_session(name, DEFAULT_SEED)
        session.set_up(session.work / "corpus")
        if session.invoke("indicators", traced=False).exit_code != 0:
            raise BenchmarkError(f"{name}: indicators failed")
        report = read_indicators(session.outdir("indicators") / "indicators.json")
        np.savez_compressed(REFERENCE_DIR / f"{name}.npz", **reference_arrays(report))
        shutil.rmtree(session.work)
        print(f"wrote {REFERENCE_DIR / name}.npz")


def self_test() -> None:
    """Check metric names and units against BENCHMARK.json, and that a bad report fails."""
    import numpy as np

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        run = run_workload("planted", DEFAULT_SEED, seconds=1, trace=trace)
        got = {k: v["unit"] for k, v in run.result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in spec[section]}
        if got != want:
            failures.append(f"{section}: emitted {got}, BENCHMARK.json names {want}")
        if not run.result["correct"] or run.result["failed"]:
            failures.append(f"trace={trace}: clean run failed its checks: {run.problems}")

    # Alter one value in the first indicator report: the checks must fail it.
    session = run.session
    report_path = session.evidence["indicators"] / "indicators.json"
    original = report_path.read_text(encoding="utf-8")
    for column in ("betweenness_cosine_cited", RANK_COLUMN):
        data = json.loads(original)
        values = data["columns"][column]
        row = int(np.nanargmax(np.array(values, dtype=np.float64)))
        values[row] = values[row] * (1.0 + 1e-6)
        report_path.write_text(json.dumps(data), encoding="utf-8")
        failed, problems = evaluate(session, run.pattern)
        if failed == 0 or not problems:
            failures.append(f"altering {column} was not detected")
    report_path.write_text(original, encoding="utf-8")

    shutil.rmtree(WORK / "planted", ignore_errors=True)
    if failures:
        raise BenchmarkError("self-test failed:\n  " + "\n  ".join(failures))
    print("self-test passed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    if not (SRC / "interdisc" / "cli.py").is_file():
        print(f"perfbench: no interdisc sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.self_test:
            self_test()
        elif args.record_reference:
            record_reference()
        elif args.workload:
            run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print_result(run)
            if run.result["correct"]:
                shutil.rmtree(WORK / args.workload, ignore_errors=True)
        else:
            parser.error("give --workload, --self-test or --record-reference")
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
