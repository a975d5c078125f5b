"""Run the interdisc CLI once with timing wrappers around each module's calls.

Usage: python3 traced.py SPANS_JSON CLI_ARG...

The wrappers are installed by rebinding the module attributes the CLI and
the pipeline call through, so the package itself is unchanged.  Each
wrapped call records a span (name, start, end, parent); the per-journal
vector-indicator calls are too many for spans and are aggregated into a
total time and a call count instead.  Spans stay in memory and are written
to SPANS_JSON after the command returns.  The process exits with the
command's exit code, or with ABORT_EXIT if a name it wraps no longer
exists, so that a renamed function cannot be reported as zero time.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import resource
import sys
import time

clock = time.perf_counter
ABORT_EXIT = 70


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def axis_name(axis) -> str:
    return str(getattr(axis, "value", axis))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.aggregates: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self.axis = ""  # axis of the latest co-occurrence or cosine graph

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name, fn, on_exit=None):
        """Wrap `fn` in a span; `name` may be a function of the bound arguments."""
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            label = name(bound.arguments) if callable(name) else name
            parent = self.stack[-1] if self.stack else None
            record = {"name": label, "parent": parent, "start": clock(), "end": None, "child": 0.0}
            self.spans.append(record)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                record["end"] = clock()
                if parent is not None:
                    self.spans[parent]["child"] += record["end"] - record["start"]
            if on_exit is not None:
                on_exit(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregate(self, name, fn):
        """Wrap `fn` so that outermost calls add to one time total and count."""
        totals = self.aggregates.setdefault(name, {"s": 0.0, "calls": 0, "depth": 0})

        def wrapper(*args, **kwargs):
            if totals["depth"]:  # nested call inside the same layer
                return fn(*args, **kwargs)
            totals["depth"] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals["depth"] = 0
                totals["s"] += elapsed
                totals["calls"] += 1
                if self.stack:
                    self.spans[self.stack[-1]]["child"] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict:
        spans = [
            {
                "name": s["name"],
                "parent": s["parent"],
                "start": s["start"],
                "end": s["end"],
                "self": s["end"] - s["start"] - s["child"],
            }
            for s in self.spans
        ]
        aggregates = {k: {"s": v["s"], "calls": v["calls"]} for k, v in self.aggregates.items()}
        return {"spans": spans, "aggregates": aggregates, "counters": self.counters}


def rebind(module, attr: str, make) -> None:
    if not hasattr(module, attr):
        print(f"trace: {module.__name__}.{attr} no longer exists", file=sys.stderr)
        sys.exit(ABORT_EXIT)
    setattr(module, attr, make(getattr(module, attr)))


def install(tracer: Tracer) -> None:
    import interdisc.centrality as centrality
    import interdisc.cli as cli
    import interdisc.pipeline as pipeline
    import interdisc.vector_indicators as vector_indicators

    def file_bytes(key, counter):
        def on_exit(arguments, _result):
            tracer.count(counter, os.path.getsize(arguments[key]))
        return on_exit

    def loaded(_arguments, result):
        _registry, matrix = result
        tracer.count("corpus.cells", matrix.nnz)
        tracer.counters["corpus.rss_mb"] = rss_mb()

    def remember_axis(arguments, _result):
        tracer.axis = axis_name(arguments["axis"])

    def directed_graph(_arguments, graph):
        tracer.count("netspace.edges.raw", graph.edge_count)

    def undirected_graph(_arguments, graph):
        pairs = graph.n * (graph.n - 1) / 2
        tracer.count(f"netspace.edges.{tracer.axis}", graph.edge_count)
        tracer.counters[f"netspace.density.{tracer.axis}"] = graph.edge_count / pairs if pairs else 0.0

    def betweenness_name(arguments):
        return "centrality.raw" if arguments["graph"].directed else f"centrality.cos_{tracer.axis}"

    def batches(arguments, _result):
        graph, size = arguments["graph"], arguments["batch_size"]
        if graph.n >= 3 and graph.adjacency.nnz:
            tracer.count("centrality.batches", math.ceil(graph.n / max(1, min(size, graph.n))))

    def diversity_name(arguments):
        return f"diversity.{arguments['metric']}.{axis_name(arguments['direction'])}"

    def undefined_pairs(_arguments, results):
        tracer.count("diversity.undefined_pairs", sum(r.undefined_pairs for r in results))

    def exported(arguments, _result):
        tracer.count("netspace.export_bytes", os.path.getsize(arguments["path"]))
        tracer.counters["netspace.rss_mb"] = rss_mb()

    if "batch_size" not in inspect.signature(centrality.betweenness).parameters:
        print("trace: interdisc.centrality.betweenness lost batch_size", file=sys.stderr)
        sys.exit(ABORT_EXIT)

    rebind(cli, "load_corpus", lambda f: tracer.span("pipeline.load_corpus", f))
    rebind(cli, "compute_indicator_table", lambda f: tracer.span("pipeline.table", f))
    rebind(cli, "ranking", lambda f: tracer.span("pipeline.ranking", f))
    for name in ("write_indicator_csv", "write_combined_json", "write_ranking_csv"):
        rebind(cli, name, lambda f: tracer.span("pipeline.write", f, file_bytes("path", "pipeline.bytes_written")))
    rebind(cli, "cosine_matrix", lambda f: tracer.span("netspace.cosine", f))
    rebind(cli, "export_matrix_market", lambda f: tracer.span("netspace.export", f, exported))

    rebind(pipeline, "load_edge_list", lambda f: tracer.span("corpus.load_edge_list", f, loaded))
    rebind(pipeline, "binarize_directed", lambda f: tracer.span("netspace.graph", f, directed_graph))
    rebind(pipeline, "binarize", lambda f: tracer.span("netspace.graph", f, undirected_graph))
    rebind(pipeline, "cooccurrence_support", lambda f: tracer.span("netspace.graph", f, remember_axis))
    rebind(pipeline, "cosine_matrix", lambda f: tracer.span("netspace.graph", f, remember_axis))
    rebind(pipeline, "diversity_all", lambda f: tracer.span(diversity_name, f, undefined_pairs))
    rebind(pipeline, "rank_column", lambda f: tracer.span("stats.rank_column", f))
    rebind(centrality, "betweenness", lambda f: tracer.span(betweenness_name, f, batches))
    for name in (
        "gini_from_counts",
        "gini_normalized_from_counts",
        "shannon_entropy_from_counts",
        "entropy_normalized_from_counts",
    ):
        rebind(vector_indicators, name, lambda f: tracer.aggregate("vector_indicators", f))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = clock()
    import interdisc.cli

    import_s = clock() - start
    tracer = Tracer()
    install(tracer)
    code = tracer.span("cli.main", interdisc.cli.main)(argv)
    payload = {"import_s": import_s, **tracer.report()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
