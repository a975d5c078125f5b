"""Seeded synthetic citation corpora with planted structure.

Journals live in disciplinary clusters that cite densely within themselves
and almost never across.  Two archetypes are planted on top: bridge journals
that cite and are cited evenly across clusters, and high-volume generalists
that are cited by (nearly) everyone but cite narrowly, with deliberately
skewed incoming counts.  The ground truth lists both so recovery can be
checked by rank.

Counts are sampled independently per realized (citing, cited) pair as
1 + Poisson(count_mean * volume * eps), where eps is a unit-mean gamma
multiplier whose shape is the *cited* journal's evenness parameter: low
evenness yields heavy-tailed incoming counts, high evenness near-uniform
ones.  All randomness comes from one numpy PCG64 generator, so a seed fully
determines the output files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import canonical_name
from .errors import DataError, file_errors

PRNG_IDENTITY = "numpy.random.Generator(PCG64)"
WRITE_CHUNK = 4_096  # edge-list rows joined into one write


@dataclass
class BridgeSpec:
    name: str
    allocation: list[float]  # per-cluster weights, sum to 1


@dataclass
class GeneralistSpec:
    name: str
    allocation: list[float]  # per-cluster weights, sum to 1
    volume: float = 12.0  # multiplies incoming citation probability and counts
    concentration: float = 0.35  # gamma shape of incoming counts; low = skewed


@dataclass
class SyntheticSpec:
    cluster_sizes: list[int]
    within_rate: float = 0.7
    leakage_rate: float = 0.02
    bridges: list[BridgeSpec] = field(default_factory=list)
    generalists: list[GeneralistSpec] = field(default_factory=list)
    seed: int = 0
    count_mean: float = 12.0
    self_citation_mean: float = 12.0
    evenness_range: tuple[float, float] = (0.1, 10.0)

    def journal_names(self) -> list[str]:
        """Every journal's name in id order: cluster members, bridges, generalists."""
        members = [
            f"C{c:02d}_J{j:03d}" for c, size in enumerate(self.cluster_sizes) for j in range(size)
        ]
        return members + [s.name for s in list(self.bridges) + list(self.generalists)]

    def validate(self) -> None:
        """Raise `DataError`, naming the field, for a spec `generate` cannot honour."""
        sizes = self.cluster_sizes
        if not sizes or not all(_is_int(s) and s >= 1 for s in sizes):
            raise DataError(f"cluster_sizes must be a nonempty list of positive ints: {sizes!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise DataError(f"seed must be a nonnegative int, not {self.seed!r}")
        for name in ("within_rate", "leakage_rate"):
            value = getattr(self, name)
            if not (_is_finite(value) and 0.0 <= value <= 1.0):
                raise DataError(f"{name} {value!r} outside [0, 1]")
        for name in ("count_mean", "self_citation_mean"):
            value = getattr(self, name)
            if not (_is_finite(value) and value >= 0):
                raise DataError(f"{name} must be a finite number >= 0, not {value!r}")
        ev = self.evenness_range
        if not (len(ev) == 2 and all(_is_finite(v) for v in ev) and 0 < ev[0] <= ev[1]):
            raise DataError(f"evenness_range must be two numbers with 0 < lo <= hi, not {ev!r}")
        k = len(sizes)
        for spec in list(self.bridges) + list(self.generalists):
            if len(spec.allocation) != k:
                raise DataError(
                    f"{spec.name}: allocation has {len(spec.allocation)} weights "
                    f"for {k} clusters"
                )
            if not all(_is_finite(w) and w >= 0 for w in spec.allocation):
                raise DataError(f"{spec.name}: allocation weights must be finite and >= 0")
            if abs(sum(spec.allocation) - 1.0) > 1e-9:
                raise DataError(f"{spec.name}: allocation must sum to 1")
        for g in self.generalists:
            if not (_is_finite(g.volume) and g.volume >= 1.0):
                raise DataError(f"{g.name}: volume must be a finite number >= 1, not {g.volume!r}")
            if not (_is_finite(g.concentration) and g.concentration > 0):
                raise DataError(f"{g.name}: concentration must be a finite positive number")
        seen: set[str] = set()
        for name in self.journal_names():
            key = canonical_name(name) if isinstance(name, str) else ""
            if not key or key in seen:
                raise DataError(
                    f"name {name!r} must be a nonempty string no other journal has "
                    "(names are compared trimmed and case-folded)"
                )
            seen.add(key)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def uniform_spec(
    cluster_sizes: list[int],
    within_rate: float = 0.7,
    leakage_rate: float = 0.02,
    n_bridges: int = 0,
    n_generalists: int = 0,
    generalist_volume: float = 12.0,
    seed: int = 0,
) -> SyntheticSpec:
    """Spec with uniformly allocated bridges and generalists."""
    k = len(cluster_sizes)
    alloc = [1.0 / k] * k if k else []
    return SyntheticSpec(
        cluster_sizes=list(cluster_sizes),
        within_rate=within_rate,
        leakage_rate=leakage_rate,
        bridges=[BridgeSpec(f"Bridge_{i}", list(alloc)) for i in range(n_bridges)],
        generalists=[
            GeneralistSpec(f"Generalist_{i}", list(alloc), volume=generalist_volume)
            for i in range(n_generalists)
        ],
        seed=seed,
    )


@dataclass
class SyntheticCorpus:
    names: list[str]
    cluster_of: np.ndarray  # cluster index, -1 for bridges/generalists
    bridge_ids: list[int]
    generalist_ids: list[int]
    cited: np.ndarray
    citing: np.ndarray
    counts: np.ndarray
    spec: SyntheticSpec


def _counts_for(rng: np.random.Generator, mean: float, shape_param, size) -> np.ndarray:
    """1 + Poisson with a unit-mean gamma rate multiplier of given shape."""
    eps = rng.gamma(shape=shape_param, scale=1.0 / np.asarray(shape_param), size=size)
    return 1 + rng.poisson(mean * eps)


def generate(spec: SyntheticSpec) -> SyntheticCorpus:
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    k = len(spec.cluster_sizes)

    names = spec.journal_names()
    n = len(names)
    cluster_of_arr = np.full(n, -1)
    cluster_members: list[np.ndarray] = []
    next_id = 0
    for c, size in enumerate(spec.cluster_sizes):
        members = np.arange(next_id, next_id + size)
        cluster_members.append(members)
        cluster_of_arr[members] = c
        next_id += size
    bridge_ids = list(range(next_id, next_id + len(spec.bridges)))
    generalist_ids = list(range(next_id + len(spec.bridges), n))

    lo, hi = spec.evenness_range
    evenness = rng.uniform(lo, hi, size=n)
    for gid, g in zip(generalist_ids, spec.generalists):
        evenness[gid] = g.concentration
    # Specialist (low-evenness) journals also attract fewer citers, which
    # couples reach and spread the way skewed fields do.
    reach = 0.55 + 0.45 * (evenness - lo) / max(hi - lo, 1e-12)
    np.clip(reach, 0.0, 1.0, out=reach)

    cited_parts: list[np.ndarray] = []
    citing_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []

    def emit(cited, citing, counts):
        cited_parts.append(np.asarray(cited, dtype=np.int64).ravel())
        citing_parts.append(np.asarray(citing, dtype=np.int64).ravel())
        count_parts.append(np.asarray(counts, dtype=np.int64).ravel())

    # Within-cluster citations, cluster by cluster; the row (cited) journal's
    # reach scales its chance of being cited.
    for members in cluster_members:
        s = len(members)
        if s < 2:
            continue
        row_rate = spec.within_rate * reach[members]
        mask = rng.random((s, s)) < row_rate[:, None]
        np.fill_diagonal(mask, False)
        rows, cols = np.nonzero(mask)
        if rows.size:
            counts = _counts_for(
                rng, spec.count_mean, evenness[members[rows]], rows.size
            )
            emit(members[rows], members[cols], counts)

    # Cross-cluster leakage: per (cluster journal, foreign cluster), one
    # single-count citation to a uniformly chosen member with probability
    # leakage_rate.
    cluster_journals = np.flatnonzero(cluster_of_arr >= 0)
    if k > 1 and spec.leakage_rate > 0 and cluster_journals.size:
        hit = rng.random((cluster_journals.size, k)) < spec.leakage_rate
        sizes = np.asarray(spec.cluster_sizes)
        offsets = rng.integers(0, sizes, size=(cluster_journals.size, k))
        hit[np.arange(cluster_journals.size), cluster_of_arr[cluster_journals]] = False
        idx, c = np.nonzero(hit)
        first_member = np.cumsum(sizes) - sizes
        emit(first_member[c] + offsets[idx, c], cluster_journals[idx], np.ones(idx.size))

    # Bridges: cited by and citing every cluster, scaled by allocation.
    # Their counts are flat (no evenness mixing): bridging means even spread.
    for bid, b in zip(bridge_ids, spec.bridges):
        alloc = np.asarray(b.allocation)
        for c, members in enumerate(cluster_members):
            rate = spec.within_rate * alloc[c]
            if rate <= 0:
                continue
            citers = members[rng.random(len(members)) < rate]
            if citers.size:
                emit(
                    np.full(citers.size, bid),
                    citers,
                    1 + rng.poisson(spec.count_mean, size=citers.size),
                )
            targets = members[rng.random(len(members)) < rate]
            if targets.size:
                emit(
                    targets,
                    np.full(targets.size, bid),
                    1 + rng.poisson(spec.count_mean, size=targets.size),
                )

    # Generalists: volume buys reach (citation probability), so they are
    # cited by nearly everyone but with ordinary per-pair counts whose
    # skew follows the generalist's own concentration.  Their citing side
    # is narrow: they behave like a member of their strongest cluster.
    for gid, g in zip(generalist_ids, spec.generalists):
        alloc = np.asarray(g.allocation)
        for c, members in enumerate(cluster_members):
            rate = min(1.0, spec.within_rate * alloc[c] * g.volume)
            if rate <= 0:
                continue
            citers = members[rng.random(len(members)) < rate]
            if citers.size:
                emit(
                    np.full(citers.size, gid),
                    citers,
                    _counts_for(rng, spec.count_mean, evenness[gid], citers.size),
                )
        if k:
            home = int(np.argmax(alloc))
            members = cluster_members[home]
            targets = members[rng.random(len(members)) < spec.within_rate]
            if targets.size:
                emit(
                    targets,
                    np.full(targets.size, gid),
                    _counts_for(rng, spec.count_mean, evenness[targets], targets.size),
                )

    # Self-citations for everyone.
    if spec.self_citation_mean > 0:
        everyone = np.arange(n)
        emit(everyone, everyone, 1 + rng.poisson(spec.self_citation_mean, size=n))

    cited = np.concatenate(cited_parts) if cited_parts else np.zeros(0, dtype=np.int64)
    citing = np.concatenate(citing_parts) if citing_parts else np.zeros(0, dtype=np.int64)
    counts = np.concatenate(count_parts) if count_parts else np.zeros(0, dtype=np.int64)
    return SyntheticCorpus(
        names=names,
        cluster_of=cluster_of_arr,
        bridge_ids=bridge_ids,
        generalist_ids=generalist_ids,
        cited=cited,
        citing=citing,
        counts=counts,
        spec=spec,
    )


def _csv_spellings(names: list[str]) -> list[str]:
    """Each name as `csv.writer(lineterminator="\\n")` writes it as a field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    spelled = []
    for name in names:
        buffer.seek(0)
        buffer.truncate()
        # After a leading empty field csv spells an empty name as nothing, as
        # within a row, not as the `""` it writes for a row of one empty field.
        writer.writerow(["", name])
        spelled.append(buffer.getvalue()[1:-1])
    return spelled


def write_corpus(
    corpus: SyntheticCorpus, edges_path: str | Path, truth_path: str | Path
) -> None:
    """Write the edge-list CSV and the ground-truth JSON.

    Rows are sorted by (citing, cited) id.  The bytes are those
    `csv.writer(fh, lineterminator="\\n")` writes, so csv decides the quoting
    of a name holding `,`, `"`, CR or LF; each name is spelled that way once,
    and the rows are written as joined text in chunks of `WRITE_CHUNK` rows,
    so only one chunk's text is held at a time.
    """
    order = np.lexsort((corpus.cited, corpus.citing))
    citing, cited = corpus.citing[order], corpus.cited[order]
    counts = corpus.counts[order]
    # In sorted order a row starts a new cell where its (citing, cited)
    # differs from the previous row's.
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (citing[1:] != citing[:-1]) | (cited[1:] != cited[:-1])
    spelled = np.asarray(_csv_spellings(corpus.names), dtype=object)
    with file_errors(edges_path), open(edges_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("citing,cited,count\n")
        for start in range(0, len(order), WRITE_CHUNK):
            rows = slice(start, start + WRITE_CHUNK)
            fh.write("".join([
                f"{a},{b},{k}\n"
                for a, b, k in zip(
                    spelled[citing[rows]].tolist(),
                    spelled[cited[rows]].tolist(),
                    counts[rows].tolist(),
                )
            ]))
    clusters: dict[str, list[str]] = {}
    for jid, c in enumerate(corpus.cluster_of):
        if c >= 0:
            clusters.setdefault(f"cluster_{c}", []).append(corpus.names[jid])
    truth = {
        "prng": PRNG_IDENTITY,
        "spec": asdict(corpus.spec),
        "journals": len(corpus.names),
        "nonzero_cells": int(np.count_nonzero(starts)),
        "clusters": clusters,
        "bridges": [
            {"id": bid, "name": corpus.names[bid]} for bid in corpus.bridge_ids
        ],
        "generalists": [
            {"id": gid, "name": corpus.names[gid]} for gid in corpus.generalist_ids
        ],
    }
    with file_errors(truth_path):
        Path(truth_path).write_text(
            json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
