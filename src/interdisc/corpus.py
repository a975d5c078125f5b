"""Journal registry, sparse citation matrix, file ingestion, and subsetting.

The citation matrix follows the convention cell (i, j) = citations from
articles in journal j to articles in journal i, so row i is journal i's
"cited" vector and column j is journal j's "citing" vector.  Diagonal cells
are journal self-citations and are kept.  Every matrix, whether loaded from
an edge list or a Matrix Market file or cut out by `subset`, is built by the
one constructor `CitationMatrix(n, rows, cols, counts)` from coordinate
arrays; it refuses a matrix with no cell.  Each loader reads and checks its
file, the constructor's checks included, inside `errors.file_errors`,
so every data error from an input file names the file (and its line, for an
error in one row), and a file that cannot be read or is not UTF-8 text is a
data error too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import (
    DimensionError,
    EmptyCorpusError,
    MetadataConflictError,
    ParseError,
    file_errors,
)


class Direction(str, Enum):
    CITED = "cited"
    CITING = "citing"


class SubsetMode(str, Enum):
    GLOBAL_CONTEXT = "global_context"
    LOCAL_SUBMATRIX = "local_submatrix"


def canonical_name(name: str) -> str:
    """Canonical form used for identity: trimmed and case-folded."""
    return name.strip().casefold()


@dataclass
class JournalEntry:
    id: int
    name: str
    category: str | None = None
    total_cites: int | None = None
    impact_factor: float | None = None
    immediacy: float | None = None


class JournalRegistry:
    """Stable dense ids 0..n-1 mapped to journal names plus optional metadata.

    Ids are assigned in first-appearance order of canonical names, so a given
    input file always produces the same registry.
    """

    def __init__(self) -> None:
        self.entries: list[JournalEntry] = []
        self._by_canonical: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, name: str, line: int | None = None) -> int:
        """Return the id for `name`, registering it on first appearance; an
        empty name is a `ParseError` on input line `line`."""
        key = canonical_name(name)
        if not key:
            raise ParseError("empty journal name", line)
        jid = self._by_canonical.get(key)
        if jid is None:
            jid = len(self.entries)
            self.entries.append(JournalEntry(id=jid, name=name.strip()))
            self._by_canonical[key] = jid
        return jid

    def get(self, name: str) -> int | None:
        """The id of `name` under its canonical form, or None if it is absent."""
        return self._by_canonical.get(canonical_name(name))

    def name_of(self, jid: int) -> str:
        return self.entries[jid].name

    def ids_in_category(self, category: str) -> list[int]:
        wanted = category.strip().casefold()
        return [
            e.id
            for e in self.entries
            if e.category is not None and e.category.strip().casefold() == wanted
        ]


class CitationMatrix:
    """Sparse asymmetric n x n matrix of aggregated citation counts.

    Built from coordinate arrays: `counts[k]` citations in cell
    (`rows[k]`, `cols[k]`).  Repeated cells are summed.  Zero cells are never
    stored; all stored counts are positive integers within int64.  A matrix
    always has cells: no cell at all is an `EmptyCorpusError`, here and
    nowhere else, so code that takes a matrix need not check.  Immutable
    after construction: the arrays behind `tocsr` and both axes are read-only,
    so an in-place edit raises instead of changing what later callers read.
    """

    def __init__(self, n: int, rows, cols, counts):
        try:
            counts = np.asarray(counts, dtype=np.int64)
        except OverflowError:  # a Python int beyond int64
            raise ParseError("citation count exceeds the int64 range") from None
        if not len(counts):
            raise EmptyCorpusError("citation matrix has no cells")
        if counts.min() <= 0:
            raise ParseError("citation counts must be positive")
        coo = sp.coo_matrix((counts, (rows, cols)), shape=(n, n))
        self._csr = coo.tocsr()
        self._csr.sum_duplicates()
        if self._csr.nnz < len(counts):
            # Duplicate cells were summed in int64, which wraps silently; a
            # float64 sum is off by a multiple of 2**64 exactly where it did.
            approx = sp.coo_matrix(
                (counts.astype(np.float64), (rows, cols)), shape=(n, n)
            ).tocsr()
            approx.sum_duplicates()
            if np.any(np.abs(approx.data - self._csr.data) >= 2.0**63):
                raise ParseError("summed citation count exceeds the int64 range")
        self._csc = self._csr.tocsc()
        for stored in (self._csr, self._csc):
            for array in (stored.data, stored.indices, stored.indptr):
                array.flags.writeable = False
        self.n = n

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def tocsr(self) -> sp.csr_matrix:
        return self._csr

    def axis_matrix(self, direction: Direction | str) -> sp.csr_matrix:
        """Journal vectors of `direction` as rows of a CSR matrix."""
        if Direction(direction) is Direction.CITED:
            return self._csr
        return self._csc.T.tocsr()


# ---------------------------------------------------------------------------
# Ingestion


def _read_count(text: str, line: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"count is not an integer: {text!r}", line) from None
    if value <= 0:
        raise ParseError(f"count must be positive, got {value}", line)
    return value


def load_edge_list(
    path: str | Path, min_count: int = 1
) -> tuple[JournalRegistry, CitationMatrix]:
    """Load a `citing,cited,count` CSV into a registry and citation matrix.

    Duplicate (citing, cited) rows are summed; cells whose summed count falls
    below `min_count` are dropped after summation.  Ids are assigned in
    first-appearance order (citing column first within each row).  Each
    distinct spelling of a name is canonicalized once, on its first row; later
    rows look its id up by the field's exact text.  A leading UTF-8
    byte-order mark, as spreadsheet programs write, is ignored.
    """
    if min_count < 1:
        raise ParseError("min_count must be a positive integer")
    registry = JournalRegistry()
    ids: dict[str, int] = {}  # a name field's exact text -> its journal id
    cited_ids: list[int] = []
    citing_ids: list[int] = []
    counts: list[int] = []
    with file_errors(path), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyCorpusError("empty file")
        expected = ["citing", "cited", "count"]
        if [h.strip().casefold() for h in header] != expected:
            raise ParseError(
                f"expected header {','.join(expected)!r}, got {','.join(header)!r}",
                line=1,
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", lineno)
            citing_name, cited_name, count_text = row
            counts.append(_read_count(count_text, lineno))
            citing_id = ids.get(citing_name)
            if citing_id is None:
                citing_id = ids[citing_name] = registry.add(citing_name, lineno)
            citing_ids.append(citing_id)
            cited_id = ids.get(cited_name)
            if cited_id is None:
                cited_id = ids[cited_name] = registry.add(cited_name, lineno)
            cited_ids.append(cited_id)
        matrix = CitationMatrix(len(registry), cited_ids, citing_ids, counts)
        if min_count > 1:
            cells = matrix.tocsr().tocoo()
            keep = cells.data >= min_count
            matrix = CitationMatrix(matrix.n, cells.row[keep], cells.col[keep], cells.data[keep])
    return registry, matrix


def load_matrix_market(
    path: str | Path, names_path: str | Path | None = None
) -> tuple[JournalRegistry, CitationMatrix]:
    """Load a coordinate-format Matrix Market file as a citation matrix.

    Journals are named ``J<k>`` for row/column k unless a sidecar file with
    one name per line is supplied.  Duplicate coordinate entries are summed,
    matching edge-list semantics; no count threshold is applied.  Any other
    Matrix Market format is rejected before scipy parses it: a truncated
    `array` file can crash scipy's reader.
    """
    with file_errors(path):
        with open(path, "rb") as fh:
            banner = fh.readline(1024).decode("latin-1").casefold().split()
        if banner[:3] != ["%%matrixmarket", "matrix", "coordinate"]:
            raise ParseError("expected a '%%MatrixMarket matrix coordinate' banner")
        try:
            mat = scipy.io.mmread(str(path))
        except Exception as exc:
            raise ParseError(f"not a readable Matrix Market file ({exc})") from exc
        mat = sp.coo_matrix(mat)
        rows, cols = mat.shape
        if rows != cols:
            raise DimensionError(f"matrix is {rows}x{cols}, expected square")
        data = np.asarray(mat.data)
        if np.iscomplexobj(data):
            raise ParseError("complex entries")
        if data.size and data.min() < 0:
            raise ParseError(f"negative entry {data.min()}")
        if data.dtype.kind == "f":
            # 2.0**63 is the first float past the int64 range
            bad = ~np.isfinite(data) | (data != np.round(data)) | (data >= 2.0**63)
        else:
            bad = data > np.iinfo(np.int64).max
        if bad.any():
            raise ParseError(f"entry {data[bad][0].item()!r} is not an integer within int64")
        keep = data > 0
        matrix = CitationMatrix(rows, mat.row[keep], mat.col[keep], data[keep])
    names = [f"J{k}" for k in range(rows)]
    if names_path is not None:
        with file_errors(names_path):
            text = Path(names_path).read_text(encoding="utf-8-sig")
            names = [line.strip() for line in text.splitlines() if line.strip()]
            if len(names) != rows:
                raise DimensionError(f"{len(names)} names for a {rows}-journal matrix")
            if len(set(map(canonical_name, names))) != rows:
                raise ParseError("duplicate names after canonicalization")
    registry = JournalRegistry()
    for name in names:
        registry.add(name)
    return registry, matrix


def _optional_float(text: str, line: int) -> float | None:
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"not a number: {text!r}", line) from None
    if not math.isfinite(value):  # JSON reports have no Infinity or NaN
        raise ParseError(f"not a finite number: {text!r}", line)
    return value


def load_metadata(path: str | Path, registry: JournalRegistry) -> int:
    """Attach `name,category,total_cites,impact_factor,immediacy` metadata.

    The header names the file's fields, a leading run of those five; a row
    may leave out trailing fields but not hold more than the header, and
    its name must not be empty.  Names that do not match any registry entry
    are counted and skipped, not fatal; the count of unmatched rows is
    returned.  Two rows for the same journal raise a conflict error.
    """
    unmatched = 0
    seen: set[str] = set()
    with file_errors(path), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyCorpusError("empty metadata file")
        fields = ["name", "category", "total_cites", "impact_factor", "immediacy"]
        if not header or [h.strip().casefold() for h in header] != fields[: len(header)]:
            raise ParseError(
                f"expected a header of the first fields of {','.join(fields)!r}, "
                f"got {','.join(header)!r}",
                line=1,
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) > len(header):
                raise ParseError(f"expected at most {len(header)} fields, got {len(row)}", lineno)
            name = row[0]
            key = canonical_name(name)
            if not key:
                raise ParseError("empty journal name", lineno)
            if key in seen:
                raise MetadataConflictError(f"duplicate metadata for journal {name!r}", lineno)
            seen.add(key)
            jid = registry.get(name)
            if jid is None:
                unmatched += 1
                continue
            entry = registry.entries[jid]
            if len(row) > 1 and row[1].strip():
                entry.category = row[1].strip()
            if len(row) > 2 and row[2].strip():
                try:
                    total = int(row[2])
                except ValueError:
                    raise ParseError(f"not an integer: {row[2]!r}", lineno) from None
                if total < 0:
                    raise ParseError(f"total_cites must be nonnegative, got {total}", lineno)
                if total > np.iinfo(np.int64).max:
                    raise ParseError("total_cites exceeds the int64 range", lineno)
                entry.total_cites = total
            if len(row) > 3:
                entry.impact_factor = _optional_float(row[3], lineno)
            if len(row) > 4:
                entry.immediacy = _optional_float(row[4], lineno)
    return unmatched


# ---------------------------------------------------------------------------
# Subsetting


def subset(
    matrix: CitationMatrix, registry: JournalRegistry, ids: list[int]
) -> tuple[JournalRegistry, CitationMatrix]:
    """The corpus restricted to `ids` on both axes, re-indexed: new id k is
    original id `ids[k]`, metadata included.  `ids` must be distinct and in
    range; `pipeline.scope_table` checks them."""
    sub = matrix.tocsr()[ids, :][:, ids].tocoo()
    sub_registry = JournalRegistry()
    for old_id in ids:
        old = registry.entries[old_id]
        entry = sub_registry.entries[sub_registry.add(old.name)]
        entry.category = old.category
        entry.total_cites = old.total_cites
        entry.impact_factor = old.impact_factor
        entry.immediacy = old.immediacy
    return sub_registry, CitationMatrix(len(ids), sub.row, sub.col, sub.data)
