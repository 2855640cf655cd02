"""File formats and deterministic serialization.

Graphs arrive either as tab-separated edge lists (src, dst, weight; #
starts a comment; labels indexed by first appearance) or as CSV
adjacency matrices with an optional label header. An edge list is read
in bulk, by numpy over blocks of lines, and checked by the `Graph`
constructor; a file that fails a check is read again one line at a
time, only to word the error with its line number. Functional matrices reuse the CSV form but may carry
a nonzero diagonal. All numeric output is rendered with 17 significant
digits, which round-trips doubles exactly and keeps repeated runs
byte-identical. Scalars and float lists
go through `format_float` one value at a time; float64 arrays are
written to the same bytes in numpy passes over blocks of rows, by the
`_floattext` kernel. Reports are built as iterables of text chunks and
streamed into a temp file, which an atomic rename puts in place, so only
one chunk of text is held at a time and failed runs leave nothing behind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import tempfile
from itertools import count, repeat
from typing import Iterable, Iterator, NoReturn

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DuplicateEdgeError,
    NonpositiveWeightError,
    ParseError,
    SelfLoopError,
)
from .graphs import Graph, _check_symmetric
from .partition import ConnectivityProfile, CutMetrics, Partition
from .spectral import Spectrum

_MATRIX_DIAGONAL_TOL = 1e-12
_TSV_BLOCK_LINES = 512  # lines per block of the bulk edge-list parse; larger blocks are no faster and hold more strings


def format_float(x: float) -> str:
    """Render one float with 17 significant digits (exact round trip)."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def dumps(value) -> str:
    """Serialize to JSON with deterministic float formatting.

    Dict order is insertion order. Infinities use the same literals the
    stdlib json module emits and accepts. Every float is written as
    `format_float` writes it; a 1-D or 2-D float64 array is written in
    numpy passes. `_emit` yields the same text in chunks.
    """
    return "".join(_emit(value))


def _emit(value) -> Iterator[str]:
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            if i:
                yield ", "
            yield json.dumps(str(key)) + ": "
            yield from _emit(item)
        yield "}"
    elif isinstance(value, (list, tuple)):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _emit(item)
        yield "]"
    elif isinstance(value, bool):
        yield "true" if value else "false"
    elif isinstance(value, (int, np.integer)):
        yield str(int(value))
    elif isinstance(value, (float, np.floating)):
        yield format_float(float(value))
    elif isinstance(value, str):
        yield json.dumps(value)
    elif value is None:
        yield "null"
    elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim in (1, 2) and len(value):
        yield "[" * value.ndim
        yield from _join_floats(np.atleast_2d(value), ", ", "], [")
        yield "]" * value.ndim
    elif isinstance(value, np.ndarray):
        yield from _emit(value.tolist())
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _join_floats(a: np.ndarray, sep: str, row_sep: str) -> Iterator[str]:
    """row_sep.join(sep.join(format_float(x) for x in row) for row in a), in chunks, for 2-D a."""
    # loaded on first use: compiling the kernel would add about 4 ms to every package import
    from ._floattext import join_floats

    return join_floats(a, sep, row_sep)


def write_files_atomic(files: dict[str, Iterable[str]]) -> None:
    """Write several files all-or-nothing.

    Each file's text, an iterable of chunks, is streamed to a temp file
    in its target's directory, so only one chunk is held at a time; only
    once every one is staged are they renamed into place, in order. If
    any step fails, the temps and the files this call already renamed
    into place are removed before the error propagates.
    """
    staged: list[tuple[str, str]] = []
    placed: list[str] = []
    try:
        for path, chunks in files.items():
            directory = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(chunks)
        for tmp, path in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for leftover in [tmp for tmp, _ in staged] + placed:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(leftover)
        raise


# ---------------------------------------------------------------------------
# parsing

def parse_edge_list_tsv(text: str) -> Graph:
    """Parse a tab-separated edge list into a graph.

    Lines hold src, dst and weight; blank lines and lines starting with
    # are skipped. Labels are indexed by first appearance. A file is read
    in bulk, block by block, and the `Graph` constructor checks the
    sorted edge arrays. If the fields or any edge are faulty,
    `_raise_line_error` reads the lines one at a time and raises the
    error that names the first offending line.
    """
    edges = _edge_arrays(text.splitlines())
    if edges is not None:
        with contextlib.suppress(SelfLoopError, NonpositiveWeightError, DuplicateEdgeError):
            return Graph(*edges)
    _raise_line_error(text)


def _edge_arrays(lines: list[str]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray] | None:
    """Labels and edge arrays (lo, hi, w) sorted by pair, or None if some line's fields are faulty.

    The lines are read _TSV_BLOCK_LINES at a time, so only one block's
    fields are held as strings at once.
    """
    first: dict[str, int] = {}  # label -> position of its first appearance among the endpoints
    ends = np.empty(2 * len(lines), np.int64)  # src, dst, src, dst, ... as first positions
    w = np.empty(len(lines))
    m = 0
    for start in range(0, len(lines), _TSV_BLOCK_LINES):
        block = lines[start:start + _TSV_BLOCK_LINES]
        joined = "\t".join(block)
        if "#" in joined or "" in map(str.lstrip, block):  # some line may be blank or a comment
            block = [line for line in block if (s := line.lstrip()) and s[0] != "#"]
            if not block:
                continue
            joined = "\t".join(block)
        if list(map(str.count, block, repeat("\t"))).count(2) != len(block):
            return None
        fields = list(map(str.strip, joined.split("\t")))
        try:
            w[m:m + len(block)] = list(map(float, fields[2::3]))
        except ValueError:
            return None
        del fields[2::3]
        if "" in fields:
            return None
        positions = map(first.setdefault, fields, count(2 * m))
        ends[2 * m:2 * (m + len(block))] = np.fromiter(positions, np.int64, len(fields))
        m += len(block)
    if not m:
        return None
    rank = np.empty(2 * m, np.int64)  # first position -> label index
    rank[np.fromiter(first.values(), np.int64, len(first))] = np.arange(len(first))
    src, dst, w = rank[ends[0:2 * m:2]], rank[ends[1:2 * m:2]], w[:m]
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    order = np.argsort(lo * len(first) + hi)  # the key orders pairs by (lo, hi)
    return tuple(first), lo[order], hi[order], w[order]


def _raise_line_error(text: str) -> NoReturn:
    """Raise the error for the first faulty line of an edge list the bulk checks refused."""
    labels: list[str] = []
    index: dict[str, int] = {}
    seen_pairs: set[tuple[int, int]] = set()
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"line {ln}: expected 3 tab-separated fields, got {len(fields)}")
        src, dst, weight_text = (f.strip() for f in fields)
        if not src or not dst:
            raise ParseError(f"line {ln}: empty node label")
        try:
            weight = float(weight_text)
        except ValueError:
            raise ParseError(f"line {ln}: weight {weight_text!r} is not a number") from None
        if src == dst:
            raise SelfLoopError(f"line {ln}: self loop on {src!r}")
        if not math.isfinite(weight) or weight <= 0:
            raise NonpositiveWeightError(f"line {ln}: weight must be positive and finite")
        for label in (src, dst):
            if label not in index:
                index[label] = len(labels)
                labels.append(label)
        i, j = index[src], index[dst]
        pair = (i, j) if i < j else (j, i)
        if pair in seen_pairs:
            raise DuplicateEdgeError(f"line {ln}: edge {src!r} to {dst!r} appears twice")
        seen_pairs.add(pair)
    if not labels:
        raise ParseError("edge list contains no edges")
    raise AssertionError("the edge list has no faulty line")


def _csv_rows(text: str) -> list[list[str]]:
    """Stripped cells of each CSV line that is neither blank nor a # comment."""
    return [
        [cell.strip() for cell in raw.split(",")]
        for raw in text.splitlines()
        if raw.strip() and not raw.lstrip().startswith("#")
    ]


def _is_header(cells: list[str]) -> bool:
    """A first row is a label header when some cell is not a number."""
    try:
        [float(cell) for cell in cells]
    except ValueError:
        return True
    return False


def _bad_cell(r: int, cells: list[str]) -> ParseError:
    """The error for the first cell of row r that is not a finite number."""
    for c, cell in enumerate(cells):
        try:
            finite = math.isfinite(float(cell))
        except ValueError:
            return ParseError(f"matrix cell ({r + 1}, {c + 1}): {cell!r} is not a number")
        if not finite:
            return ParseError(f"matrix cell ({r + 1}, {c + 1}): {cell!r} is not finite")
    raise AssertionError(f"matrix row {r + 1} has no bad cell")


def _parse_csv_cells(text: str) -> tuple[list[str] | None, np.ndarray]:
    """Split CSV text into an optional label header and a finite float matrix."""
    rows = _csv_rows(text)
    if not rows:
        raise ParseError("matrix file is empty")
    header: list[str] | None = None
    if _is_header(rows[0]):
        header = rows[0]
        rows = rows[1:]
    if not rows:
        raise ParseError("matrix file has a header but no rows")
    width = len(rows[0])
    data = np.zeros((len(rows), width))
    for r, cells in enumerate(rows):
        if len(cells) != width:
            raise ParseError(f"matrix row {r + 1} has {len(cells)} cells, expected {width}")
        try:
            data[r] = list(map(float, cells))
        except ValueError:
            raise _bad_cell(r, cells) from None
        if not np.isfinite(data[r]).all():
            raise _bad_cell(r, cells)
    if data.shape[0] != data.shape[1]:
        raise ParseError(f"matrix must be square, got {data.shape[0]} x {data.shape[1]}")
    if header is not None and len(header) != data.shape[1]:
        raise ParseError(
            f"header names {len(header)} columns, matrix has {data.shape[1]}"
        )
    return header, data


def parse_matrix_csv_graph(text: str) -> Graph:
    """Parse a CSV adjacency matrix into a graph.

    The matrix must be symmetric within 1e-12 with a zero diagonal;
    positive entries become edges. Without a header row, nodes are
    labeled n0, n1, ...
    """
    header, data = _parse_csv_cells(text)
    n = data.shape[0]
    _check_symmetric(data, error=AsymmetricMatrixError)
    diag = np.abs(np.diag(data)).max() if n else 0.0
    if diag > _MATRIX_DIAGONAL_TOL:
        raise SelfLoopError(f"adjacency diagonal magnitude {diag:.2e} exceeds {_MATRIX_DIAGONAL_TOL}")
    negatives = data.min()
    if negatives < 0:
        raise NonpositiveWeightError(f"adjacency contains a negative weight {negatives}")
    labels = tuple(header if header is not None else [f"n{i}" for i in range(n)])
    # row-major nonzeros of the upper triangle are canonical: i < j, sorted by (i, j)
    ei, ej = np.nonzero(np.triu(data > 0, k=1))
    return Graph(labels, ei, ej, data[ei, ej])


def read_graph(path: str) -> Graph:
    """Read a graph file, dispatching on extension (.tsv or .csv)."""
    text = _read_text(path)
    if path.lower().endswith(".tsv"):
        return parse_edge_list_tsv(text)
    if path.lower().endswith(".csv"):
        return parse_matrix_csv_graph(text)
    raise ParseError(f"cannot infer graph format from extension of {path!r}")


def read_fc_matrix(path: str) -> np.ndarray:
    """Read a functional matrix: CSV, symmetric within 1e-10, any diagonal."""
    from .structfunc import _FC_SYMMETRY_TOL
    _, data = _parse_csv_cells(_read_text(path))
    _check_symmetric(data, _FC_SYMMETRY_TOL, AsymmetricMatrixError)
    return data


def read_coupling_system(couplings_path: str, mask_path: str) -> CouplingSystem:
    """Read a coupling matrix and its parallel 0/1 structure mask."""
    from .nonlinear import CouplingSystem
    _, couplings = _parse_csv_cells(_read_text(couplings_path))
    _, mask_values = _parse_csv_cells(_read_text(mask_path))
    # CouplingSystem checks the shapes, which take precedence over the values
    system = CouplingSystem(couplings=couplings, linear_mask=mask_values != 0)
    if not np.isin(mask_values, (0.0, 1.0)).all():
        raise ParseError("mask entries must be 0 or 1")
    return system


def _read_text(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    try:
        # the parsers split lines with splitlines, so line endings need no translation
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not valid UTF-8: bad byte at offset {exc.start}") from None


# ---------------------------------------------------------------------------
# serialization payloads

def spectrum_payload(s: Spectrum) -> dict:
    """Spectrum as {eigenvalues, eigenvectors}, one eigenvector per row."""
    return {"eigenvalues": s.eigenvalues, "eigenvectors": s.eigenvectors.T}


def scree_csv(s: Spectrum) -> Iterator[str]:
    """Scree data chunks: one `index,eigenvalue` row per eigenvalue, 1-based."""
    # a whole float below 1e17 is written as its integer digits
    return matrix_csv(np.column_stack([np.arange(1.0, len(s.eigenvalues) + 1), s.eigenvalues]))


def partition_payload(p: Partition, labels: tuple[str, ...]) -> dict:
    return {
        "k": p.k,
        "assignment": p.assignment,
        "labels": list(labels),
    }


def cut_metrics_payload(m: CutMetrics) -> dict:
    return dataclasses.asdict(m)


def connectivity_profile_payload(profile: ConnectivityProfile) -> list[dict]:
    return [dataclasses.asdict(c) for c in profile.clusters]


def hierarchy_payload(h: Hierarchy) -> dict:
    levels = []
    for level in h.levels:
        levels.append(
            {
                "k": level.partition.k,
                "assignment": level.partition.assignment,
                "quotient_edges": [[i, j, w] for i, j, w in level.quotient.edges],
                "profile": connectivity_profile_payload(level.profile),
                "embedding_dim": level.embedding_dim,
            }
        )
    return {"levels": levels}


def matrix_csv(matrix: np.ndarray, labels: tuple[str, ...] | None = None) -> Iterator[str]:
    """CSV text chunks for a matrix, preceded by a label header if it reads back.

    The header is written only when the CSV readers would take it for a
    header naming exactly these labels; numeric labels or labels with a
    comma would read as a data row or as the wrong columns. The matrix
    is positional, so it reads back the same without a header.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    header = ",".join(labels) if labels is not None else ""
    if header and _csv_rows(header) == [list(labels)] and _is_header(list(labels)):
        yield header + "\n"
    elif not len(matrix):  # neither header nor rows: one empty line
        yield "\n"
    if len(matrix):
        yield from _join_floats(matrix, ",", "\n")
        yield "\n"


def hierarchy_dot(h: Hierarchy) -> Iterator[str]:
    """All quotient graphs in DOT format, one block per level, as text chunks."""
    for t, level in enumerate(h.levels):
        g = level.quotient
        yield "\n" * (t > 0) + f"graph level{level.level_index} {{\n"
        for label in g.labels:
            yield f'  "{label}";\n'
        for i, j, w in g.edges:
            yield f'  "{g.labels[i]}" -- "{g.labels[j]}" [weight={format_float(w)}];\n'
        yield "}\n"
