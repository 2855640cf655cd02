"""File formats and deterministic serialization.

Graphs arrive either as tab-separated edge lists (src, dst, weight; #
starts a comment; labels indexed by first appearance) or as CSV
adjacency matrices with an optional label header. Functional matrices
reuse the CSV form but may carry a nonzero diagonal. All numeric output
is rendered with 17 significant digits, which round-trips doubles
exactly and keeps repeated runs byte-identical. Writes go through a
temp file and an atomic rename so failed runs leave nothing behind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import tempfile

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    DuplicateEdgeError,
    NonpositiveWeightError,
    ParseError,
    SelfLoopError,
)
from .graphs import Graph, graph_from_edges
from .hierarchy import Hierarchy
from .nonlinear import CouplingSystem
from .partition import ConnectivityProfile, CutMetrics, Partition
from .spectral import Spectrum
from .structfunc import _FC_SYMMETRY_TOL

_MATRIX_SYMMETRY_TOL = 1e-12
_MATRIX_DIAGONAL_TOL = 1e-12


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
    stdlib json module emits and accepts.
    """
    parts: list[str] = []
    _emit(value, parts)
    return "".join(parts)


def _emit(value, parts: list[str]) -> None:
    if isinstance(value, dict):
        parts.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _emit(item, parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(value):
            if i:
                parts.append(", ")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        parts.append(format_float(float(value)))
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif value is None:
        parts.append("null")
    elif isinstance(value, np.ndarray):
        _emit(value.tolist(), parts)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def write_files_atomic(files: dict[str, str]) -> None:
    """Write several files all-or-nothing.

    Each text goes to a temp file in its target's directory; only once
    every one is staged are they renamed into place, in order. If any
    step fails, the temps and the files this call already renamed into
    place are removed before the error propagates.
    """
    staged: list[tuple[str, str]] = []
    placed: list[str] = []
    try:
        for path, text in files.items():
            directory = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
            staged.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for leftover in [tmp for tmp, _ in staged] + placed:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(leftover)
        raise


def write_text_atomic(path: str, text: str) -> None:
    """Write a file all-or-nothing: temp file in the same directory, then rename."""
    write_files_atomic({path: text})


# ---------------------------------------------------------------------------
# parsing

def parse_edge_list_tsv(text: str) -> Graph:
    """Parse a tab-separated edge list into a graph.

    Lines hold src, dst and weight; blank lines and lines starting with
    # are skipped. Labels are indexed by first appearance. Errors name
    the offending line.
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int, float]] = []
    seen_pairs: set[tuple[int, int]] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
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
        pair = (min(i, j), max(i, j))
        if pair in seen_pairs:
            raise DuplicateEdgeError(f"line {ln}: edge {src!r} to {dst!r} appears twice")
        seen_pairs.add(pair)
        edges.append((i, j, weight))
    if not labels:
        raise ParseError("edge list contains no edges")
    return graph_from_edges(labels, edges)


def _parse_csv_cells(text: str) -> tuple[list[str] | None, np.ndarray]:
    """Split CSV text into an optional label header and a finite float matrix."""
    rows: list[list[str]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        rows.append([cell.strip() for cell in raw.split(",")])
    if not rows:
        raise ParseError("matrix file is empty")
    header: list[str] | None = None
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        header = rows[0]
        rows = rows[1:]
    if not rows:
        raise ParseError("matrix file has a header but no rows")
    width = len(rows[0])
    data = np.zeros((len(rows), width))
    for r, cells in enumerate(rows):
        if len(cells) != width:
            raise ParseError(f"matrix row {r + 1} has {len(cells)} cells, expected {width}")
        for cidx, cell in enumerate(cells):
            try:
                data[r, cidx] = float(cell)
            except ValueError:
                raise ParseError(f"matrix cell ({r + 1}, {cidx + 1}): {cell!r} is not a number") from None
            if not math.isfinite(data[r, cidx]):
                raise ParseError(f"matrix cell ({r + 1}, {cidx + 1}): {cell!r} is not finite")
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
    asym = np.abs(data - data.T).max() if n else 0.0
    if asym > _MATRIX_SYMMETRY_TOL:
        raise AsymmetricMatrixError(f"adjacency asymmetry {asym:.2e} exceeds {_MATRIX_SYMMETRY_TOL}")
    diag = np.abs(np.diag(data)).max() if n else 0.0
    if diag > _MATRIX_DIAGONAL_TOL:
        raise SelfLoopError(f"adjacency diagonal magnitude {diag:.2e} exceeds {_MATRIX_DIAGONAL_TOL}")
    negatives = data.min()
    if negatives < 0:
        raise NonpositiveWeightError(f"adjacency contains a negative weight {negatives}")
    labels = header if header is not None else [f"n{i}" for i in range(n)]
    ei, ej = np.nonzero(np.triu(data > 0, k=1))
    return graph_from_edges(labels, zip(ei.tolist(), ej.tolist(), data[ei, ej].tolist()))


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
    _, data = _parse_csv_cells(_read_text(path))
    asym = np.abs(data - data.T).max() if data.size else 0.0
    if asym > _FC_SYMMETRY_TOL:
        raise AsymmetricMatrixError(f"matrix asymmetry {asym:.2e} exceeds {_FC_SYMMETRY_TOL}")
    return data


def read_coupling_system(couplings_path: str, mask_path: str) -> CouplingSystem:
    """Read a coupling matrix and its parallel 0/1 structure mask."""
    _, couplings = _parse_csv_cells(_read_text(couplings_path))
    _, mask_values = _parse_csv_cells(_read_text(mask_path))
    if mask_values.shape != couplings.shape:
        raise DimensionMismatchError(
            f"mask shape {mask_values.shape} does not match couplings shape {couplings.shape}"
        )
    if not np.isin(mask_values, (0.0, 1.0)).all():
        raise ParseError("mask entries must be 0 or 1")
    return CouplingSystem(couplings=couplings, linear_mask=mask_values.astype(bool))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization payloads

def spectrum_payload(s: Spectrum) -> dict:
    """Spectrum as {eigenvalues, eigenvectors}, one eigenvector per row."""
    return {
        "eigenvalues": [float(v) for v in s.eigenvalues],
        "eigenvectors": [[float(x) for x in s.eigenvectors[:, k]] for k in range(s.n_pairs)],
    }


def scree_csv(s: Spectrum) -> str:
    """Scree data: one `index,eigenvalue` row per eigenvalue, 1-based."""
    lines = [f"{k + 1},{format_float(float(v))}" for k, v in enumerate(s.eigenvalues)]
    return "\n".join(lines) + "\n"


def partition_payload(p: Partition, labels: tuple[str, ...]) -> dict:
    return {
        "k": p.k,
        "assignment": [int(a) for a in p.assignment],
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
                "assignment": [int(a) for a in level.partition.assignment],
                "quotient_edges": [[i, j, w] for i, j, w in level.quotient.edges],
                "profile": connectivity_profile_payload(level.profile),
                "embedding_dim": level.embedding_dim,
            }
        )
    return {"levels": levels}


def matrix_csv(matrix: np.ndarray, labels: tuple[str, ...] | None = None) -> str:
    """CSV text for a matrix, optionally preceded by a label header."""
    lines = []
    if labels is not None:
        lines.append(",".join(labels))
    for row in np.asarray(matrix):
        lines.append(",".join(format_float(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def hierarchy_dot(h: Hierarchy) -> str:
    """All quotient graphs in DOT format, one block per level."""
    blocks = []
    for level in h.levels:
        g = level.quotient
        lines = [f"graph level{level.level_index} {{"]
        for label in g.labels:
            lines.append(f'  "{label}";')
        for i, j, w in g.edges:
            lines.append(f'  "{g.labels[i]}" -- "{g.labels[j]}" [weight={format_float(w)}];')
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
