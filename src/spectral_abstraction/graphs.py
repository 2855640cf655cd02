"""Weighted undirected graphs and their matrix representations.

The graph model is intentionally small. Nodes carry string labels,
edges are undirected with strictly positive weights, there are no self
loops, and every constructed value is immutable. Edges are stored once,
as read-only arrays, and graphs derived from a valid graph skip the
per-edge validation of outside input. Matrix forms are dense numpy
arrays, which is the right trade-off at the network sizes this toolkit
targets (up to a few thousand nodes).

Matrix conventions, for a graph on n nodes with adjacency A and
weighted degree d(i) = sum_j A[i, j]:

    combinatorial Laplacian    L = D - A
    normalized Laplacian       L_sym = I - D^(-1/2) A D^(-1/2)

where D = diag(d). Rows and columns of L_sym belonging to isolated
nodes are zero, including the diagonal entry.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
import scipy.sparse.csgraph

from .errors import (
    DuplicateEdgeError,
    EmptySubsetError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    InvalidProbabilityError,
    NonpositiveWeightError,
    PartitionMismatchError,
    SelfLoopError,
)

if TYPE_CHECKING:
    from .partition import Partition

Edge = tuple[int, int, float]


class LaplacianKind(Enum):
    """Normalization applied when building a Laplacian."""

    COMBINATORIAL = "combinatorial"
    NORMALIZED = "normalized"


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted undirected graph with labeled nodes.

    Edge k joins ei[k] < ej[k] with weight w[k], in read-only int64,
    int64 and float64 arrays sorted by endpoint pair, so equal graphs
    compare equal and serialize identically; `edges` renders them as
    (i, j, weight) tuples. Construct through :func:`graph_from_edges`,
    which validates and canonicalizes; the raw constructor trusts its
    input.
    """

    labels: tuple[str, ...]
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.ei.tolist(), self.ej.tolist(), self.w.tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and (self.labels, self.edges) == (other.labels, other.edges)

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.w)

    @property
    def total_weight(self) -> float:
        return float(sum(self.w.tolist()))


@dataclass(frozen=True, eq=False)
class LaplacianMatrix:
    """A Laplacian together with the normalization that produced it."""

    matrix: np.ndarray
    kind: LaplacianKind

    def __post_init__(self) -> None:
        self.matrix.flags.writeable = False

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def graph_from_edges(labels: Sequence[str], edges: Iterable[tuple[int, int, float]]) -> Graph:
    """Build a validated graph from node labels and weighted edge triples.

    Edge endpoints may arrive in either order; they are canonicalized to
    (min, max) and sorted. Raises SelfLoopError, DuplicateEdgeError,
    NonpositiveWeightError or IndexOutOfRangeError naming the offending
    edge, and InvalidArgumentError for structural problems with the labels.
    """
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise InvalidArgumentError("a graph needs at least one node")
    if len(set(labels)) != len(labels):
        raise InvalidArgumentError("node labels must be distinct")
    n = len(labels)

    canonical: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        try:
            a, b, w = edge
        except (TypeError, ValueError):
            raise InvalidArgumentError(f"edge {edge!r} is not an (i, j, weight) triple") from None
        try:
            i, j = operator.index(a), operator.index(b)
        except TypeError:
            raise IndexOutOfRangeError(f"edge {edge!r}: endpoints must be integers") from None
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRangeError(f"edge ({i}, {j}, {w}): endpoint outside 0..{n - 1}")
        if i == j:
            raise SelfLoopError(f"edge ({i}, {j}, {w}): self loops are not allowed")
        w = float(w)
        if not np.isfinite(w) or w <= 0.0:
            raise NonpositiveWeightError(f"edge ({i}, {j}, {w}): weight must be positive and finite")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdgeError(f"edge ({i}, {j}, {w}): pair already present")
        seen.add(key)
        canonical.append((key[0], key[1], w))

    canonical.sort(key=lambda e: (e[0], e[1]))
    return _graph(labels, *np.array(canonical, dtype=np.float64).reshape(-1, 3).T)


def _graph(labels: Sequence[str], ei, ej, w) -> Graph:
    """Graph from canonical edge arrays (i < j, sorted by (i, j), no repeats).

    The structure is trusted. The weights are checked, since sums and
    rescalings of valid weights can overflow or underflow.
    """
    ei, ej = np.ascontiguousarray(ei, np.int64), np.ascontiguousarray(ej, np.int64)
    w = np.ascontiguousarray(w, np.float64)
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
    if bad.size:
        i, j, x = int(ei[bad[0]]), int(ej[bad[0]]), float(w[bad[0]])
        raise NonpositiveWeightError(f"edge ({i}, {j}, {x}): weight must be positive and finite")
    for a in (ei, ej, w):
        a.flags.writeable = False
    return Graph(labels=tuple(labels), ei=ei, ej=ej, w=w)


def edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored (i, j, w) edge arrays, read-only; convenient for vectorized sums."""
    return g.ei, g.ej, g.w


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense symmetric adjacency matrix with zero diagonal."""
    A = np.zeros((g.n, g.n))
    A[g.ei, g.ej] = g.w
    A[g.ej, g.ei] = g.w
    return A


def degrees(g: Graph) -> np.ndarray:
    """Weighted degree vector, defined as the row sums of the adjacency."""
    return adjacency_matrix(g).sum(axis=1)


def degree_matrix(g: Graph) -> np.ndarray:
    """Diagonal matrix of weighted degrees."""
    return np.diag(degrees(g))


def laplacian(g: Graph, kind: LaplacianKind = LaplacianKind.COMBINATORIAL) -> LaplacianMatrix:
    """Build the graph Laplacian in the requested normalization.

    The combinatorial form matches degree_matrix(g) - adjacency_matrix(g)
    entry for entry, zero entries included as +0.0. The
    normalized form is I - D^(-1/2) A D^(-1/2) with rows and columns of
    isolated nodes (zero degree) set to zero, diagonal included.
    """
    if kind is LaplacianKind.COMBINATORIAL:
        A = adjacency_matrix(g)
        M = np.diag(A.sum(axis=1))
        M -= A
        return LaplacianMatrix(matrix=M, kind=kind)
    if kind is LaplacianKind.NORMALIZED:
        A = adjacency_matrix(g)
        d = A.sum(axis=1)
        connected = d > 0
        inv_sqrt = np.zeros_like(d)
        inv_sqrt[connected] = 1.0 / np.sqrt(d[connected])
        M = np.eye(g.n)
        M[~connected, ~connected] = 0.0
        M -= inv_sqrt[:, None] * A * inv_sqrt[None, :]
        return LaplacianMatrix(matrix=M, kind=kind)
    raise InvalidArgumentError(f"unknown Laplacian kind: {kind!r}")


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Subgraph on the given node set, re-indexed in ascending node order.

    Labels are preserved. Selecting every node round-trips to an equal
    graph. Raises EmptySubsetError for an empty selection and
    IndexOutOfRangeError for indices outside the graph.
    """
    wanted = sorted({operator.index(i) for i in nodes})
    if not wanted:
        raise EmptySubsetError("node subset must be nonempty")
    if wanted[0] < 0 or wanted[-1] >= g.n:
        raise IndexOutOfRangeError(f"subset contains indices outside 0..{g.n - 1}")
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[wanted] = np.arange(len(wanted))
    # remap is increasing on the kept nodes, so kept edges stay canonical
    keep = (remap[g.ei] >= 0) & (remap[g.ej] >= 0)
    return _graph([g.labels[i] for i in wanted], remap[g.ei[keep]], remap[g.ej[keep]], g.w[keep])


def quotient_graph(g: Graph, partition: "Partition") -> Graph:
    """Coarsen a graph by a partition of its nodes.

    Each cluster becomes one node (labeled c0, c1, ...). An edge joins
    two clusters when any original edge crosses between them, with
    weight equal to the summed crossing weight. Intra-cluster weight is
    dropped; connectivity_profile records it before coarsening.
    """
    if partition.n != g.n:
        raise PartitionMismatchError(
            f"partition covers {partition.n} nodes, graph has {g.n}"
        )
    k = partition.k
    a, b = np.sort(partition.as_array()[np.stack([g.ei, g.ej])], axis=0)
    crossing = a != b
    pairs, slot = np.unique(a[crossing] * k + b[crossing], return_inverse=True)
    # bincount adds each pair's weights in edge order, as a running sum would
    w = np.bincount(slot, weights=g.w[crossing], minlength=pairs.size)
    return _graph([f"c{c}" for c in range(k)], pairs // k, pairs % k, w)


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted index lists, ordered by minimum index."""
    A = scipy.sparse.coo_matrix((g.w, (g.ei, g.ej)), shape=(g.n, g.n))
    _, comp = scipy.sparse.csgraph.connected_components(A, directed=False)
    order = np.argsort(comp, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(comp[order])) + 1)
    return sorted((group.tolist() for group in groups), key=lambda c: c[0])


def sbm_generate(
    blocks: int,
    nodes_per_block: int,
    p_in: float,
    p_out: float,
    seed: int,
) -> Graph:
    """Sample a planted-partition graph with unit edge weights.

    Nodes are grouped into `blocks` planted blocks of `nodes_per_block`
    nodes each; node i belongs to block i // nodes_per_block and is
    labeled b<block>n<offset>. Every intra-block pair is joined with
    probability p_in and every inter-block pair with probability p_out,
    using one draw per pair in a fixed pair order, so output is fully
    determined by the seed.

    Requires 0 <= p_out <= p_in <= 1. The degenerate corners are legal:
    p_out = 0 gives disjoint blocks and p_in = p_out = 1 the complete
    graph.
    """
    if blocks < 2:
        raise InvalidArgumentError("need at least 2 blocks")
    if nodes_per_block < 2:
        raise InvalidArgumentError("need at least 2 nodes per block")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise InvalidProbabilityError(
            f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}"
        )
    n = blocks * nodes_per_block
    labels = [f"b{i // nodes_per_block}n{i % nodes_per_block}" for i in range(n)]
    rng = np.random.default_rng(seed)
    block = np.arange(n) // nodes_per_block
    # one draw per pair (i, j > i), row by row: the scalar draw order
    hits = []
    for i in range(n - 1):
        p = np.where(block[i + 1:] == block[i], p_in, p_out)
        hits.append(i + 1 + np.flatnonzero(rng.random(n - i - 1) < p))
    ej = np.concatenate(hits)
    return _graph(labels, np.repeat(np.arange(n - 1), [h.size for h in hits]), ej, np.ones(ej.size))
