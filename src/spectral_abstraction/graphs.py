"""Weighted undirected graphs and their matrix representations.

The graph model is intentionally small. Nodes carry string labels,
edges are undirected with strictly positive weights, there are no self
loops, and every constructed value is immutable. Matrix forms are dense
numpy arrays, which is the right trade-off at the network sizes this
toolkit targets (up to a few thousand nodes).

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


@dataclass(frozen=True)
class Graph:
    """Immutable weighted undirected graph with labeled nodes.

    Edges are stored canonically as (i, j, weight) with i < j, sorted by
    endpoint pair, so equal graphs compare equal and serialize
    identically. Construct through :func:`graph_from_edges`, which
    validates and canonicalizes; the raw constructor trusts its input.
    """

    labels: tuple[str, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


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
    return Graph(labels=labels, edges=tuple(canonical))


def edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge list as (i, j, w) arrays; convenient for vectorized sums."""
    if not g.edges:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), np.zeros(0)
    ei = np.fromiter((e[0] for e in g.edges), dtype=np.int64, count=g.n_edges)
    ej = np.fromiter((e[1] for e in g.edges), dtype=np.int64, count=g.n_edges)
    w = np.fromiter((e[2] for e in g.edges), dtype=np.float64, count=g.n_edges)
    return ei, ej, w


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense symmetric adjacency matrix with zero diagonal."""
    A = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        A[i, j] = w
        A[j, i] = w
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
    remap = {old: new for new, old in enumerate(wanted)}
    members = set(wanted)
    kept = [
        (remap[i], remap[j], w)
        for i, j, w in g.edges
        if i in members and j in members
    ]
    return graph_from_edges([g.labels[i] for i in wanted], kept)


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
    accum: dict[tuple[int, int], float] = {}
    for i, j, w in g.edges:
        a, b = partition.assignment[i], partition.assignment[j]
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        accum[key] = accum.get(key, 0.0) + w
    labels = [f"c{c}" for c in range(partition.k)]
    edges = [(a, b, w) for (a, b), w in sorted(accum.items())]
    return graph_from_edges(labels, edges)


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted index lists, ordered by minimum index."""
    neighbors: list[list[int]] = [[] for _ in range(g.n)]
    for i, j, _ in g.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    seen = [False] * g.n
    components: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        components.append(sorted(comp))
    return components


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
    edges: list[tuple[int, int, float]] = []
    for i in range(n):
        bi = i // nodes_per_block
        for j in range(i + 1, n):
            p = p_in if j // nodes_per_block == bi else p_out
            if rng.random() < p:
                edges.append((i, j, 1.0))
    return graph_from_edges(labels, edges)
