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
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    EmptySubsetError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    InvalidProbabilityError,
    NonpositiveWeightError,
    NotSymmetricError,
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
    input. `_spectra` holds the full spectra that
    :func:`spectral.graph_spectrum` has solved, by Laplacian kind, and
    `_degrees` the vector :func:`degrees` computed on its first call;
    neither takes part in equality, hashing or repr.
    """

    labels: tuple[str, ...]
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _degrees: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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
    """A dense Laplacian, read-only float64; NotSymmetricError unless square, finite and symmetric."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        M = _floats(self.matrix, "Laplacian entries")
        _check_symmetric(M)
        M.flags.writeable = False
        object.__setattr__(self, "matrix", M)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def graph_from_edges(labels: Sequence[str], edges: Iterable[tuple[int, int, float]]) -> Graph:
    """Build a validated graph from node labels and weighted edge triples.

    Edge endpoints may arrive in either order; they are canonicalized to
    (min, max) and sorted. Raises SelfLoopError, DuplicateEdgeError,
    NonpositiveWeightError or IndexOutOfRangeError naming the offending
    edge, and InvalidArgumentError for structural problems with the labels
    or for weights whose doubled sum (the total volume) overflows.
    """
    labels = _node_labels(labels)
    n = len(labels)
    try:
        edges = iter(edges)
    except TypeError:
        raise InvalidArgumentError(f"edges must be an iterable of (i, j, weight) triples, got {edges!r}") from None

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
        try:
            w = float(w)
        except (TypeError, ValueError):
            raise InvalidArgumentError(f"edge ({i}, {j}, {w!r}): weight must be a real number") from None
        if not np.isfinite(w) or w <= 0.0:
            raise NonpositiveWeightError(f"edge ({i}, {j}, {w}): weight must be positive and finite")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise DuplicateEdgeError(f"edge ({i}, {j}, {w}): pair already present")
        seen.add(key)
        canonical.append((key[0], key[1], w))

    canonical.sort(key=lambda e: (e[0], e[1]))
    return _graph(labels, *np.array(canonical, dtype=np.float64).reshape(-1, 3).T)


def _node_labels(labels: Sequence[str]) -> tuple[str, ...]:
    """Labels as a tuple of strings; InvalidArgumentError unless an iterable, nonempty and distinct."""
    try:
        labels = tuple(str(x) for x in labels)
    except TypeError:
        raise InvalidArgumentError(f"labels must be an iterable of node labels, got {labels!r}") from None
    if not labels:
        raise InvalidArgumentError("a graph needs at least one node")
    if len(set(labels)) != len(labels):
        raise InvalidArgumentError("node labels must be distinct")
    return labels


def _graph(labels: Sequence[str], ei, ej, w) -> Graph:
    """Graph from canonical edge arrays (i < j, sorted by (i, j), no repeats).

    The structure is trusted. The weights are checked, since sums and
    rescalings of valid weights can overflow or underflow.
    """
    ei, ej = np.ascontiguousarray(ei, np.int64), np.ascontiguousarray(ej, np.int64)
    w = np.ascontiguousarray(w, np.float64)
    ok = (w > 0.0) & (w < np.inf)  # NaN fails both
    if not ok.all():
        bad = np.flatnonzero(~ok)[0]
        i, j, x = int(ei[bad]), int(ej[bad]), float(w[bad])
        raise NonpositiveWeightError(f"edge ({i}, {j}, {x}): weight must be positive and finite")
    with np.errstate(over="ignore"):  # total volume bounds every degree, cut, eigenvalue
        if not np.isfinite(2.0 * w.sum()):
            raise InvalidArgumentError("total edge weight overflows: twice its sum must be finite")
    for a in (ei, ej, w):
        a.flags.writeable = False
    return Graph(labels=tuple(labels), ei=ei, ej=ej, w=w)


def _edge_matrix(g: Graph, diagonal: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Dense n x n matrix: `diagonal`, then values[k] at both (ei[k], ej[k]) and (ej[k], ei[k])."""
    M = np.diag(diagonal)
    M[g.ei, g.ej] = values
    M[g.ej, g.ei] = values
    return M


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense symmetric adjacency matrix with zero diagonal."""
    return _edge_matrix(g, np.zeros(g.n), g.w)


def degrees(g: Graph) -> np.ndarray:
    """Weighted degree vector (the adjacency's row sums), in O(m) from the edge arrays.

    Computed once per graph: every call returns the same read-only float64 array.
    """
    if g._degrees is None:
        d = np.bincount(g.ei, g.w, g.n) + np.bincount(g.ej, g.w, g.n)
        d = d.astype(np.float64, copy=False)  # bincount over no edges is integer
        d.flags.writeable = False
        object.__setattr__(g, "_degrees", d)
    return g._degrees


def laplacian(g: Graph, kind: LaplacianKind = LaplacianKind.COMBINATORIAL) -> LaplacianMatrix:
    """Build the graph Laplacian in the requested normalization.

    Both are written from the edge arrays and are exactly symmetric. The
    combinatorial form matches np.diag(degrees(g)) - adjacency_matrix(g)
    entry for entry, zero entries included as +0.0. The normalized form is
    I - D^(-1/2) A D^(-1/2), with isolated nodes' rows and columns zero.
    """
    d = degrees(g)
    if kind is LaplacianKind.COMBINATORIAL:
        return LaplacianMatrix(matrix=_edge_matrix(g, d, -g.w))
    if kind is LaplacianKind.NORMALIZED:
        s = np.divide(1.0, np.sqrt(d), out=np.zeros_like(d), where=d > 0)
        # both triangles take the lower one's product order, the triangle eigh and dsyevr read
        off = -(s[g.ej] * g.w) * s[g.ei]
        return LaplacianMatrix(matrix=_edge_matrix(g, (d > 0).astype(np.float64), off))
    raise InvalidArgumentError(f"unknown Laplacian kind: {kind!r}")


def induced_subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Subgraph on the given node set, re-indexed in ascending node order.

    Labels are preserved. Selecting every node round-trips to an equal
    graph. Raises EmptySubsetError for an empty selection and
    IndexOutOfRangeError for indices outside the graph.
    """
    if isinstance(nodes, np.ndarray) and nodes.ndim == 1 and nodes.dtype.kind in "iu":
        wanted = np.sort(nodes)  # repeats are harmless below
    else:
        try:
            nodes = iter(nodes)
        except TypeError:
            raise InvalidArgumentError(f"nodes must be an iterable of node indices, got {nodes!r}") from None
        wanted = sorted({_integer(i, "node index") for i in nodes})
    if not len(wanted):
        raise EmptySubsetError("node subset must be nonempty")
    if wanted[0] < 0 or wanted[-1] >= g.n:
        raise IndexOutOfRangeError(f"subset contains indices outside 0..{g.n - 1}")
    inside = np.zeros(g.n, dtype=bool)
    inside[wanted] = True
    # the new index of each kept node: increasing, so kept edges stay canonical
    remap = inside.cumsum() - 1
    keep = inside[g.ei] & inside[g.ej]
    labels = g.labels
    return _graph(
        [labels[i] for i in inside.nonzero()[0].tolist()], remap[g.ei[keep]], remap[g.ej[keep]], g.w[keep]
    )


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
    a, b = np.sort(partition.assignment[np.stack([g.ei, g.ej])], axis=0)
    crossing = a != b
    pairs, slot = np.unique(a[crossing] * k + b[crossing], return_inverse=True)
    # bincount adds each pair's weights in edge order, as a running sum would
    w = np.bincount(slot, weights=g.w[crossing], minlength=pairs.size)
    return _graph([f"c{c}" for c in range(k)], pairs // k, pairs % k, w)


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted index lists, ordered by minimum index.

    Hook and shortcut (Shiloach and Vishkin 1982): each round hooks every
    root to its smallest neighbouring root, in O(m), and pointer-jumps to
    a fixed point, in O(n) a jump; a path takes ceil(log2 n) rounds at
    most. Roots only fall, so each component is rooted at its least index.
    """
    root, a, b = np.arange(g.n), g.ei, g.ej  # b > a: the ends of edges between roots
    while a.size:
        np.minimum.at(root, b, a)
        while ((up := root[root]) != root).any():
            root = up
        a, b = np.sort(root[np.stack([a, b])], axis=0)
        a, b = a[a < b], b[a < b]
    ends = np.bincount(root, minlength=g.n).cumsum()[root == np.arange(g.n)].tolist()
    order = np.argsort(root, kind="stable").tolist()
    return [order[s:e] for s, e in zip([0, *ends[:-1]], ends)]


_CHUNK = 1 << 16  # uniforms per draw in sbm_generate; bounds its scratch memory at any n


def _integer(value, name: str) -> int:
    """value as an int; InvalidArgumentError for anything else, a bool included."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None


def _real(value, name: str, error):
    """value itself if it is a real number, not a bool; `error` otherwise."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")
    return value


def _choice(value, name: str, choices: tuple[str, ...]) -> None:
    """InvalidArgumentError unless value is a str among `choices`; an array is not one."""
    if not (isinstance(value, str) and value in choices):
        raise InvalidArgumentError(f"{name} must be one of {choices}, got {value!r}")


def _floats(value, name: str) -> np.ndarray:
    """value as a float64 array, copied only if it is not one; InvalidArgumentError if numpy cannot read it."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{name} must be real numbers") from None


def _node_vector(v, n: int, error) -> np.ndarray:
    """v as a flat float64 vector of n finite entries; `error` if it has another length."""
    v = _floats(v, "vector entries").reshape(-1)
    if v.shape[0] != n:
        raise error(f"vector has length {v.shape[0]}, graph has {n} nodes")
    if not np.isfinite(v).all():
        raise InvalidArgumentError("vector entries must be finite")
    return v


def _check_symmetric(M: np.ndarray, tol: float = 1e-12, error=NotSymmetricError) -> None:
    """Raise `error` unless M is square with max |M - M^T| at most `tol`."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise error(f"expected a square matrix, got shape {M.shape}")
    if np.array_equal(M, M.T) and np.isfinite(M).all():  # M - M.T is all zeros
        return
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which fails the test below
        d = M - M.T
    asym = np.abs(d, out=d).max() if M.size else 0.0
    if not asym <= tol:
        raise error(f"matrix asymmetry {asym:.2e} exceeds {tol}")


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
    using one uniform per pair (i, j > i) in row-major order, so output
    is fully determined by the seed, a nonnegative integer. Uniforms are
    drawn in chunks of at most 2**16, which continue one stream: the
    graph is the one a draw per pair would give.

    Requires 0 <= p_out <= p_in <= 1. The degenerate corners are legal:
    p_out = 0 gives disjoint blocks and p_in = p_out = 1 the complete
    graph.
    """
    blocks = _integer(blocks, "blocks")
    nodes_per_block = _integer(nodes_per_block, "nodes_per_block")
    seed = _integer(seed, "seed")
    if blocks < 2:
        raise InvalidArgumentError("need at least 2 blocks")
    if nodes_per_block < 2:
        raise InvalidArgumentError("need at least 2 nodes per block")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be nonnegative, got {seed}")
    if not all(isinstance(p, Real) and not isinstance(p, bool) for p in (p_in, p_out)):
        raise InvalidProbabilityError(f"probabilities must be real numbers, got p_in={p_in!r}, p_out={p_out!r}")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise InvalidProbabilityError(
            f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}"
        )
    n = blocks * nodes_per_block
    labels = [f"b{i // nodes_per_block}n{i % nodes_per_block}" for i in range(n)]
    rng = np.random.default_rng(seed)
    rows = np.arange(n - 1)
    first = rows * (2 * n - 1 - rows) // 2  # linear index of pair (i, i + 1)
    total = n * (n - 1) // 2
    ei, ej = [], []
    for lo in range(0, total, _CHUNK):
        u = rng.random(min(_CHUNK, total - lo))
        # p_out <= p_in, so every edge of the chunk is among its candidates
        hit = np.flatnonzero(u < p_in)
        k = lo + hit
        i = np.searchsorted(first, k, side="right") - 1
        j = k - first[i] + i + 1
        keep = (i // nodes_per_block == j // nodes_per_block) | (u[hit] < p_out)
        ei.append(i[keep])
        ej.append(j[keep])
    ej = np.concatenate(ej)
    return _graph(labels, np.concatenate(ei), ej, np.ones(ej.size))
