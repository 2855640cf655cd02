"""Graph partitioning by spectral coordinates, plus cut quality metrics.

Three clustering routes share the Partition output type:

* sign_bipartition cuts a graph in two by the sign pattern of a vector,
  normally the Fiedler vector;
* recursive_bipartition reaches k clusters by repeatedly re-splitting
  the weakest cluster (smallest internal algebraic connectivity);
* kway_embedding_cluster runs a restarted k-means style loop directly
  on spectral coordinates, with euclidean, manhattan or fractional
  distances. The non-euclidean metrics keep coordinate-wise medians as
  centers, which is the natural companion of L1-family distances in low
  dimensional embeddings.

Cut quality for a partition C_1..C_k of graph g uses

    cut(C)         total weight of edges leaving C
    vol(C)         sum of weighted degrees inside C
    ratio cut      sum_a cut(C_a) / |C_a|
    normalized cut sum_a cut(C_a) / vol(C_a)
    Cheeger        max_a cut(C_a) / min(vol(C_a), vol(complement))

with the convention that a zero cut contributes zero even when the
denominator is zero as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantVectorError,
    InvalidArgumentError,
    InvalidFractionalExponentError,
    KOutOfRangeError,
    NotEnoughSplittableClustersError,
    PartitionMismatchError,
    TooFewDistinctPointsError,
)
from .graphs import (
    Graph,
    LaplacianKind,
    connected_components,
    degrees,
    edge_arrays,
    induced_subgraph,
)
from .spectral import (
    CONNECTIVITY_TOL,
    Embedding,
    Spectrum,
    algebraic_connectivity,
    graph_spectrum,
)

_SIGN_ZERO_REL_TOL = 1e-12
# relative slack for the few roundings of the final divisions and products
_SWEEP_REL_TOL = 1e-9
_EPS = float(np.finfo(np.float64).eps)
_KMEANS_RESTARTS = 20
_KMEANS_MAX_ITER = 300

METRICS = ("euclidean", "manhattan", "fractional")
SELECTIONS = ("cheeger", "ratio", "normalized")


@dataclass(frozen=True)
class Partition:
    """Hard assignment of n nodes to clusters 0..k-1, every id used."""

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise KOutOfRangeError(f"k must be at least 1, got {self.k}")
        if not self.assignment:
            raise PartitionMismatchError("assignment must cover at least one node")
        ids = set(int(a) for a in self.assignment)
        if not all(isinstance(a, (int, np.integer)) and 0 <= a < self.k for a in self.assignment):
            raise PartitionMismatchError("assignment ids must be integers in 0..k-1")
        if ids != set(range(self.k)):
            raise PartitionMismatchError(
                f"every cluster id in 0..{self.k - 1} must occur at least once"
            )

    @property
    def n(self) -> int:
        return len(self.assignment)

    def as_array(self) -> np.ndarray:
        return np.fromiter(self.assignment, dtype=np.int64, count=self.n)


@dataclass(frozen=True)
class CutMetrics:
    cut_weight: float
    ratio_cut: float
    normalized_cut: float
    cheeger: float


@dataclass(frozen=True)
class ClusterProfile:
    """Connectivity summary of one cluster against the rest of the graph."""

    internal_weight: float
    external_weight: float
    internal_density: float
    separation: float


@dataclass(frozen=True)
class ConnectivityProfile:
    clusters: tuple[ClusterProfile, ...]


def _partition_from_labels(labels: np.ndarray, k: int) -> Partition:
    return Partition(assignment=tuple(int(a) for a in labels), k=k)


def sign_bipartition(g: Graph, v: np.ndarray) -> Partition:
    """Split nodes by the sign of a vector: negatives against the rest.

    Entries within 1e-12 of zero (relative to the largest magnitude)
    join cluster 0 together with the positive side, so the output is
    invariant under positive rescaling of v. Raises ConstantVectorError
    when the vector fails to separate anything.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != g.n:
        raise PartitionMismatchError(f"vector has length {v.shape[0]}, graph has {g.n} nodes")
    tol = _SIGN_ZERO_REL_TOL * float(np.abs(v).max())
    labels = (v < -tol).astype(np.int64)
    if labels.min() == labels.max():
        raise ConstantVectorError("vector has no sign change to cut along")
    return _partition_from_labels(labels, 2)


def _split_once(
    nodes: list[int], lam2: float, sub: Graph, s: Spectrum, split_fn
) -> tuple[list[int], list[int]]:
    """Split one cluster of a host graph, given its subgraph and spectrum."""
    if lam2 <= CONNECTIVITY_TOL:
        # internally disconnected: peel off the component with the lowest index
        side_local = set(connected_components(sub)[0])
    else:
        part = split_fn(sub, s)
        side_local = {i for i, a in enumerate(part.assignment) if a == 0}
    left = sorted(nodes[i] for i in side_local)
    right = sorted(nodes[i] for i in range(len(nodes)) if i not in side_local)
    return left, right


def _recursive_split(g: Graph, k: int, split_fn) -> Partition:
    """Shared engine for recursive bipartitioning policies.

    Starts from the connected components (which count toward k),
    repeatedly splits the cluster with the smallest internal lambda_2
    (ties: larger cluster, then lower minimum node index), never splits
    singletons, and finally relabels clusters by minimum node index.
    Each cluster's induced subgraph and two smallest combinatorial
    eigenpairs are computed once; split_fn(sub, spectrum) receives both.
    """
    if not 1 <= k <= g.n:
        raise KOutOfRangeError(f"k={k} outside 1..{g.n}")
    clusters = [sorted(c) for c in connected_components(g)]
    if len(clusters) > k:
        raise KOutOfRangeError(
            f"graph has {len(clusters)} connected components, cannot form k={k} clusters"
        )
    # entries live until their cluster is split
    solved: dict[tuple[int, ...], tuple[float, Graph, Spectrum]] = {}

    def solve(nodes: list[int]) -> tuple[float, Graph, Spectrum]:
        key = tuple(nodes)
        if key not in solved:
            sub = induced_subgraph(g, nodes)
            s = graph_spectrum(sub, LaplacianKind.COMBINATORIAL, count=2)
            solved[key] = algebraic_connectivity(s), sub, s
        return solved[key]

    while len(clusters) < k:
        candidates = [c for c in clusters if len(c) >= 2]
        if not candidates:
            raise NotEnoughSplittableClustersError(
                f"only singleton clusters remain at {len(clusters)} < k={k}"
            )
        target = min(candidates, key=lambda c: (solve(c)[0], -len(c), c[0]))
        try:
            left, right = _split_once(target, *solved.pop(tuple(target)), split_fn)
        except ConstantVectorError as exc:
            raise NotEnoughSplittableClustersError(
                f"cluster {target} admits no further spectral split"
            ) from exc
        clusters.remove(target)
        clusters.append(left)
        clusters.append(right)

    clusters.sort(key=lambda c: c[0])
    labels = np.zeros(g.n, dtype=np.int64)
    for cid, members in enumerate(clusters):
        labels[members] = cid
    return _partition_from_labels(labels, len(clusters))


def threshold_partition(g: Graph, f: np.ndarray, selection: str = "cheeger") -> Partition:
    """Best split among the n - 1 sorted-entry thresholds of f.

    Cluster 1 holds the t smallest entries of f (stable order) for the
    threshold t whose cut value under `selection` (cheeger, ratio or
    normalized) is minimal. A plain sign cut can slice through a
    cluster whose entries hover around zero, which the sweep avoids by
    considering every split the ordering admits.

    One sorted sweep scores all thresholds in O(m + n log n): cut
    weights from a difference array over ranks, volumes from prefix and
    suffix sums of degrees. The winner is exactly the one a scan scoring
    every threshold with cut_metrics would keep, the smallest t among
    equal minima, float rounding included. A zero cut scores exactly
    zero, so the first zero-cut threshold wins outright. Otherwise the
    thresholds whose swept value, widened by a bound on the rounding
    difference between the two routes, can reach the swept minimum are
    re-scored with cut_metrics (normally one or two), and the smallest t
    among their exact minima wins.
    """
    if selection not in SELECTIONS:
        raise InvalidArgumentError(f"selection must be one of {SELECTIONS}, got {selection!r}")
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    if f.shape[0] != g.n:
        raise PartitionMismatchError(f"vector has length {f.shape[0]}, graph has {g.n} nodes")
    if g.n < 2:
        raise PartitionMismatchError("need at least two nodes to threshold")
    order = np.argsort(f, kind="stable")
    return _partition_from_labels(_threshold_labels(order, _sweep(g, order, selection)), 2)


def _sweep(g: Graph, order: np.ndarray, selection: str) -> int:
    """The threshold t a cut_metrics scan over t = 1..n-1 would keep."""
    n = g.n
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    ei, ej, w = edge_arrays(g)
    # an edge crosses threshold t exactly when lo <= t < hi
    lo = np.minimum(rank[ei], rank[ej]) + 1
    hi = np.maximum(rank[ei], rank[ej]) + 1
    crossing = np.cumsum(np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1))
    zero_cut = np.flatnonzero(crossing[1:n] == 0)
    if zero_cut.size:
        return int(zero_cut[0]) + 1
    cut = np.cumsum(np.bincount(lo, w, n + 1) - np.bincount(hi, w, n + 1))[1:n]
    deg = degrees(g)[order]
    vol = np.cumsum(deg)
    vol_in = vol[:-1]
    vol_out = np.cumsum(deg[::-1])[::-1][1:]
    smaller = np.minimum(vol_in, vol_out)
    if selection == "cheeger":
        per_cut = 1.0 / smaller
    elif selection == "ratio":
        sizes = np.arange(1, n)
        per_cut = 1.0 / sizes + 1.0 / (n - sizes)
    else:
        per_cut = 1.0 / vol_in + 1.0 / vol_out
    value = cut * per_cut
    # Bound |value - cut_metrics' value| by the rounding of the two
    # routes: each sums a cut weight to within cut_err and a volume to
    # within vol_err of the exact sum. A threshold whose smaller volume
    # is within vol_err of zero has no bound and is always re-scored.
    cut_err = 2.0 * (w.size + n) * _EPS * float(w.sum())
    vol_err = 16.0 * (n + 1) * _EPS * float(vol[-1])
    margin = smaller - vol_err
    rel = vol_err / np.where(margin > 0, margin, 1.0)
    bound = np.where(
        margin > 0,
        np.abs(value) * (rel + _SWEEP_REL_TOL) + cut_err * per_cut * (1.0 + rel),
        np.inf,
    )
    candidates = np.flatnonzero(value - bound <= np.min(value + bound)) + 1
    exact = [_selected_cut(g, _threshold_labels(order, int(t)), selection) for t in candidates]
    return int(candidates[int(np.argmin(exact))])


def _threshold_labels(order: np.ndarray, t: int) -> np.ndarray:
    labels = np.zeros(order.shape[0], dtype=np.int64)
    labels[order[:t]] = 1
    return labels


def _selected_cut(g: Graph, labels: np.ndarray, selection: str) -> float:
    m = cut_metrics(g, _partition_from_labels(labels, 2))
    return {"cheeger": m.cheeger, "ratio": m.ratio_cut, "normalized": m.normalized_cut}[selection]


def recursive_bipartition(g: Graph, k: int) -> Partition:
    """Recursive Fiedler bipartitioning down to exactly k clusters.

    Each split thresholds the subgraph's Fiedler vector at the
    Cheeger-minimizing sorted-entry cut rather than at zero; the zero
    cut misplaces nodes of any cluster whose Fiedler entries straddle
    zero, which happens systematically when three similar clusters
    remain inside one piece.
    """

    def fiedler_threshold_split(sub: Graph, s: Spectrum) -> Partition:
        return threshold_partition(sub, s.eigenvectors[:, 1], "cheeger")

    return _recursive_split(g, k, fiedler_threshold_split)


def _pairwise_distances(P: np.ndarray, C: np.ndarray, metric: str, q: float) -> np.ndarray:
    D = np.abs(P[:, None, :] - C[None, :, :])
    if metric == "euclidean":
        return np.sqrt((D * D).sum(axis=-1))
    if metric == "manhattan":
        return D.sum(axis=-1)
    return (D**q).sum(axis=-1) ** (1.0 / q)


def _kmeanspp_init(pts: np.ndarray, k: int, metric: str, q: float, rng) -> np.ndarray:
    n = pts.shape[0]
    first = int(rng.integers(n))
    centers = [pts[first].copy()]
    dmin = _pairwise_distances(pts, pts[first][None, :], metric, q)[:, 0]
    for _ in range(k - 1):
        weights = dmin**2
        total = weights.sum()
        # k <= distinct points guarantees mass remains off the chosen centers
        idx = int(rng.choice(n, p=weights / total))
        centers.append(pts[idx].copy())
        dmin = np.minimum(dmin, _pairwise_distances(pts, pts[idx][None, :], metric, q)[:, 0])
    return np.vstack(centers)


def _lloyd(pts: np.ndarray, k: int, metric: str, q: float, centers: np.ndarray):
    assign: np.ndarray | None = None
    for _ in range(_KMEANS_MAX_ITER):
        D = _pairwise_distances(pts, centers, metric, q)
        new_assign = D.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=k)
        for cid in np.where(counts == 0)[0]:
            eligible = np.where(counts[new_assign] >= 2)[0]
            far = eligible[np.argmax(D[eligible, new_assign[eligible]])]
            counts[new_assign[far]] -= 1
            new_assign[far] = cid
            counts[cid] += 1
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for cid in range(k):
            members = pts[assign == cid]
            if metric == "euclidean":
                centers[cid] = members.mean(axis=0)
            else:
                centers[cid] = np.median(members, axis=0)
    D = _pairwise_distances(pts, centers, metric, q)
    objective = float(D[np.arange(pts.shape[0]), assign].sum())
    return assign, objective


def kway_embedding_cluster(
    e: Embedding,
    k: int,
    metric: str = "euclidean",
    q: float = 0.5,
    seed: int = 0,
) -> Partition:
    """Cluster embedded nodes into k groups with a seeded k-means loop.

    Runs 20 restarts of k-means++ style initialization followed by
    Lloyd iterations, keeps the restart with the smallest within-cluster
    sum of metric distances (earliest restart wins ties) and relabels
    clusters in order of first appearance. metric is one of euclidean
    (mean centers), manhattan or fractional (coordinate-wise median
    centers); fractional uses d(x, y) = (sum |x_i - y_i|^q)^(1/q) and
    requires 0 < q < 1.
    """
    if metric not in METRICS:
        raise InvalidArgumentError(f"metric must be one of {METRICS}, got {metric!r}")
    if metric == "fractional" and not 0.0 < q < 1.0:
        raise InvalidFractionalExponentError(f"fractional exponent must lie in (0, 1), got {q}")
    pts = np.asarray(e.coordinates, dtype=np.float64)
    n = pts.shape[0]
    distinct = np.unique(pts, axis=0).shape[0]
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k} outside 1..{n}")
    if k > distinct:
        raise TooFewDistinctPointsError(
            f"k={k} exceeds the {distinct} distinct embedded points"
        )
    rng = np.random.default_rng(seed)
    best: tuple[float, np.ndarray] | None = None
    for _ in range(_KMEANS_RESTARTS):
        centers = _kmeanspp_init(pts, k, metric, q, rng)
        assign, objective = _lloyd(pts, k, metric, q, centers)
        if best is None or objective < best[0]:
            best = (objective, assign)
    labels = best[1]
    remap: dict[int, int] = {}
    for a in labels:
        if int(a) not in remap:
            remap[int(a)] = len(remap)
    relabeled = np.fromiter((remap[int(a)] for a in labels), dtype=np.int64, count=n)
    return _partition_from_labels(relabeled, k)


def _per_cluster_cut(g: Graph, p: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster crossing weight, volume and size."""
    assign = p.as_array()
    ei, ej, w = edge_arrays(g)
    crossing = assign[ei] != assign[ej]
    cut = np.zeros(p.k)
    np.add.at(cut, assign[ei[crossing]], w[crossing])
    np.add.at(cut, assign[ej[crossing]], w[crossing])
    vol = np.bincount(assign, weights=degrees(g), minlength=p.k)
    size = np.bincount(assign, minlength=p.k).astype(np.float64)
    return cut, vol, size


def cut_metrics(g: Graph, p: Partition) -> CutMetrics:
    """Cut weight, ratio cut, normalized cut and Cheeger constant of p on g.

    Zero-cut clusters contribute zero to every sum even when their
    volume is zero, so a k=1 partition scores zero across the board.
    """
    if p.n != g.n:
        raise PartitionMismatchError(f"partition covers {p.n} nodes, graph has {g.n}")
    cut, vol, size = _per_cluster_cut(g, p)
    total_cut = float(cut.sum()) / 2.0
    # the complement's own volume: the total less vol(C) can round to 0
    complement = [float(np.delete(vol, a).sum()) for a in range(p.k)]

    def safe(num: float, den: float) -> float:
        return 0.0 if num == 0.0 else num / den

    ratio = float(sum(safe(c, s) for c, s in zip(cut, size)))
    normalized = float(sum(safe(c, v) for c, v in zip(cut, vol)))
    cheeger = float(
        max((safe(c, min(v, r)) for c, v, r in zip(cut, vol, complement)), default=0.0)
    )
    return CutMetrics(
        cut_weight=total_cut,
        ratio_cut=ratio,
        normalized_cut=normalized,
        cheeger=cheeger,
    )


def connectivity_profile(g: Graph, p: Partition) -> ConnectivityProfile:
    """Per-cluster internal and boundary connectivity summary.

    internal_density averages internal weight over the s(s-1)/2 node
    pairs inside a cluster of size s (zero for singletons). separation
    divides that density by the per-pair external weight; clusters with
    no external weight get the +infinity sentinel.
    """
    if p.n != g.n:
        raise PartitionMismatchError(f"partition covers {p.n} nodes, graph has {g.n}")
    assign = p.as_array()
    ei, ej, w = edge_arrays(g)
    internal = np.zeros(p.k)
    external = np.zeros(p.k)
    same = assign[ei] == assign[ej]
    np.add.at(internal, assign[ei[same]], w[same])
    np.add.at(external, assign[ei[~same]], w[~same])
    np.add.at(external, assign[ej[~same]], w[~same])
    size = np.bincount(assign, minlength=p.k).astype(np.float64)
    n = float(g.n)
    records = []
    for c in range(p.k):
        s = size[c]
        pairs_in = s * (s - 1.0) / 2.0
        density = internal[c] / pairs_in if pairs_in > 0 else 0.0
        pairs_out = s * (n - s)
        if external[c] > 0 and pairs_out > 0:
            separation = density / (external[c] / pairs_out)
        else:
            separation = float("inf")
        records.append(
            ClusterProfile(
                internal_weight=float(internal[c]),
                external_weight=float(external[c]),
                internal_density=float(density),
                separation=float(separation),
            )
        )
    return ConnectivityProfile(clusters=tuple(records))
