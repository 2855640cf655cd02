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
  dimensional embeddings. Each Lloyd step works on whole arrays: all
  point-to-center distances as n x k sums over the coordinates, and all
  means as one scatter-add.

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
    _choice,
    _integer,
    _node_vector,
    _real,
    connected_components,
    degrees,
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
# lambda_2 values this close (relative) tie for the weakest cluster
_LAMBDA_TIE_REL_TOL = 1e-10
# sorted entries of a swept vector this close (relative to max |f|) are one level
_LEVEL_REL_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)
_KMEANS_RESTARTS = 20
_KMEANS_MAX_ITER = 300

METRICS = ("euclidean", "manhattan", "fractional")
SELECTIONS = ("cheeger", "ratio", "normalized")


@dataclass(frozen=True, eq=False)
class Partition:
    """Hard assignment of n nodes to clusters 0..k-1, every id used.

    `assignment` is stored as a read-only int64 array, a copy of the
    input, so later writes to the caller's sequence cannot reach it.
    """

    assignment: np.ndarray
    k: int

    def __post_init__(self) -> None:
        try:
            if self.k < 1:
                raise KOutOfRangeError(f"k must be at least 1, got {self.k}")
            if not len(self.assignment):
                raise PartitionMismatchError("assignment must cover at least one node")
        except (TypeError, ValueError):  # a k that is no single number, or an assignment that is no sequence
            _integer(self.k, "k")
            raise PartitionMismatchError("assignment must be a sequence of ids") from None
        ids = _int64_ids(self.assignment)
        if ids is None or ids.ndim != 1 or ids.min() < 0 or ids.max() >= self.k:
            raise PartitionMismatchError("assignment ids must be integers in 0..k-1")
        k = _integer(self.k, "k")  # a float k passes the comparisons above
        # ids are below k, so k > n leaves some unused without counting k slots
        if k > ids.shape[0] or not np.bincount(ids, minlength=k).all():
            raise PartitionMismatchError(f"every cluster id in 0..{k - 1} must occur at least once")
        ids.flags.writeable = False
        object.__setattr__(self, "assignment", ids)
        object.__setattr__(self, "k", k)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.k == other.k and np.array_equal(self.assignment, other.assignment)

    def __hash__(self) -> int:
        return hash((self.k, self.assignment.tobytes()))

    @property
    def n(self) -> int:
        return self.assignment.shape[0]


def _int64_ids(assignment) -> np.ndarray | None:
    """A fresh int64 array of the entries; None unless each is an integer that fits."""
    # judged by type: numpy's conversion would take np.True_ and 0-d arrays as integers
    types = {assignment.dtype.type} if isinstance(assignment, np.ndarray) else set(map(type, assignment))
    if all(issubclass(t, (int, np.integer)) for t in types):
        try:
            return np.array(assignment, dtype=np.int64)
        except (OverflowError, TypeError):  # beyond int64, so beyond k; or a set, which has no order
            pass
    return None


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


def sign_bipartition(g: Graph, v: np.ndarray) -> Partition:
    """Split nodes by the sign of a vector: negatives against the rest.

    Entries within 1e-12 of zero (relative to the largest magnitude)
    join cluster 0 together with the positive side, so the output is
    invariant under positive rescaling of v. Raises ConstantVectorError
    when the vector fails to separate anything and InvalidArgumentError
    when it has a NaN or infinite entry.
    """
    v = _node_vector(v, g.n, PartitionMismatchError)
    tol = _SIGN_ZERO_REL_TOL * float(np.abs(v).max())
    labels = (v < -tol).astype(np.int64)
    if labels.min() == labels.max():
        raise ConstantVectorError("vector has no sign change to cut along")
    return Partition(assignment=labels, k=2)


def _split_once(
    nodes: np.ndarray, lam2: float, sub: Graph, s: Spectrum, split_fn
) -> tuple[np.ndarray, np.ndarray]:
    """Split one cluster of a host graph (its ascending node ids), given its subgraph and spectrum."""
    if lam2 <= CONNECTIVITY_TOL:
        # no cut direction: peel off the component with the lowest index, if there are two
        components = connected_components(sub)
        if len(components) == 1:
            raise ConstantVectorError("connected cluster with lambda_2 <= 1e-9 has no cut direction")
        side = np.zeros(nodes.shape[0], dtype=bool)
        side[components[0]] = True
    else:
        side = split_fn(sub, s).assignment == 0
    return nodes[side], nodes[~side]


def _recursive_split(g: Graph, k: int, split_fn) -> Partition:
    """Shared engine for recursive bipartitioning policies.

    For k > 1 it first solves g itself, as its first cluster; only when
    lambda_2 <= 1e-9 (a disconnected graph) or k = 1 does it start from
    the connected components, which count toward k. It repeatedly splits
    the cluster with the smallest internal lambda_2, never splits
    singletons, and finally relabels clusters by minimum node index. A
    cluster ties for weakest when its lambda_2 is within
    1e-10 * max(1, |lambda_min|) of the smallest, so last-digit solver
    noise cannot pick the target; among tied clusters the larger one,
    then the one with the lower minimum node index, is split. Each
    cluster's induced subgraph and two smallest combinatorial eigenpairs
    are computed once; split_fn(sub, spectrum) receives both.
    """
    k = _integer(k, "k")
    if not 1 <= k <= g.n:
        raise KOutOfRangeError(f"k={k} outside 1..{g.n}")
    # each cluster's ascending node ids, keyed by its lowest: clusters are disjoint
    clusters = {0: np.arange(g.n)}
    # entries live until their cluster is split
    solved: dict[int, tuple[float, Graph, Spectrum]] = {}

    def lam2(first: int) -> float:
        if first not in solved:
            nodes = clusters[first]
            sub = g if nodes.shape[0] == g.n else induced_subgraph(g, nodes)
            s = graph_spectrum(sub, LaplacianKind.COMBINATORIAL, count=2)
            solved[first] = algebraic_connectivity(s), sub, s
        return solved[first][0]

    if k == 1 or lam2(0) <= CONNECTIVITY_TOL:
        clusters = {c[0]: np.array(c) for c in connected_components(g)}
        if len(clusters) > 1:
            solved.clear()  # the root's pairs belong to no component of a disconnected graph
        if len(clusters) > k:
            raise KOutOfRangeError(f"graph has {len(clusters)} connected components, cannot form k={k} clusters")

    while len(clusters) < k:
        candidates = [first for first, c in clusters.items() if c.shape[0] >= 2]
        weakest = min(lam2(first) for first in candidates)
        tol = _LAMBDA_TIE_REL_TOL * max(1.0, abs(weakest))
        tied = [first for first in candidates if lam2(first) - weakest <= tol]
        target = min(tied, key=lambda first: (-clusters[first].shape[0], first))
        nodes = clusters.pop(target)
        try:
            left, right = _split_once(nodes, *solved.pop(target), split_fn)
        except ConstantVectorError as exc:
            raise NotEnoughSplittableClustersError(
                f"cluster {nodes.tolist()} admits no further spectral split"
            ) from exc
        for part in (left, right):
            clusters[int(part[0])] = part

    labels = np.zeros(g.n, dtype=np.int64)
    for cid, first in enumerate(sorted(clusters)):
        labels[clusters[first]] = cid
    return Partition(assignment=labels, k=len(clusters))


def threshold_partition(g: Graph, f: np.ndarray, selection: str = "cheeger") -> Partition:
    """Best split of f's sorted entries at a gap between its level sets.

    Cluster 1 holds the t smallest entries of f (stable order) for the
    threshold t whose cut value under `selection` (cheeger, ratio or
    normalized) is minimal. A plain sign cut can slice through a
    cluster whose entries hover around zero, which the sweep avoids by
    considering every split between the vector's level sets.

    Only thresholds between consecutive sorted entries that differ by
    more than 1e-10 * max|f| are scored, so nodes the vector cannot tell
    apart (repeated entries, or entries that differ only by rounding
    noise) always stay together, and the order noise gives them never
    picks the cut. Raises ConstantVectorError when no such gap exists.

    One sorted sweep scores the thresholds in O(m + n log n): cut
    weights from a difference array over ranks, volumes from prefix and
    suffix sums of degrees. The winner is exactly the one a scan scoring
    each of those thresholds with cut_metrics would keep, the smallest t
    among equal minima, float rounding included. A zero cut scores
    exactly zero, so the first zero-cut threshold wins outright.
    Otherwise the thresholds whose swept value, widened by a bound on
    the rounding difference between the two routes, can reach the swept
    minimum are candidates. A lone candidate is the scan's winner; two
    or more are re-scored with cut_metrics, and the smallest t among
    their exact minima wins.
    """
    _choice(selection, "selection", SELECTIONS)
    f = _node_vector(f, g.n, PartitionMismatchError)
    if g.n < 2:
        raise PartitionMismatchError("need at least two nodes to threshold")
    order = np.argsort(f, kind="stable")
    levels = f[order]
    # max |f| is at one end of the sorted entries
    ts = (levels[1:] - levels[:-1] > _LEVEL_REL_TOL * max(-levels[0], levels[-1])).nonzero()[0] + 1
    if not ts.size:
        raise ConstantVectorError("vector has no gap between its entries to cut at")
    return Partition(assignment=_threshold_labels(order, _sweep(g, order, ts, selection)), k=2)


def _sweep(g: Graph, order: np.ndarray, ts: np.ndarray, selection: str) -> int:
    """The threshold among ts a cut_metrics scan over them would keep."""
    n = g.n
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    ri, rj, w = rank[g.ei], rank[g.ej], g.w
    # an edge crosses threshold t exactly when lo < t <= hi, so the
    # running sums below read the crossings of t at index t - 1
    lo, hi = np.minimum(ri, rj), np.maximum(ri, rj)
    last = ts - 1
    crossing = (np.bincount(lo, minlength=n) - np.bincount(hi, minlength=n)).cumsum()
    zero_cut = ts[crossing[last] == 0]
    if zero_cut.size:
        return int(zero_cut[0])
    cut = (np.bincount(lo, w, n) - np.bincount(hi, w, n)).cumsum()[last]
    deg = degrees(g)[order]
    vol = deg.cumsum()
    vol_in = vol[last]
    vol_out = deg[::-1].cumsum()[::-1][ts]
    smaller = np.minimum(vol_in, vol_out)
    if selection == "cheeger":
        per_cut = 1.0 / smaller
    elif selection == "ratio":
        per_cut = 1.0 / ts + 1.0 / (n - ts)
    else:
        per_cut = 1.0 / vol_in + 1.0 / vol_out
    value = cut * per_cut
    # Bound |value - cut_metrics' value| by the rounding of the two
    # routes: each sums a cut weight to within cut_err and a volume to
    # within vol_err of the exact sum. A threshold whose smaller volume
    # is within vol_err of zero has no bound and is always a candidate.
    cut_err = 2.0 * (w.size + n) * _EPS * float(w.sum())
    vol_err = 16.0 * (n + 1) * _EPS * float(vol[-1])
    margin = smaller - vol_err
    rel = vol_err / np.where(margin > 0, margin, 1.0)
    bound = np.where(
        margin > 0,
        np.abs(value) * (rel + _SWEEP_REL_TOL) + cut_err * per_cut * (1.0 + rel),
        np.inf,
    )
    candidates = ts[value - bound <= np.min(value + bound)]
    if candidates.size == 1:  # every other threshold scores above it exactly
        return int(candidates[0])
    exact = [_selected_cut(g, _threshold_labels(order, int(t)), selection) for t in candidates]
    return int(candidates[int(np.argmin(exact))])


def _threshold_labels(order: np.ndarray, t: int) -> np.ndarray:
    labels = np.zeros(order.shape[0], dtype=np.int64)
    labels[order[:t]] = 1
    return labels


def _selected_cut(g: Graph, labels: np.ndarray, selection: str) -> float:
    m = _cut_metrics(g, labels, 2)
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
    """n x k distances from the rows of P to the rows of C.

    The per-coordinate terms are added over n x k arrays, one coordinate
    at a time from left to right (numpy's sum over a length-d axis may
    add pairwise instead, from d = 8 on).
    """
    total = np.zeros((P.shape[0], C.shape[0]))
    for j in range(P.shape[1]):
        t = np.subtract.outer(P[:, j], C[:, j])
        if metric == "euclidean":
            t *= t  # a square needs no abs
        else:
            np.abs(t, out=t)
            if metric == "fractional":
                t **= q
        total += t
    if metric == "euclidean":
        return np.sqrt(total, out=total)
    return total if metric == "manhattan" else total ** (1.0 / q)


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


def _centers(pts: np.ndarray, assign: np.ndarray, counts: np.ndarray, metric: str) -> np.ndarray:
    """Each cluster's mean (euclidean) or coordinate-wise median, one row per cluster.

    The means come from one scatter-add per coordinate, which adds each
    cluster's rows in point order.
    """
    k = counts.shape[0]
    if metric == "euclidean":
        sums = np.empty((k, pts.shape[1]))
        for j in range(pts.shape[1]):
            sums[:, j] = np.bincount(assign, pts[:, j], k)
        return sums / counts[:, None]
    return np.array([np.median(pts[assign == cid], axis=0) for cid in range(k)])


def _lloyd(pts: np.ndarray, k: int, metric: str, q: float, centers: np.ndarray):
    """Lloyd iterations from `centers`: the final assignment and its objective.

    Each step assigns every point to its nearest center, gives an empty
    cluster the farthest point of a cluster with two or more, and moves
    the centers (see _centers). The loop ends when an assignment repeats,
    whose objective, the sum of each point's distance to its center,
    comes from that step's distances, or after _KMEANS_MAX_ITER steps.
    """
    n = pts.shape[0]
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
        centers = _centers(pts, assign, counts, metric)
    else:
        D = _pairwise_distances(pts, centers, metric, q)
    return assign, float(D[np.arange(n), assign].sum())


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
    requires 0 < q < 1. k and the seed must be integers, the seed nonnegative
    (InvalidArgumentError otherwise); Embedding has checked the coordinates.
    """
    k, seed = _integer(k, "k"), _integer(seed, "seed")
    _choice(metric, "metric", METRICS)
    if metric == "fractional" and not 0.0 < _real(q, "q", InvalidFractionalExponentError) < 1.0:
        raise InvalidFractionalExponentError(f"fractional exponent must lie in (0, 1), got {q}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be nonnegative, got {seed}")
    pts = e.coordinates
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
    _, first, cluster = np.unique(best[1], return_index=True, return_inverse=True)
    # each cluster's rank among the clusters ordered by first appearance
    rank = np.argsort(np.argsort(first))
    return Partition(assignment=rank[cluster], k=k)


def cut_metrics(g: Graph, p: Partition) -> CutMetrics:
    """Cut weight, ratio cut, normalized cut and Cheeger constant of p on g.

    Zero-cut clusters contribute zero to every sum even when their
    volume is zero, so a k=1 partition scores zero across the board.
    """
    return _cut_metrics(g, p.assignment, p.k)


def _cluster_weights(g: Graph, assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cluster's size, internal weight and cut weight, as float64 arrays.

    A cluster adds its internal weights in edge order, and its crossing
    weights in edge order, first ends before second ends.
    """
    if assign.shape[0] != g.n:
        raise PartitionMismatchError(f"partition covers {assign.shape[0]} nodes, graph has {g.n}")
    ai, aj = assign[g.ei], assign[g.ej]
    same = ai == aj
    size = np.bincount(assign, minlength=k)
    internal = np.bincount(ai[same], g.w[same], k)
    cut = np.bincount(np.concatenate([ai[~same], aj[~same]]), np.concatenate([g.w[~same]] * 2), k)
    # np.bincount over no edges returns int64
    return size.astype(np.float64), internal.astype(np.float64), cut.astype(np.float64)


def _cut_metrics(g: Graph, assign: np.ndarray, k: int) -> CutMetrics:
    """cut_metrics of cluster ids 0..k-1, one per node of g, all of them used."""
    size, _, cut = _cluster_weights(g, assign, k)
    vol = np.bincount(assign, weights=degrees(g), minlength=k)
    total_cut = float(cut.sum()) / 2.0
    # each complement summed from the other clusters: the total less vol(C) can round to 0
    complement = np.array([np.concatenate((vol[:c], vol[c + 1:])).sum() for c in range(k)])

    def safe(den: np.ndarray) -> np.ndarray:
        # a zero cut scores zero, whatever den is
        return np.divide(cut, den, out=np.zeros(k), where=cut != 0.0)

    # clusters add in order, as a running sum would
    ratio = float(safe(size).cumsum()[-1])
    normalized = float(safe(vol).cumsum()[-1])
    cheeger = float(safe(np.minimum(vol, complement)).max())
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
    size, internal, external = _cluster_weights(g, p.assignment, p.k)
    pairs_in = size * (size - 1.0) / 2.0
    density = np.divide(internal, pairs_in, out=np.zeros(p.k), where=pairs_in > 0)
    # external weight means some node lies outside the cluster, so its pair count is positive
    crossed = external > 0
    per_pair_out = np.divide(external, size * (g.n - size), out=np.ones(p.k), where=crossed)
    separation = np.divide(density, per_pair_out, out=np.full(p.k, np.inf), where=crossed)
    rows = zip(internal.tolist(), external.tolist(), density.tolist(), separation.tolist())
    return ConnectivityProfile(clusters=tuple(ClusterProfile(*row) for row in rows))
