"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by a different route than the
library code: connectivity by union-find instead of BFS, eigenvalues by
characteristic polynomial instead of a symmetric eigensolver, cut
metrics by direct edge loops instead of vectorized incidence sums, the
matrix exponential by a scaled power series instead of an eigen-sum.
Keeping the routes disjoint is what gives the comparisons their value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np


def union_find_components(n: int, edges) -> list[set[int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _w in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return sorted(groups.values(), key=min)


def charpoly_coefficients(M: np.ndarray) -> list[Fraction]:
    """Exact characteristic polynomial of a rational matrix.

    Faddeev-LeVerrier recurrence over Fractions: c_0 = 1 and
    M_k = M (M_{k-1} + c_{k-1} I), c_k = -trace(M_k) / k. Returns
    [c_0, ..., c_n] for lambda^n + c_1 lambda^(n-1) + ... + c_n.
    """
    n = M.shape[0]
    A = [[Fraction(x).limit_denominator(10**12) for x in row] for row in M.tolist()]

    def matmul(X, Y):
        return [
            [sum(X[i][t] * Y[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]

    coeffs = [Fraction(1)]
    Mk = [row[:] for row in A]
    for k in range(1, n + 1):
        if k > 1:
            shifted = [
                [Mk[i][j] + (coeffs[k - 1] if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            Mk = matmul(A, shifted)
        ck = -sum(Mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
    return coeffs


def charpoly_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Ascending real roots of the characteristic polynomial.

    Roots are isolated symbolically from the exact rational coefficients;
    a floating-point root finder loses eps^(1/m) digits at a root of
    multiplicity m, which is far too coarse for repeated Laplacian
    eigenvalues.
    """
    import sympy

    coeffs = charpoly_coefficients(np.asarray(M, dtype=np.float64))
    x = sympy.Symbol("x")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in coeffs], x
    )
    roots = [float(r.evalf(30)) for r in poly.real_roots()]
    return np.sort(np.array(roots, dtype=np.float64))


def iter_bipartitions(n: int):
    """All 2^(n-1) - 1 two-sided splits; node 0 stays on side 0."""
    for mask in range(1, 2 ** (n - 1)):
        side1 = frozenset(i for i in range(1, n) if (mask >> (i - 1)) & 1)
        if len(side1) < n:
            yield side1


def direct_cut_metrics(n: int, edges, assignment) -> dict[str, float]:
    """Cut metrics for a k-way assignment by plain edge iteration."""
    k = max(assignment) + 1
    cut = [0.0] * k
    vol = [0.0] * k
    total_cut = 0.0
    for i, j, w in edges:
        vol[assignment[i]] += w
        vol[assignment[j]] += w
        if assignment[i] != assignment[j]:
            cut[assignment[i]] += w
            cut[assignment[j]] += w
            total_cut += w
    sizes = [sum(1 for a in assignment if a == c) for c in range(k)]
    total_vol = sum(vol)

    def safe(num: float, den: float) -> float:
        return 0.0 if num == 0.0 else num / den

    ratio = sum(safe(cut[c], sizes[c]) for c in range(k))
    ncut = sum(safe(cut[c], vol[c]) for c in range(k))
    cheeger = max(safe(cut[c], min(vol[c], total_vol - vol[c])) for c in range(k))
    return {
        "cut_weight": total_cut,
        "ratio_cut": ratio,
        "normalized_cut": ncut,
        "cheeger": cheeger,
    }


def scan_threshold_partition(g, f: np.ndarray, selection: str = "cheeger"):
    """The former O(n^3) threshold_partition: cut_metrics at every threshold.

    Kept as the reference for the one-pass sweep: thresholds are scored
    in order and a later one replaces the best only when strictly
    smaller, so the smallest t wins ties.
    """
    import spectral_abstraction as sa

    f = np.asarray(f, dtype=np.float64).reshape(-1)
    order = np.argsort(f, kind="stable")
    best_value = None
    best_labels = None
    for t in range(1, g.n):
        labels = np.zeros(g.n, dtype=np.int64)
        labels[order[:t]] = 1
        m = sa.cut_metrics(g, sa.Partition(assignment=tuple(int(a) for a in labels), k=2))
        value = {
            "cheeger": m.cheeger,
            "ratio": m.ratio_cut,
            "normalized": m.normalized_cut,
        }[selection]
        if best_value is None or value < best_value:
            best_value = value
            best_labels = labels
    return sa.Partition(assignment=tuple(int(a) for a in best_labels), k=2)


def best_bipartition(n: int, edges, key: str = "normalized_cut"):
    """Exhaustive minimum over all bipartitions; returns (value, side1)."""
    best = None
    for side1 in iter_bipartitions(n):
        assignment = [1 if i in side1 else 0 for i in range(n)]
        value = direct_cut_metrics(n, edges, assignment)[key]
        if best is None or value < best[0]:
            best = (value, side1)
    return best


def series_expm(M: np.ndarray, terms: int = 20) -> np.ndarray:
    """Matrix exponential by a scaled-and-squared truncated power series."""
    M = np.asarray(M, dtype=np.float64)
    norm = float(np.abs(M).sum(axis=1).max()) if M.size else 0.0
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    A = M / (2.0**s)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for t in range(1, terms):
        term = term @ A / t
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def label_agreement(a, b, k: int) -> float:
    """Best node agreement between two assignments over cluster relabelings."""
    a = list(a)
    b = list(b)
    best = 0
    for perm in permutations(range(k)):
        best = max(best, sum(1 for x, y in zip(a, b) if perm[x] == y))
    return best / len(a)


def power_iteration_lambda2(L: np.ndarray, iterations: int = 20000) -> float:
    """Second-smallest eigenvalue of a PSD matrix without a symmetric solver.

    Power iteration on (c I - L) restricted to the complement of the
    constant vector, where c bounds the spectrum from above via
    Gershgorin discs. Converges to c - lambda_2 for connected graphs.
    """
    n = L.shape[0]
    c = float(np.max(np.abs(L).sum(axis=1))) + 1.0
    ones = np.ones(n) / np.sqrt(n)
    x = np.cos(np.arange(1, n + 1))
    x = x - (ones @ x) * ones
    x /= np.linalg.norm(x)
    value = 0.0
    for _ in range(iterations):
        y = c * x - L @ x
        y = y - (ones @ y) * ones
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            break
        x = y / nrm
        value = float(x @ (c * x - L @ x))
    return c - value


def kmeans_objective(points: np.ndarray, assignment, k: int, metric: str, q: float = 0.5) -> float:
    """Within-cluster sum of distances to the metric's own center rule."""
    total = 0.0
    for cid in range(k):
        members = points[[i for i, a in enumerate(assignment) if a == cid]]
        if members.size == 0:
            continue
        if metric == "euclidean":
            center = members.mean(axis=0)
            total += float(np.sqrt(((members - center) ** 2).sum(axis=1)).sum())
        else:
            center = np.median(members, axis=0)
            diff = np.abs(members - center)
            if metric == "manhattan":
                total += float(diff.sum())
            else:
                total += float((diff**q).sum(axis=1).__pow__(1.0 / q).sum())
    return total


def best_assignment(points: np.ndarray, k: int, metric: str, q: float = 0.5):
    """Exhaustive best clustering of a handful of points; returns (obj, labels)."""
    n = points.shape[0]
    best = None
    for labels in _set_partitions(n, k):
        value = kmeans_objective(points, labels, k, metric, q)
        if best is None or value < best[0] - 1e-12:
            best = (value, labels)
    return best


def _set_partitions(n: int, k: int):
    """All surjective labelings of n items onto k labels, up to relabeling."""
    if k == 2:
        for side1 in iter_bipartitions(n):
            yield [1 if i in side1 else 0 for i in range(n)]
        return
    seen = set()
    for labels in _all_labelings(n, k):
        canon = tuple(_canonical_labels(labels))
        if len(set(canon)) == k and canon not in seen:
            seen.add(canon)
            yield list(canon)


def _all_labelings(n: int, k: int):
    if n == 0:
        yield []
        return
    for rest in _all_labelings(n - 1, k):
        for a in range(k):
            yield rest + [a]


def _canonical_labels(labels):
    remap: dict[int, int] = {}
    out = []
    for a in labels:
        if a not in remap:
            remap[a] = len(remap)
        out.append(remap[a])
    return out


# The former per-edge graph builders, kept as references for the
# array-based ones. Each returns a graph through graph_from_edges.

def scalar_sbm_generate(blocks: int, nodes_per_block: int, p_in: float, p_out: float, seed: int):
    """sbm_generate by one scalar draw per pair, row by row."""
    import spectral_abstraction as sa

    n = blocks * nodes_per_block
    labels = [f"b{i // nodes_per_block}n{i % nodes_per_block}" for i in range(n)]
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if j // nodes_per_block == i // nodes_per_block else p_out
            if rng.random() < p:
                edges.append((i, j, 1.0))
    return sa.graph_from_edges(labels, edges)


def dict_quotient_graph(g, partition):
    """quotient_graph by a dict of running crossing-weight sums."""
    import spectral_abstraction as sa

    accum: dict[tuple[int, int], float] = {}
    for i, j, w in g.edges:
        a, b = partition.assignment[i], partition.assignment[j]
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        accum[key] = accum.get(key, 0.0) + w
    edges = [(a, b, w) for (a, b), w in sorted(accum.items())]
    return sa.graph_from_edges([f"c{c}" for c in range(partition.k)], edges)


def set_induced_subgraph(g, nodes):
    """induced_subgraph by set membership and a dict remap."""
    import spectral_abstraction as sa

    wanted = sorted(set(nodes))
    remap = {old: new for new, old in enumerate(wanted)}
    members = set(wanted)
    kept = [(remap[i], remap[j], w) for i, j, w in g.edges if i in members and j in members]
    return sa.graph_from_edges([g.labels[i] for i in wanted], kept)
