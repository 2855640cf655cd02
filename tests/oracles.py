"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written by a different route than the
library code: connectivity by union-find instead of BFS, eigenvalues by
characteristic polynomial instead of a symmetric eigensolver, cut
metrics and the p-Laplacian by direct edge loops instead of vectorized
incidence sums, the matrix exponential by a scaled power series instead
of an eigen-sum, JSON, CSV and DOT text by formatting one float at a
time and joining one whole string instead of in whole-array passes
streamed as chunks, CSV cells by parsing and checking one cell at
a time instead of a row at once, degenerate eigenspace bases by
probe-by-probe Gram-Schmidt instead of one QR, k-means distances over an
n x k x d array and centers cluster by cluster instead of coordinate by
coordinate, edge lists one line at a time instead of in blocks
checked by numpy, the exact symmetry test by one whole-matrix
comparison instead of tile by tile, and the p-descent by recentring
every backtracking trial instead of screening trials by a lower bound,
and the normalized Laplacian by n x n broadcast products over a dense
adjacency instead of one write per edge.
Keeping the routes disjoint is what gives the comparisons their value.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from spectral_abstraction import nonlinear
from spectral_abstraction.graphs import Graph, degrees
from spectral_abstraction.errors import (
    ConvergenceFailureError,
    DuplicateEdgeError,
    InvalidArgumentError,
    KOutOfRangeError,
    NonpositiveWeightError,
    NotSymmetricError,
    ParseError,
    PartitionMismatchError,
    SelfLoopError,
)
from spectral_abstraction.fileio import _csv_rows, _is_header, format_float


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


def dense_normalized_laplacian(g) -> np.ndarray:
    """I - (s[:, None] * A) * s[None, :] for s = d^(-1/2), with isolated nodes' rows and columns zero.

    The dense formula the library used before it wrote each edge once;
    its lower triangle is the library's to the bit. The degrees are the
    library's own, so s agrees to the bit too.
    """
    A = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        A[i, j] = A[j, i] = w
    d = degrees(g)
    connected = d > 0
    s = np.zeros(g.n)
    s[connected] = 1.0 / np.sqrt(d[connected])
    identity = np.diag(connected.astype(np.float64))
    return identity - (s[:, None] * A) * s[None, :]


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

    Kept as the reference for the one-pass sweep. Only thresholds
    between consecutive sorted entries that differ by more than
    1e-10 * max|f| are scored, and a vector with no such gap raises
    ConstantVectorError. Thresholds are scored in order and a later one
    replaces the best only when strictly smaller, so the smallest t wins
    ties.
    """
    import spectral_abstraction as sa
    from spectral_abstraction.errors import ConstantVectorError

    f = np.asarray(f, dtype=np.float64).reshape(-1)
    order = np.argsort(f, kind="stable")
    tol = 1e-10 * float(np.abs(f).max())
    best_value = None
    best_labels = None
    for t in range(1, g.n):
        if not f[order[t]] - f[order[t - 1]] > tol:
            continue
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
    if best_labels is None:
        raise ConstantVectorError("vector has no gap between its entries to cut at")
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


def power_iteration_lambda2(L: np.ndarray, tol: float = 1e-9, max_iterations: int = 10**6) -> float:
    """Second-smallest eigenvalue of a PSD matrix without a symmetric solver.

    Power iteration on (c I - L) restricted to the complement of the
    constant vector, where c bounds the spectrum from above via
    Gershgorin discs. Converges to c - lambda_2 for connected graphs, at
    the rate (c - lambda_3) / (c - lambda_2) per step, so it runs until
    the residual |(c I - L) x - mu x| falls to tol * c rather than for a
    fixed count: a close lambda_3 can need tens of thousands of steps.
    """
    n = L.shape[0]
    c = float(np.max(np.abs(L).sum(axis=1))) + 1.0
    ones = np.ones(n) / np.sqrt(n)
    x = np.cos(np.arange(1, n + 1))
    x = x - (ones @ x) * ones
    x /= np.linalg.norm(x)
    for _ in range(max_iterations):
        y = c * x - L @ x
        y = y - (ones @ y) * ones
        mu = float(x @ y)
        nrm = np.linalg.norm(y)
        if nrm == 0.0 or np.linalg.norm(y - mu * x) <= tol * c:
            break
        x = y / nrm
    return c - float(x @ (c * x - L @ x))


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


def p_laplacian_loop(edges, f: np.ndarray, p: float) -> np.ndarray:
    """Delta_p f by one loop over the edges, each adding to both ends."""
    out = [0.0] * len(f)
    for i, j, w in edges:
        d = float(f[i] - f[j])
        t = w * abs(d) ** (p - 1.0) * (1.0 if d > 0 else -1.0 if d < 0 else 0.0)
        out[i] += t
        out[j] -= t
    return np.array(out)


def bisection_shift(f: np.ndarray, p: float) -> float:
    """The former nonlinear._optimal_shift: 100 bisection steps on the slope."""
    lo, hi = float(f.min()), float(f.max())
    if hi <= lo:
        return lo
    if p == 2.0:
        return float(f.mean())
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        d = mid - f
        slope = float((np.sign(d) * np.abs(d) ** (p - 1.0)).sum())
        if slope < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# The former fit_fc, which scores every beta by a dense n x n
# reconstruction, kept as the reference for the eigenbasis search.

def dense_decay_matrix(s, beta: float) -> np.ndarray:
    """U diag(exp(-beta * lambda)) U^T by a general product, symmetrized after."""
    weights = np.exp(-beta * s.eigenvalues)
    E = (s.eigenvectors * weights) @ s.eigenvectors.T
    return (E + E.T) / 2.0


def _dense_fit_at_beta(s, observed: np.ndarray, beta: float) -> tuple[float, float, float]:
    n = s.n
    E = dense_decay_matrix(s, beta)
    gram = np.array(
        [
            [float((E * E).sum()), float(np.trace(E))],
            [float(np.trace(E)), float(n)],
        ]
    )
    rhs = np.array([float((E * observed).sum()), float(np.trace(observed))])
    coeffs, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    scale, offset = float(coeffs[0]), float(coeffs[1])
    model = scale * E
    model[np.diag_indices(n)] += offset
    error = float(np.linalg.norm(model - observed))
    return error, scale, offset


def dense_fit_fc(g, observed: np.ndarray, kind=None):
    """fit_fc with a dense reconstruction at every grid and golden-section beta."""
    import spectral_abstraction as sa
    from spectral_abstraction.structfunc import _check_fc_matrix

    kind = sa.LaplacianKind.NORMALIZED if kind is None else kind
    grid_max, grid_points, golden_xtol = 10.0, 101, 1e-12
    observed = _check_fc_matrix(observed, g.n)
    s = sa.graph_spectrum(g, kind)

    betas = np.linspace(0.0, grid_max, grid_points)
    errors = [_dense_fit_at_beta(s, observed, float(b))[0] for b in betas]
    best = int(np.argmin(errors))

    lo = float(betas[max(0, best - 1)])
    hi = float(betas[min(grid_points - 1, best + 1)])
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = _dense_fit_at_beta(s, observed, c)[0]
    fd = _dense_fit_at_beta(s, observed, d)[0]
    while b - a > golden_xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _dense_fit_at_beta(s, observed, c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _dense_fit_at_beta(s, observed, d)[0]
    candidates = sorted({float(betas[best]), (a + b) / 2.0})
    evaluated = [(_dense_fit_at_beta(s, observed, beta), beta) for beta in candidates]
    (error, scale, offset), beta = min(evaluated, key=lambda item: (item[0][0], item[1]))
    return sa.FcModel(beta=beta, scale=scale, offset=offset), error


def exact_shift_p_rayleigh(edges, f: np.ndarray, p: float) -> float:
    """R_p(f) by an edge loop, at the minimizing shift found by bisection_shift."""
    c = bisection_shift(f, p)
    num = sum(w * abs(float(f[i] - f[j])) ** p for i, j, w in edges)
    return num / float((np.abs(f - c) ** p).sum())


def elementwise_dumps(value) -> str:
    """fileio.dumps with every float, array elements included, formatted one at a time."""
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


def elementwise_matrix_csv(matrix: np.ndarray, labels=None) -> str:
    """fileio.matrix_csv one cell at a time, with its header rule spelled out.

    The header line is kept when the CSV reader would take it for a
    header naming exactly these labels: it is neither blank nor a #
    comment, no label holds a comma or a line break or is padded with
    whitespace, and some label is not a number.
    """

    def number(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True

    lines = []
    if labels is not None:
        header = ",".join(labels)
        if (
            header.strip()
            and not header.lstrip().startswith("#")
            and all("," not in label and label == label.strip() for label in labels)
            and all("".join(label.splitlines()) == label for label in labels)
            and not all(number(label) for label in labels)
        ):
            lines.append(header)
    for row in np.asarray(matrix):
        lines.append(",".join(format_float(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def joined_scree_csv(s) -> str:
    """fileio.scree_csv as one string, one format_float call per eigenvalue."""
    return "".join(f"{k + 1},{format_float(float(v))}\n" for k, v in enumerate(s.eigenvalues))


def joined_hierarchy_dot(h) -> str:
    """fileio.hierarchy_dot as one string: each level's block joined, then the blocks."""
    blocks = []
    for level in h.levels:
        g = level.quotient
        lines = [f"graph level{level.level_index} {{"]
        lines += [f'  "{label}";' for label in g.labels]
        lines += [f'  "{g.labels[i]}" -- "{g.labels[j]}" [weight={format_float(w)}];' for i, j, w in g.edges]
        blocks.append("\n".join(lines + ["}"]))
    return "\n\n".join(blocks) + "\n"


def cellwise_parse_csv_cells(text: str):
    """fileio._parse_csv_cells as it was before rows were converted at once."""
    rows = _csv_rows(text)
    if not rows:
        raise ParseError("matrix file is empty")
    header = None
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
        for cidx, cell in enumerate(cells):
            try:
                data[r, cidx] = float(cell)
            except ValueError:
                raise ParseError(f"matrix cell ({r + 1}, {cidx + 1}): {cell!r} is not a number") from None
            if not np.isfinite(data[r, cidx]):
                raise ParseError(f"matrix cell ({r + 1}, {cidx + 1}): {cell!r} is not finite")
    if data.shape[0] != data.shape[1]:
        raise ParseError(f"matrix must be square, got {data.shape[0]} x {data.shape[1]}")
    if header is not None and len(header) != data.shape[1]:
        raise ParseError(f"header names {len(header)} columns, matrix has {data.shape[1]}")
    return header, data


# The former spectral canonicalization, kept as references: eigenvalue
# groups and the sign convention by a loop over columns, and degenerate
# eigenspace bases by Gram-Schmidt over a probe sequence.

def loop_degenerate_groups(vals: np.ndarray, tol: float = 1e-10) -> list[tuple[int, int]]:
    """[lo, hi) runs of eigenvalues with no gap above tol * max(1, |lambda_i|)."""
    groups = []
    start = 0
    for i in range(1, vals.shape[0]):
        if vals[i] - vals[i - 1] > tol * max(1.0, abs(vals[i])):
            groups.append((start, i))
            start = i
    groups.append((start, vals.shape[0]))
    return groups


def loop_sign_convention(vecs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Each column negated where its first entry above tol in magnitude is negative."""
    vecs = np.array(vecs)
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        significant = np.nonzero(np.abs(col) > tol)[0]
        if significant.size and col[significant[0]] < 0:
            vecs[:, k] = -col
    return vecs


def probe_gram_schmidt_basis(V: np.ndarray, powers: int = 12, accept: float = 1e-3) -> np.ndarray:
    """Orthonormal basis of span(V) from projected probes, accepted in order.

    The probes are the normalized powers ((i + 1)/n)^t for t = 1..powers,
    then the standard basis vectors. Each projected probe is
    orthogonalized against the accepted ones by two passes of classical
    Gram-Schmidt and accepted when its norm exceeds `accept`; the
    accepted vectors are then projected once more and re-orthonormalized.
    Returns V itself when the probes fail to span it.
    """
    n, d = V.shape
    ramp = np.arange(1, n + 1) / n
    probes = [ramp**t / np.linalg.norm(ramp**t) for t in range(1, powers + 1)]
    probes += list(np.eye(n))
    basis: list[np.ndarray] = []
    for probe in probes:
        cand = V @ (V.T @ probe)
        for _ in range(2):
            for b in basis:
                cand = cand - (b @ cand) * b
        nrm = np.linalg.norm(cand)
        if nrm > accept:
            basis.append(cand / nrm)
            if len(basis) == d:
                break
    else:
        return V
    B = V @ (V.T @ np.column_stack(basis))
    for j in range(d):
        col = B[:, j]
        for _ in range(2):
            for i in range(j):
                col = col - (B[:, i] @ col) * B[:, i]
        B[:, j] = col / np.linalg.norm(col)
    return B


# The former k-means loop, kept as the reference for the coordinate-wise
# distances and the scatter-add centers.

def _ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum along `axis` strictly from first to last; numpy's sum may add pairwise."""
    return np.cumsum(a, axis=axis).take(-1, axis=axis)


def loop_pairwise_distances(P: np.ndarray, C: np.ndarray, metric: str, q: float) -> np.ndarray:
    """n x k distances by one reduction over an n x k x d array of differences."""
    D = np.abs(P[:, None, :] - C[None, :, :])
    if metric == "euclidean":
        return np.sqrt(_ordered_sum(D * D, -1))
    if metric == "manhattan":
        return _ordered_sum(D, -1)
    return _ordered_sum(D**q, -1) ** (1.0 / q)


def loop_centers(pts: np.ndarray, assign: np.ndarray, k: int, metric: str) -> np.ndarray:
    """Each cluster's mean or coordinate-wise median, cluster by cluster."""
    centers = np.empty((k, pts.shape[1]))
    for cid in range(k):
        members = pts[assign == cid]
        if metric == "euclidean":
            centers[cid] = _ordered_sum(members, 0) / members.shape[0]
        else:
            centers[cid] = np.median(members, axis=0)
    return centers


def loop_lloyd(pts: np.ndarray, k: int, metric: str, q: float, centers: np.ndarray):
    """Lloyd iterations; the objective is recomputed from the final centers."""
    assign = None
    for _ in range(300):
        D = loop_pairwise_distances(pts, centers, metric, q)
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
        centers = loop_centers(pts, assign, k, metric)
    D = loop_pairwise_distances(pts, centers, metric, q)
    return assign, float(D[np.arange(pts.shape[0]), assign].sum())


def loop_kway_embedding_cluster(pts: np.ndarray, k: int, metric: str = "euclidean",
                                q: float = 0.5, seed: int = 0) -> tuple[int, ...]:
    """kway_embedding_cluster's assignment: 20 seeded k-means++ restarts of loop_lloyd."""
    n = pts.shape[0]
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(20):
        first = int(rng.integers(n))
        centers = [pts[first].copy()]
        dmin = loop_pairwise_distances(pts, pts[first][None, :], metric, q)[:, 0]
        for _ in range(k - 1):
            weights = dmin**2
            idx = int(rng.choice(n, p=weights / weights.sum()))
            centers.append(pts[idx].copy())
            dmin = np.minimum(dmin, loop_pairwise_distances(pts, pts[idx][None, :], metric, q)[:, 0])
        assign, objective = loop_lloyd(pts, k, metric, q, np.vstack(centers))
        if best is None or objective < best[0]:
            best = (objective, assign)
    return tuple(_canonical_labels(best[1].tolist()))


def loop_parse_edge_list_tsv(text: str):
    """fileio.parse_edge_list_tsv as it was: every line checked and indexed in one Python loop."""
    labels: list[str] = []
    index: dict[str, int] = {}
    ei: list[int] = []
    ej: list[int] = []
    ws: list[float] = []
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
        ei.append(pair[0])
        ej.append(pair[1])
        ws.append(weight)
    if not labels:
        raise ParseError("edge list contains no edges")
    order = np.lexsort((ej, ei))
    return Graph(tuple(labels), np.array(ei, np.int64)[order], np.array(ej, np.int64)[order], np.array(ws)[order])


# The former per-entry and per-column checks and the former cut and split
# bookkeeping, kept as references for their whole-array replacements.

def array_equal_check_symmetric(M: np.ndarray, tol: float = 1e-12, error=NotSymmetricError) -> None:
    """graphs._check_symmetric as it was: the exact test is one np.array_equal(M, M.T)."""
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise error(f"expected a square matrix, got shape {M.shape}")
    if np.array_equal(M, M.T) and np.isfinite(M).all():  # M - M.T is all zeros
        return
    with np.errstate(invalid="ignore"):  # inf - inf is nan, which fails the test below
        d = M - M.T
    asym = np.abs(d, out=d).max() if M.size else 0.0
    if not asym <= tol:
        raise error(f"matrix asymmetry {asym:.2e} exceeds {tol}")


def loop_validate_spectrum(M: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    """spectral._validate_spectrum with one np.linalg.norm per residual column."""
    if vals.size and not vals[0] >= -1e-10:
        raise ConvergenceFailureError(
            f"spectrum violates positive semidefiniteness: lambda_1 = {vals[0]}"
        )
    gram = vecs.T @ vecs
    gram_err = np.abs(gram - np.eye(vals.shape[0])).max() if vals.size else 0.0
    if not gram_err < 1e-9:
        raise ConvergenceFailureError(f"eigenvectors lost orthonormality ({gram_err:.2e})")
    residual = M @ vecs - vecs * vals
    for k in range(vals.shape[0]):
        bound = 1e-8 * max(1.0, abs(vals[k]))
        err = np.linalg.norm(residual[:, k])
        if not err < bound:
            raise ConvergenceFailureError(
                f"residual for eigenpair {k} is {err:.2e}, bound {bound:.2e}"
            )


def loop_partition_check(assignment: tuple, k) -> None:
    """Partition.__post_init__'s checks, one entry at a time."""
    if not isinstance(k, (int, float, np.integer, np.floating)):
        raise InvalidArgumentError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise KOutOfRangeError(f"k must be at least 1, got {k}")
    if not assignment:
        raise PartitionMismatchError("assignment must cover at least one node")
    if not all(isinstance(a, (int, np.integer)) and not isinstance(a, bool) and 0 <= a < k for a in assignment):
        raise PartitionMismatchError("assignment ids must be integers in 0..k-1")
    # a float k that passed the range checks is still no cluster count
    if not isinstance(k, (int, np.integer)):
        raise InvalidArgumentError(f"k must be an integer, got {k!r}")
    if set(int(a) for a in assignment) != set(range(k)):
        raise PartitionMismatchError(f"every cluster id in 0..{k - 1} must occur at least once")


def add_at_cut_metrics(g, assign: np.ndarray, k: int):
    """partition._cut_metrics by np.add.at scatters and one np.delete per cluster."""
    import spectral_abstraction as sa

    crossing = assign[g.ei] != assign[g.ej]
    cut = np.zeros(k)
    np.add.at(cut, assign[g.ei[crossing]], g.w[crossing])
    np.add.at(cut, assign[g.ej[crossing]], g.w[crossing])
    vol = np.bincount(assign, weights=sa.degrees(g), minlength=k)
    size = np.bincount(assign, minlength=k).astype(np.float64)
    total_cut = float(cut.sum()) / 2.0
    complement = [float(np.delete(vol, a).sum()) for a in range(k)]

    def safe(num: float, den: float) -> float:
        return 0.0 if num == 0.0 else num / den

    ratio = float(sum(safe(c, s) for c, s in zip(cut, size)))
    normalized = float(sum(safe(c, v) for c, v in zip(cut, vol)))
    cheeger = float(
        max((safe(c, min(v, r)) for c, v, r in zip(cut, vol, complement)), default=0.0)
    )
    return sa.CutMetrics(
        cut_weight=total_cut, ratio_cut=ratio, normalized_cut=normalized, cheeger=cheeger
    )


def set_split_once(nodes: list[int], lam2: float, sub, s, split_fn) -> tuple[list[int], list[int]]:
    """partition._split_once by sets of local node indices."""
    import spectral_abstraction as sa

    if lam2 <= 1e-9:
        side_local = set(sa.connected_components(sub)[0])
    else:
        part = split_fn(sub, s)
        side_local = {i for i, a in enumerate(part.assignment) if a == 0}
    left = sorted(nodes[i] for i in side_local)
    right = sorted(nodes[i] for i in range(len(nodes)) if i not in side_local)
    return left, right


def add_at_connectivity_profile(g, p):
    """partition.connectivity_profile by np.add.at scatters."""
    import spectral_abstraction as sa

    assign = p.assignment
    internal = np.zeros(p.k)
    external = np.zeros(p.k)
    same = assign[g.ei] == assign[g.ej]
    np.add.at(internal, assign[g.ei[same]], g.w[same])
    np.add.at(external, assign[g.ei[~same]], g.w[~same])
    np.add.at(external, assign[g.ej[~same]], g.w[~same])
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
            sa.ClusterProfile(
                internal_weight=float(internal[c]),
                external_weight=float(external[c]),
                internal_density=float(density),
                separation=float(separation),
            )
        )
    return sa.ConnectivityProfile(clusters=tuple(records))


# The p-descent as it was before trials were screened by a shift-free
# lower bound: every backtracking trial is recentred and evaluated.

def mean_norm_recentre(f: np.ndarray, p: float) -> np.ndarray:
    """nonlinear._recentre with f.mean() and np.linalg.norm."""
    g = f - f.mean()
    g -= nonlinear._optimal_shift(g, p)
    nrm = float(np.linalg.norm(g))
    if nrm == 0.0:
        raise ConvergenceFailureError("iterate collapsed to a constant vector")
    return g / nrm


def recentring_descend(ei, ej, w, f: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """nonlinear._descend recentring every trial: (last iterate, its R_p)."""
    f = mean_norm_recentre(f, p)
    value, den = nonlinear._p_rayleigh(ei, ej, w, f, p)
    step = 1.0
    for _ in range(nonlinear._MAX_ITERATIONS):
        grad_den = np.abs(f) ** (p - 1.0) * np.sign(f)
        grad = p * (nonlinear._p_laplacian_edges(ei, ej, w, f, p) - value * grad_den) / den
        gnorm2 = float(grad @ grad)
        if gnorm2 <= 1e-24:
            break
        t = step
        accepted = False
        for _ in range(nonlinear._BACKTRACK_LIMIT):
            trial = mean_norm_recentre(f - t * grad, p)
            trial_value, trial_den = nonlinear._p_rayleigh(ei, ej, w, trial, p)
            if trial_value <= value - nonlinear._ARMIJO_SLOPE * t * gnorm2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        decrease = value - trial_value
        f, value, den = trial, trial_value, trial_den
        step = 2.0 * t
        if decrease <= nonlinear._INNER_TOLERANCE * max(abs(value), 1e-300):
            break
    return f, value
