"""Graph p-Laplacian operators and p-spectral partitioning.

The p-Laplacian generalizes L = D - A through the nonlinear operator

    (Delta_p f)_i = sum_j w_ij |f_i - f_j|^(p-1) sign(f_i - f_j)

which reduces to L f at p = 2. Partitioning minimizes the p-Rayleigh
functional

    R_p(f) = sum_{(i,j) in E} w_ij |f_i - f_j|^p / min_c sum_i |f_i - c|^p

over nonconstant f. As p decreases toward 1, minimizers approach
indicator-like step functions whose thresholded cuts track the optimal
Cheeger cut more closely than the p = 2 relaxation does, so the
minimizer is tracked by continuation: start at the p = 2 Fiedler
vector, lower p geometrically, and descend R_p at each stage with a
backtracking gradient method. The final vector is thresholded at the
split (over all n - 1 sorted-entry cuts) that minimizes the selected
cut criterion.

Only 1 < p <= 2 is supported. The functional is scale and shift
invariant, so iterates are recentred (at the minimizing shift c*) and
renormalized freely; edge weights are rescaled by their mean so the
optimization, and hence the returned partition, ignores global weight
scale.

The module also hosts the coupling-structure extractor: given a
Jacobian-style coupling matrix and a linearity mask, it builds the
unit-weight interaction graph over state variables and reports the
largest connected component as the subsystem worth analyzing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    DisconnectedGraphError,
    ExponentOutOfRangeError,
    InvalidArgumentError,
)
from .graphs import Graph, LaplacianKind, _graph, connected_components, edge_arrays
from .partition import (
    SELECTIONS as _SELECTIONS,
    Partition,
    _recursive_split,
    threshold_partition,
)
from .spectral import CONNECTIVITY_TOL, Spectrum, graph_spectrum

_SHIFT_BISECTIONS = 100
_ARMIJO_SLOPE = 1e-4
_BACKTRACK_LIMIT = 60


@dataclass(frozen=True)
class PLaplacianParams:
    """Settings for p-spectral partitioning.

    continuation_steps geometric stages take the exponent from 2 down
    to p; inner_tolerance is the relative objective decrease that stops
    the descent at each stage.
    """

    p: float
    continuation_steps: int = 6
    inner_tolerance: float = 1e-9
    max_iterations: int = 400

    def __post_init__(self) -> None:
        if not 1.0 < self.p <= 2.0:
            raise ExponentOutOfRangeError(f"p must lie in (1, 2], got {self.p}")
        if self.continuation_steps < 1:
            raise InvalidArgumentError("continuation_steps must be at least 1")
        if self.inner_tolerance <= 0:
            raise InvalidArgumentError("inner_tolerance must be positive")
        if self.max_iterations < 1:
            raise InvalidArgumentError("max_iterations must be at least 1")


@dataclass(frozen=True, eq=False)
class CouplingSystem:
    """Pairwise coupling strengths plus a mask of structurally present terms."""

    couplings: np.ndarray
    linear_mask: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.couplings, dtype=np.float64)
        m = np.asarray(self.linear_mask, dtype=bool)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DimensionMismatchError(f"couplings must be square, got shape {c.shape}")
        if m.shape != c.shape:
            raise DimensionMismatchError(
                f"mask shape {m.shape} does not match couplings shape {c.shape}"
            )
        if not np.isfinite(c).all():
            raise InvalidArgumentError("couplings must be finite")
        object.__setattr__(self, "couplings", c)
        object.__setattr__(self, "linear_mask", m)
        self.couplings.flags.writeable = False
        self.linear_mask.flags.writeable = False

    @property
    def n(self) -> int:
        return self.couplings.shape[0]


def p_laplacian_apply(g: Graph, f: np.ndarray, p: float) -> np.ndarray:
    """Apply the graph p-Laplacian to a vector; equals L @ f at p = 2."""
    if not 1.0 < p <= 2.0:
        raise ExponentOutOfRangeError(f"p must lie in (1, 2], got {p}")
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    if f.shape[0] != g.n:
        raise DimensionMismatchError(f"vector has length {f.shape[0]}, graph has {g.n} nodes")
    return _p_laplacian_edges(*edge_arrays(g), f, p)


def _p_laplacian_edges(ei, ej, w, f: np.ndarray, p: float) -> np.ndarray:
    """Edge-sum form of Delta_p f over the edge arrays of a graph."""
    d = f[ei] - f[ej]
    t = w * np.abs(d) ** (p - 1.0) * np.sign(d)
    out = np.zeros_like(f)
    np.add.at(out, ei, t)
    np.add.at(out, ej, -t)
    return out


def _optimal_shift(f: np.ndarray, p: float) -> float:
    """The c minimizing sum_i |f_i - c|^p; unique since p > 1."""
    lo, hi = float(f.min()), float(f.max())
    if hi <= lo:
        return lo
    if p == 2.0:
        return float(f.mean())
    for _ in range(_SHIFT_BISECTIONS):
        mid = 0.5 * (lo + hi)
        d = mid - f
        slope = float((np.sign(d) * np.abs(d) ** (p - 1.0)).sum())
        if slope < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _p_rayleigh(ei, ej, w, f: np.ndarray, p: float) -> tuple[float, float]:
    c = _optimal_shift(f, p)
    num = float((w * np.abs(f[ei] - f[ej]) ** p).sum())
    den = float((np.abs(f - c) ** p).sum())
    if den == 0.0:
        return float("inf"), c
    return num / den, c


def _p_rayleigh_gradient(ei, ej, w, f: np.ndarray, p: float, value: float, c: float) -> np.ndarray:
    grad_num = _p_laplacian_edges(ei, ej, w, f, p)
    fc = f - c
    grad_den = np.abs(fc) ** (p - 1.0) * np.sign(fc)
    den = float((np.abs(fc) ** p).sum())
    return p * (grad_num - value * grad_den) / den


def _recentre(f: np.ndarray, p: float) -> np.ndarray:
    g = f - _optimal_shift(f, p)
    nrm = float(np.linalg.norm(g))
    if nrm == 0.0:
        raise ConvergenceFailureError("iterate collapsed to a constant vector")
    return g / nrm


def _descend(ei, ej, w, f: np.ndarray, p: float, tol: float, max_iter: int) -> tuple[np.ndarray, float]:
    """Backtracking gradient descent on R_p from f. Never increases R_p."""
    f = _recentre(f, p)
    value, c = _p_rayleigh(ei, ej, w, f, p)
    step = 1.0
    for _ in range(max_iter):
        grad = _p_rayleigh_gradient(ei, ej, w, f, p, value, c)
        gnorm2 = float(grad @ grad)
        if gnorm2 <= 1e-24:
            break
        t = step
        accepted = False
        for _ in range(_BACKTRACK_LIMIT):
            trial = _recentre(f - t * grad, p)
            trial_value, trial_c = _p_rayleigh(ei, ej, w, trial, p)
            if trial_value <= value - _ARMIJO_SLOPE * t * gnorm2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        decrease = value - trial_value
        f, value, c = trial, trial_value, trial_c
        step = 2.0 * t
        if decrease <= tol * max(abs(value), 1e-300):
            break
    return f, value


def _mean_weight_rescaled(g: Graph) -> Graph:
    return _graph(g.labels, g.ei, g.ej, g.w / (g.total_weight / g.n_edges))


def p_spectral_bipartition(
    g: Graph,
    params: PLaplacianParams,
    selection: str = "cheeger",
) -> Partition:
    """Two-way p-spectral cut of a connected graph.

    Minimizes R_p by continuation from the p = 2 Fiedler vector, then
    thresholds the minimizer at the sorted-entry split with the best
    cut value under `selection` (cheeger, ratio or normalized). The
    whole pipeline is deterministic.
    """
    if selection not in _SELECTIONS:
        raise InvalidArgumentError(f"selection must be one of {_SELECTIONS}, got {selection!r}")
    if g.n < 2:
        raise DimensionMismatchError("need at least two nodes to bipartition")
    if len(connected_components(g)) > 1:
        raise DisconnectedGraphError("p-spectral bipartition requires a connected graph")
    gs = _mean_weight_rescaled(g)
    s = graph_spectrum(gs, LaplacianKind.COMBINATORIAL, count=2)
    if s.eigenvalues[1] <= CONNECTIVITY_TOL:
        raise DisconnectedGraphError("graph is disconnected (lambda_2 is numerically zero)")
    ei, ej, w = edge_arrays(gs)
    fiedler = np.array(s.eigenvectors[:, 1])

    f = fiedler
    steps = params.continuation_steps
    for t in range(1, steps + 1):
        p_t = 2.0 * (params.p / 2.0) ** (t / steps)
        before, _ = _p_rayleigh(ei, ej, w, _recentre(f, p_t), p_t)
        f, after = _descend(ei, ej, w, f, p_t, params.inner_tolerance, params.max_iterations)
        if after > before + 1e-12 * max(1.0, before):
            raise ConvergenceFailureError(
                f"objective rose from {before} to {after} at continuation exponent {p_t}"
            )

    # the continuation path must not end worse than a direct descent start
    final_value, _ = _p_rayleigh(ei, ej, w, _recentre(f, params.p), params.p)
    fiedler_value, _ = _p_rayleigh(ei, ej, w, _recentre(fiedler, params.p), params.p)
    if fiedler_value < final_value:
        alt, alt_value = _descend(
            ei, ej, w, fiedler, params.p, params.inner_tolerance, params.max_iterations
        )
        if alt_value < final_value:
            f = alt
    return threshold_partition(gs, f, selection)


def p_recursive_bipartition(
    g: Graph,
    k: int,
    params: PLaplacianParams,
) -> Partition:
    """Recursive p-spectral partitioning into exactly k clusters.

    Shares the recursion policy of recursive_bipartition (weakest
    cluster first, components pre-split, singletons untouched) with
    p_spectral_bipartition as the splitter.
    """

    def p_split(sub: Graph, _spectrum: Spectrum) -> Partition:
        # the p = 2 start comes from the mean-weight rescaled graph instead
        return p_spectral_bipartition(sub, params)

    return _recursive_split(g, k, p_split)


def jacobian_graph(sys: CouplingSystem, threshold: float) -> tuple[Graph, tuple[int, ...]]:
    """Interaction graph of a coupled system, plus its largest component.

    State variables i and j (labeled x0, x1, ...) are joined by a
    unit-weight edge when either coupling direction is structurally
    present in the mask and the larger coupling magnitude exceeds the
    threshold. Components tie-break toward the smaller minimum index.
    """
    if threshold < 0:
        raise InvalidArgumentError(f"threshold must be nonnegative, got {threshold}")
    if sys.n == 0:
        raise InvalidArgumentError("a graph needs at least one node")
    c = np.abs(sys.couplings)
    strength = np.maximum(c, c.T)
    present = sys.linear_mask | sys.linear_mask.T
    n = sys.n
    ei, ej = np.nonzero(np.triu(present & (strength > threshold), k=1))
    g = _graph([f"x{i}" for i in range(n)], ei, ej, np.ones(ei.size))
    components = connected_components(g)
    largest = max(components, key=len)
    return g, tuple(largest)
