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
vector, lower p geometrically in six stages (one at p = 2, where there
is no path to follow), and descend R_p at each stage with a
backtracking gradient method. The descent tolerances are fixed: a
stage stops once R_p falls by a relative 1e-9 or less in a step, or
after 400 steps. The final vector is thresholded at the split (over
all n - 1 sorted-entry cuts) that minimizes the selected cut
criterion.

Only 1 < p <= 2 is supported. The functional is scale and shift
invariant, so iterates are recentred (at the minimizing shift c*) and
renormalized freely, and R_p is then taken with shift 0; edge weights
are rescaled by their mean so the optimization, and hence the returned
partition, ignores global weight scale.

Solving for c* is the costly part of a backtracking trial, and most
trials fail. Since no shift beats c*, R_p at shift 0 is a lower bound
on R_p that needs no shift. A trial whose bound, less a bound on the
rounding of both evaluations (derived at _rayleigh_floor), already
fails the Armijo test would fail it after recentring too, so it is
halved without a shift solve. Every other trial is recentred and tested
as before, so the iterates, and hence the partitions, are exactly those
of recentring every trial.

The module also hosts the coupling-structure extractor: given a
Jacobian-style coupling matrix and a linearity mask, it builds the
unit-weight interaction graph over state variables and reports the
largest connected component as the subsystem worth analyzing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    DisconnectedGraphError,
    ExponentOutOfRangeError,
    InvalidArgumentError,
)
from .graphs import (
    Graph, LaplacianKind, _choice, _floats, _node_vector, _real, connected_components
)
from .partition import (
    _EPS,
    SELECTIONS as _SELECTIONS,
    Partition,
    _recursive_split,
    threshold_partition,
)
from .spectral import Spectrum, fiedler_vector, graph_spectrum

_SHIFT_RTOL = 1e-15
_SHIFT_MAX_STEPS = 64
_ARMIJO_SLOPE = 1e-4
_BACKTRACK_LIMIT = 60
_CONTINUATION_STEPS = 6
_INNER_TOLERANCE = 1e-9
_MAX_ITERATIONS = 400


@dataclass(frozen=True)
class PLaplacianParams:
    """Settings for p-spectral partitioning: the target exponent p.

    Six geometric stages take the exponent from 2 down to p; at p = 2
    every stage would have exponent 2, so one stage runs. Each stage
    descends until the relative objective decrease falls to 1e-9, or
    for at most 400 iterations.
    """

    p: float

    def __post_init__(self) -> None:
        if not (isinstance(self.p, Real) and 1.0 < self.p <= 2.0):
            raise ExponentOutOfRangeError(f"p must lie in (1, 2], got {self.p}")


def _p_of(params, name: str = "params") -> float:
    """The exponent of a PLaplacianParams; InvalidArgumentError naming the argument for anything else."""
    if not isinstance(params, PLaplacianParams):
        raise InvalidArgumentError(f"{name} must be a PLaplacianParams, got {params!r}")
    return params.p


@dataclass(frozen=True, eq=False)
class CouplingSystem:
    """Pairwise coupling strengths plus a mask of structurally present terms."""

    couplings: np.ndarray
    linear_mask: np.ndarray

    def __post_init__(self) -> None:
        c = _floats(self.couplings, "couplings")
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
    """Apply the graph p-Laplacian to a finite vector; equals L @ f at p = 2."""
    p = PLaplacianParams(p).p
    f = _node_vector(f, g.n, DimensionMismatchError)
    return _p_laplacian_edges(g.ei, g.ej, g.w, f, p)


def _p_laplacian_edges(ei, ej, w, f: np.ndarray, p: float) -> np.ndarray:
    """Edge-sum form of Delta_p f over the edge arrays of a graph."""
    d = f[ei] - f[ej]
    t = w * np.abs(d) ** (p - 1.0) * np.sign(d)
    n = f.shape[0]
    return np.bincount(ei, t, n) - np.bincount(ej, t, n)


def _optimal_shift(f: np.ndarray, p: float) -> float:
    """The c minimizing sum_i |f_i - c|^p; unique since p > 1.

    The minimizer is the root of the increasing slope
    s(c) = sum_i (c - f_i) |c - f_i|^(p-2) in [min f, max f], whose
    derivative is (p - 1) sum_i |c - f_i|^(p-2). Newton from 0 keeps the
    root bracketed and bisects instead where its point leaves the
    bracket, where c is an entry of f (infinite derivative), and where
    its step exceeds half the last one (Numerical Recipes' rtsafe test,
    against the last step rather than the one before, so that Newton
    neither cycles nor trails bisection near an entry of f). A Newton
    step within the bracket tolerance goes half a tolerance further, so
    the bracket closes on it, or else the next step bisects. So the
    result is always within the bracket tolerance of a sign change of
    the slope, also where the slope is nearly flat (p close to 1) or
    steep (near an entry of f).
    """
    lo, hi = float(f.min()), float(f.max())
    if hi <= lo:
        return lo
    if p == 2.0:
        return float(f.mean())

    def slope(c: float) -> tuple[float, float]:
        d = c - f
        r = np.abs(d) ** (p - 2.0)
        ds = (p - 1.0) * float(r.sum())
        if math.isinf(ds):
            # c is on an entry of f, where d @ r would take 0 * inf
            return float((np.sign(d) * np.abs(d) ** (p - 1.0)).sum()), ds
        return float(d @ r), ds

    xtol = _SHIFT_RTOL * max(abs(lo), abs(hi))
    c = min(max(0.0, lo), hi)
    step = hi - lo
    probed = False
    # 0 ** (p - 2) is inf where c is on an entry of f; slope handles it
    with np.errstate(divide="ignore"):
        for _ in range(_SHIFT_MAX_STEPS):
            s, ds = slope(c)
            if s == 0.0:
                return c
            if s < 0.0:
                lo = c
            else:
                hi = c
            if hi - lo <= xtol:
                break
            newton = -s / ds
            probe = abs(newton) <= xtol
            if probe:
                newton += math.copysign(0.5 * xtol, newton)
            if not probed and math.isfinite(ds) and lo < c + newton < hi and abs(newton) <= 0.5 * abs(step):
                step, probed = newton, probe
                c += newton
            else:
                step, probed = 0.5 * (hi - lo), False
                c = lo + step
    return c


def _p_rayleigh(ei, ej, w, f: np.ndarray, p: float) -> tuple[float, float]:
    """R_p(f) at shift 0, and its denominator, for f from _recentre."""
    num = float((w * np.abs(f[ei] - f[ej]) ** p).sum())
    den = float((np.abs(f) ** p).sum())
    return num / den, den


def _recentre(f: np.ndarray, p: float) -> np.ndarray:
    # mean first: f - c* is off by up to half an ulp of c*, large for a large common offset
    g = f - f.sum() / f.size
    g -= _optimal_shift(g, p)
    nrm = math.sqrt(float(g @ g))
    if nrm == 0.0:
        raise ConvergenceFailureError("iterate collapsed to a constant vector")
    return g / nrm


def _rayleigh_floor(ei, ej, w, x: np.ndarray, p: float, w_sum: float) -> float:
    """A lower bound on _p_rayleigh(ei, ej, w, _recentre(x, p), p)[0]
    that needs no shift solve; -inf for a constant x.

    No shift c makes sum_i |x_i - c|^p smaller than the minimizing one,
    so lb = sum w_ij |x_i - x_j|^p / sum_i |x_i|^p, R_p at shift 0, is
    at most R_p(x). The floor takes from lb a bound on the rounding
    between lb as computed here and the value computed on the recentred
    vector g. With e the machine epsilon, n nodes, m edges, W = w_sum,
    and lengths in units of |g|, so that |g_i| <= 1 and
    sum |g_i|^p >= sum g_i^2 = 1:

    * Subtracting the mean, then the shift, then scaling each round an
      entry by half an ulp of a number at most 2 in magnitude (the
      shift lies between the least and the largest entry): at most 4e
      per entry and 12e per edge difference. As
      ||a|^p - |b|^p| <= p max(|a|, |b|)^(p-1) |a - b| and differences
      are at most 2, the numerator moves by at most 50eW and the
      denominator by a relative 9ne.
    * The shift solve closes its bracket, about a sign change of a slope
      summed from n terms, to 1e-15 (4.5e) times the largest |entry|.
      Its denominator then exceeds the minimum by a relative 18ne, plus
      terms second order in e (for p - 1 well above ne). The minimum is
      at most the denominator at the shift that undoes the mean, which
      rounding moves from sum_i |x_i|^p by a relative 2ne.
    * Each quotient sums m and n nonnegative terms, each rounded to a
      relative 3e (difference, power, weight): a relative (m + n + 9)e
      between the two quotients.

    Rounding each constant up, the floor is
    lb (1 - (m + 64n + 16) e) - 64 e W, away from underflow.
    """
    num = float((w * np.abs(x[ei] - x[ej]) ** p).sum())
    den = float((np.abs(x) ** p).sum())
    if not (num > 0.0 and den > 0.0):
        return -math.inf
    lb = num / den
    return lb - (lb * (w.size + 64 * x.size + 16) + 64.0 * w_sum) * _EPS


def _descend(ei, ej, w, f: np.ndarray, p: float) -> tuple[np.ndarray, float, str]:
    """Backtracking gradient descent on R_p from f. Never increases R_p.

    Iterates come out of _recentre, so R_p is taken with shift 0.
    Returns the last iterate, its R_p, and why descent stopped:
    "tolerance" (a step lowered R_p by a relative _INNER_TOLERANCE or
    less), "zero gradient", "backtrack failure" (no step in
    _BACKTRACK_LIMIT halvings passed the Armijo test) or "iteration cap".

    A trial f - t grad whose _rayleigh_floor already fails the Armijo
    test is halved without its shift solve. The floor is below the value
    the recentred trial would get, by more than any rounding, so that
    trial would have failed too: every other trial is recentred and
    tested as before, and the iterates, steps and result are those of
    recentring every trial.
    """
    f = _recentre(f, p)
    value, den = _p_rayleigh(ei, ej, w, f, p)
    w_sum = float(w.sum())
    step = 1.0
    for _ in range(_MAX_ITERATIONS):
        grad_den = np.abs(f) ** (p - 1.0) * np.sign(f)
        grad = p * (_p_laplacian_edges(ei, ej, w, f, p) - value * grad_den) / den
        gnorm2 = float(grad @ grad)
        if gnorm2 <= 1e-24:
            return f, value, "zero gradient"
        t = step
        for _ in range(_BACKTRACK_LIMIT):
            x = f - t * grad
            bar = value - _ARMIJO_SLOPE * t * gnorm2
            # not >, so that a NaN floor (from overflow) takes the exact path
            if not _rayleigh_floor(ei, ej, w, x, p, w_sum) > bar:
                trial = _recentre(x, p)
                trial_value, trial_den = _p_rayleigh(ei, ej, w, trial, p)
                if trial_value <= bar:
                    break
            t *= 0.5
        else:
            return f, value, "backtrack failure"
        decrease = value - trial_value
        f, value, den = trial, trial_value, trial_den
        step = 2.0 * t
        if decrease <= _INNER_TOLERANCE * max(abs(value), 1e-300):
            return f, value, "tolerance"
    return f, value, "iteration cap"


def _mean_weight_rescaled(g: Graph) -> Graph:
    """g with mean edge weight 1, so lambda_2 tests see no weight scale; g itself if it has no edges."""
    return Graph(g.labels, g.ei, g.ej, g.w / (g.total_weight / g.n_edges)) if g.n_edges else g


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
    p = _p_of(params)
    _choice(selection, "selection", _SELECTIONS)
    if g.n < 2:
        raise DimensionMismatchError("need at least two nodes to bipartition")
    if len(connected_components(g)) > 1:
        raise DisconnectedGraphError("p-spectral bipartition requires a connected graph")
    gs = _mean_weight_rescaled(g)
    s = graph_spectrum(gs, LaplacianKind.COMBINATORIAL, count=2)
    fiedler_vector(s)  # DisconnectedGraphError unless lambda_2 > CONNECTIVITY_TOL
    return _p_split(gs, s, p, selection)


def _p_split(gs: Graph, s: Spectrum, p: float, selection: str) -> Partition:
    """Continuation from the Fiedler vector of s (of gs or a multiple), then the sweep."""
    ei, ej, w = gs.ei, gs.ej, gs.w
    f = fiedler = s.eigenvectors[:, 1]
    steps = 1 if p == 2.0 else _CONTINUATION_STEPS
    for t in range(1, steps + 1):
        # the last stage runs at exactly p, so final_value is R_p(f)
        f, final_value, _ = _descend(ei, ej, w, f, 2.0 * (p / 2.0) ** (t / steps))

    # the continuation path must not end worse than a direct descent start
    fiedler_value, _ = _p_rayleigh(ei, ej, w, _recentre(fiedler, p), p)
    if fiedler_value < final_value:
        alt, alt_value, _ = _descend(ei, ej, w, fiedler, p)
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
    cluster first, components pre-split, singletons untouched, one
    spectrum per cluster) with p_spectral_bipartition's descent as the splitter.
    Like p_spectral_bipartition, it tests lambda_2 at mean edge weight 1.
    """
    p = _p_of(params)

    def p_split(sub: Graph, s: Spectrum) -> Partition:
        return _p_split(_mean_weight_rescaled(sub), s, p, "cheeger")

    return _recursive_split(_mean_weight_rescaled(g), k, p_split)


def jacobian_graph(sys: CouplingSystem, threshold: float) -> tuple[Graph, tuple[int, ...]]:
    """Interaction graph of a coupled system, plus its largest component.

    State variables i and j (labeled x0, x1, ...) are joined by a
    unit-weight edge when either coupling direction is structurally
    present in the mask and the larger coupling magnitude exceeds the
    threshold. Components tie-break toward the smaller minimum index.
    """
    if not (math.isfinite(_real(threshold, "threshold", InvalidArgumentError)) and threshold >= 0):
        raise InvalidArgumentError(f"threshold must be finite and nonnegative, got {threshold}")
    c = np.abs(sys.couplings)
    strength = np.maximum(c, c.T)
    present = sys.linear_mask | sys.linear_mask.T
    ei, ej = np.nonzero(np.triu(present & (strength > threshold), k=1))
    g = Graph(tuple([f"x{i}" for i in range(sys.n)]), ei, ej, np.ones(ei.size))
    components = connected_components(g)
    largest = max(components, key=len)
    return g, tuple(largest)
