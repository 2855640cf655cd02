"""Predicting functional connectivity from structural connectivity.

The model maps a structural graph to a functional coupling matrix
through a heat-kernel style decay over the Laplacian eigenmodes:

    F = scale * exp(-beta * L) + offset * I
      = scale * sum_k exp(-beta * lambda_k) u_k u_k^T + offset * I

where (lambda_k, u_k) are the eigenpairs of the chosen Laplacian
(symmetric-normalized by default). One matrix exponential covers the
whole network: every functional edge emerges from the same few global
eigenmodes, which is why the model's eigenvectors coincide with the
structural ones and only the eigenvalue profile is reshaped.

Fitting inverts the map from an observed matrix O: a coarse grid over
beta in [0, 10] (step 0.1), closed-form least squares for scale and
offset at each grid point, then golden-section refinement of beta. The
refinement runs far below the contractual 1e-6 interval so that exact
model matrices round-trip to numerical precision.

The search never forms an n x n model. The model is diagonal in the
eigenbasis U, and the Frobenius norm is invariant under rotation, so
with o_k = (U^T O U)_kk and w_k = exp(-beta * lambda_k):

    ||F - O||_F^2 = sum_k (scale * w_k + offset - o_k)^2 + (off-diagonal energy of U^T O U)

The off-diagonal energy is the same at every beta, so the search drops
it and ranks each beta by the per-mode residual alone. Only the
diagonal o is needed, which one product O U gives without a rotated
n x n copy; each beta then costs O(n). The residual is summed mode by
mode rather than expanded into ||F||^2 - 2<F, O> + ||O||^2, which
cancels catastrophically when O is an exact model matrix. The two final
candidates (the grid minimum and the refined beta) are compared on the
same residual, and only the winner is reconstructed densely, once, so
the returned error is a direct Frobenius norm of the returned model.

Model quality between two symmetric matrices is summarized by
spectra_similarity, the Pearson correlation of their ascending
eigenvalue vectors: a deliberately permutation-blind, basis-blind
comparison of global structure.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    InvalidArgumentError,
)
from .graphs import Graph, LaplacianKind, _check_symmetric, _floats, _real
from .spectral import Spectrum, graph_spectrum

_FC_SYMMETRY_TOL = 1e-10
_BETA_GRID_MAX = 10.0
_BETA_GRID_POINTS = 101
_GOLDEN_XTOL = 1e-12


@dataclass(frozen=True)
class FcModel:
    """Parameters of the eigenmode decay model F = scale*exp(-beta*L) + offset*I."""

    beta: float
    scale: float
    offset: float

    def __post_init__(self) -> None:
        for name in ("beta", "scale", "offset"):
            _real(getattr(self, name), name, InvalidArgumentError)
        if not np.isfinite(self.beta) or self.beta < 0:
            raise InvalidArgumentError(f"beta must be finite and nonnegative, got {self.beta}")
        if not (np.isfinite(self.scale) and np.isfinite(self.offset)):
            raise InvalidArgumentError("scale and offset must be finite")


def _check_fc_matrix(m: np.ndarray, n: int | None = None) -> np.ndarray:
    m = _floats(m, "matrix entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise DimensionMismatchError(f"matrix is {m.shape[0]} x {m.shape[0]}, graph has {n} nodes")
    if not np.isfinite(m).all():
        raise InvalidArgumentError("matrix entries must be finite")
    _check_symmetric(m, _FC_SYMMETRY_TOL)
    return m


def _decay_matrix(s: Spectrum, beta: float) -> np.ndarray:
    """U diag(w) U^T with w = exp(-beta * lambda), as X X^T for X = U sqrt(w).

    numpy runs a product with its own transpose as a symmetric rank-k
    update, at half the cost of a general product, and the result is
    exactly symmetric.
    """
    X = s.eigenvectors * np.exp(-0.5 * beta * s.eigenvalues)
    return X @ X.T


def _model_matrix(s: Spectrum, m: FcModel) -> np.ndarray:
    F = _decay_matrix(s, m.beta)
    F *= m.scale
    F[np.diag_indices_from(F)] += m.offset
    return F


def predict_fc(g: Graph, m: FcModel, kind: LaplacianKind = LaplacianKind.NORMALIZED) -> np.ndarray:
    """Model functional connectivity for a structural graph.

    Computed in the eigenbasis (one spectrum, then one symmetric
    product), so the result is exactly symmetric. For scale > 0 and
    offset >= 0 it is positive definite, since every eigenvalue is
    scale * exp(-beta * lambda_k) + offset > 0.
    """
    return _model_matrix(graph_spectrum(g, kind), m)


def _model_eigenvalues(g: Graph, m: FcModel, kind: LaplacianKind) -> np.ndarray:
    """Ascending eigenvalues of predict_fc(g, m, kind), in closed form from the spectrum."""
    s = graph_spectrum(g, kind)
    return np.sort(m.scale * np.exp(-m.beta * s.eigenvalues) + m.offset)


def _mode_fit(s: Spectrum, observed: np.ndarray) -> Callable[[float], tuple[float, float, float]]:
    """The least-squares fit at each beta, mode by mode: (residual, scale, offset).

    The residual is sum_k (scale * w_k + offset - o_k)^2, the squared
    Frobenius error less the off-diagonal energy that no beta changes;
    scale and offset solve its 2 x 2 normal equations.
    """
    U = s.eigenvectors
    o = np.einsum("ij,ij->j", U, observed @ U)
    trace = float(np.trace(observed))
    n = float(s.n)

    def fit(beta: float) -> tuple[float, float, float]:
        w = np.exp(-beta * s.eigenvalues)
        sum_w = float(w.sum())
        gram = np.array([[float(w @ w), sum_w], [sum_w, n]])
        rhs = np.array([float(w @ o), trace])
        (scale, offset), *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        residual = scale * w + offset - o
        return float(residual @ residual), float(scale), float(offset)

    return fit


def fit_fc(
    g: Graph,
    observed: np.ndarray,
    kind: LaplacianKind = LaplacianKind.NORMALIZED,
) -> tuple[FcModel, float]:
    """Fit the decay model to an observed functional matrix.

    Grid search on beta (0 to 10, step 0.1, closed-form scale and
    offset at each point, first minimum wins ties) plus golden-section
    refinement inside the bracketing grid cell. Each beta is scored in
    the Laplacian eigenbasis at O(n) cost, after a diagonal-only
    rotation of the observed matrix (one n x n product). The grid
    minimum and the refined beta are compared on the same score (the
    smaller beta wins a tie), and only the winner is reconstructed
    densely, once, to return its Frobenius-norm error against the
    observed matrix.
    """
    observed = _check_fc_matrix(observed, g.n)
    s = graph_spectrum(g, kind)
    fit_at = _mode_fit(s, observed)

    def error_at(beta: float) -> float:
        return fit_at(beta)[0]

    betas = np.linspace(0.0, _BETA_GRID_MAX, _BETA_GRID_POINTS)
    errors = [error_at(float(b)) for b in betas]
    best = int(np.argmin(errors))

    lo = float(betas[max(0, best - 1)])
    hi = float(betas[min(_BETA_GRID_POINTS - 1, best + 1)])
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = error_at(c)
    fd = error_at(d)
    while b - a > _GOLDEN_XTOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = error_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = error_at(d)
    # ascending candidates: min keeps the first, so a tie goes to the smaller beta
    beta = min(sorted({float(betas[best]), (a + b) / 2.0}), key=error_at)
    _, scale, offset = fit_at(beta)
    model = FcModel(beta=beta, scale=scale, offset=offset)
    F = _model_matrix(s, model)
    F -= observed
    return model, float(np.linalg.norm(F))


def _eigenvalue_correlation(ev_a: np.ndarray, ev_b: np.ndarray) -> float:
    """Pearson correlation of two ascending eigenvalue vectors of one length n >= 3."""
    if ev_a.size < 3:
        raise DimensionMismatchError("spectra comparison needs at least 3 nodes")
    sd_a = float(ev_a.std())
    sd_b = float(ev_b.std())
    if sd_a == 0.0 or sd_b == 0.0:
        raise DegenerateVarianceError("an eigenvalue spectrum with zero variance cannot be correlated")
    r = float(((ev_a - ev_a.mean()) * (ev_b - ev_b.mean())).mean() / (sd_a * sd_b))
    return max(-1.0, min(1.0, r))


def spectra_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation between two matrices' ascending eigenvalues.

    Both matrices must be symmetric and share one shape with n >= 3.
    Raises DegenerateVarianceError when either spectrum is constant, as
    correlation against a flat profile is undefined.
    """
    a = _check_fc_matrix(a)
    b = _check_fc_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"matrix shapes differ: {a.shape} vs {b.shape}")
    return _eigenvalue_correlation(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b))
