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
with O~ = U^T O U, o_k = O~_kk and w_k = exp(-beta * lambda_k):

    ||F - O||_F^2 = sum_k (scale * w_k + offset - o_k)^2 + sum_{k != l} O~_kl^2

O~ is formed once per fit, after which each beta costs O(n). The
residual is summed mode by mode rather than expanded into
||F||^2 - 2<F, O> + ||O||^2, which cancels catastrophically when O is
an exact model matrix. The two final candidates (the grid minimum and
the refined beta) are scored by a dense reconstruction, so the
returned error is a direct Frobenius norm of the returned model.

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
from .graphs import Graph, LaplacianKind
from .spectral import Spectrum, _check_symmetric, graph_spectrum

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
        if not np.isfinite(self.beta) or self.beta < 0:
            raise InvalidArgumentError(f"beta must be finite and nonnegative, got {self.beta}")
        if not (np.isfinite(self.scale) and np.isfinite(self.offset)):
            raise InvalidArgumentError("scale and offset must be finite")


def _check_fc_matrix(m: np.ndarray, n: int | None = None) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise DimensionMismatchError(f"matrix is {m.shape[0]} x {m.shape[0]}, graph has {n} nodes")
    if not np.isfinite(m).all():
        raise InvalidArgumentError("matrix entries must be finite")
    _check_symmetric(m, _FC_SYMMETRY_TOL)
    return m


def _decay_matrix(s: Spectrum, beta: float) -> np.ndarray:
    weights = np.exp(-beta * s.eigenvalues)
    E = (s.eigenvectors * weights) @ s.eigenvectors.T
    return (E + E.T) / 2.0


def predict_fc(g: Graph, m: FcModel, kind: LaplacianKind = LaplacianKind.NORMALIZED) -> np.ndarray:
    """Model functional connectivity for a structural graph.

    Computed in the eigenbasis (one spectrum, then a weighted outer-
    product sum), symmetrized against rounding. For scale > 0 and
    offset >= 0 the result is positive definite, since every eigenvalue
    is scale * exp(-beta * lambda_k) + offset > 0.
    """
    s = graph_spectrum(g, kind)
    F = m.scale * _decay_matrix(s, m.beta)
    F[np.diag_indices_from(F)] += m.offset
    return F


def _fit_at_beta(s: Spectrum, observed: np.ndarray, beta: float) -> tuple[float, float, float]:
    """Least-squares scale and offset at fixed beta; returns (error, scale, offset)."""
    n = s.n
    E = _decay_matrix(s, beta)
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


def _eigenbasis_error(s: Spectrum, observed: np.ndarray) -> Callable[[float], float]:
    """The fit error at each beta, as a function summed over eigenmodes.

    Scale and offset solve the same 2 x 2 normal equations as
    _fit_at_beta, built from sums over the decay weights w.
    """
    rotated = s.eigenvectors.T @ observed @ s.eigenvectors
    o = rotated.diagonal().copy()
    rotated[np.diag_indices(s.n)] = 0.0
    off_diagonal = float(np.vdot(rotated, rotated))
    del rotated
    trace = float(np.trace(observed))
    n = float(s.n)

    def error(beta: float) -> float:
        w = np.exp(-beta * s.eigenvalues)
        sum_w = float(w.sum())
        gram = np.array([[float(w @ w), sum_w], [sum_w, n]])
        rhs = np.array([float(w @ o), trace])
        (scale, offset), *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        residual = scale * w + offset - o
        return float(np.sqrt(residual @ residual + off_diagonal))

    return error


def fit_fc(
    g: Graph,
    observed: np.ndarray,
    kind: LaplacianKind = LaplacianKind.NORMALIZED,
) -> tuple[FcModel, float]:
    """Fit the decay model to an observed functional matrix.

    Grid search on beta (0 to 10, step 0.1, closed-form scale and
    offset at each point, first minimum wins ties) plus golden-section
    refinement inside the bracketing grid cell. The search scores each
    beta in the Laplacian eigenbasis at O(n) cost after one rotation of
    the observed matrix; the grid minimum and the refined beta are then
    scored by dense reconstruction and the better one (the smaller beta
    on a tie) is returned with its Frobenius-norm error against the
    observed matrix.
    """
    observed = _check_fc_matrix(observed, g.n)
    s = graph_spectrum(g, kind)
    error_at = _eigenbasis_error(s, observed)

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
    candidates = sorted({float(betas[best]), (a + b) / 2.0})
    evaluated = [(_fit_at_beta(s, observed, beta), beta) for beta in candidates]
    (error, scale, offset), beta = min(evaluated, key=lambda item: (item[0][0], item[1]))
    return FcModel(beta=beta, scale=scale, offset=offset), error


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
    if a.shape[0] < 3:
        raise DimensionMismatchError("spectra comparison needs at least 3 nodes")
    ev_a = np.linalg.eigvalsh(a)
    ev_b = np.linalg.eigvalsh(b)
    sd_a = float(ev_a.std())
    sd_b = float(ev_b.std())
    if sd_a == 0.0 or sd_b == 0.0:
        raise DegenerateVarianceError("an eigenvalue spectrum with zero variance cannot be correlated")
    r = float(((ev_a - ev_a.mean()) * (ev_b - ev_b.mean())).mean() / (sd_a * sd_b))
    return max(-1.0, min(1.0, r))
