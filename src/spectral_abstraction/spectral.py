"""Laplacian eigen-analysis.

Everything downstream of this module consumes spectra through one
deterministic convention:

* eigenvalues ascending, eigenvectors column-orthonormal;
* within a numerically degenerate eigenvalue group, the eigenvector
  basis is rebuilt canonically (see below) so it depends only on the
  eigenspace itself, never on solver internals;
* the first entry of each eigenvector whose magnitude exceeds 1e-12 is
  made positive.

The canonical basis for a degenerate group of dimension d is the Q of a
QR, with R's diagonal made positive, of the group's projector applied to
d fixed probes: the ramp (i + 1)/n, then splitmix64 columns (Steele, Lea
& Flood, OOPSLA 2014), the same in every numpy version. The ramp is left
out for an eigenspace orthogonal to it, as symmetries of node order make
some on grids. That QR is unique, so the basis depends on the eigenspace
alone, and runs and LAPACK builds agree about which vector is "the"
Fiedler vector when lambda_2 is repeated. Projected probes too close to
rank deficient raise ConvergenceFailureError.

For the key quadratic form identity: with L = D - A,

    x^T L x = sum_{(i,j) in E} w_ij (x_i - x_j)^2

so Rayleigh quotients of combinatorial Laplacians are nonnegative and
vanish exactly on vectors that are constant on every connected
component.

eigendecompose answers every request, full or counted; its docstring
says which solver it picks. A full spectrum is a pure function of the
graph and the Laplacian kind, so graph_spectrum stores each one on its
graph, and one eigendecomposition per graph and kind serves every later
full request.
Count-limited results are never stored, and never served from a stored
spectrum; stored spectra are freed with their graph and shared
read-only.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass
from importlib import machinery, util

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    DimensionOutOfRangeError,
    DisconnectedGraphError,
    InvalidArgumentError,
    TooFewNodesError,
    ZeroVectorError,
)
from .graphs import Graph, LaplacianKind, LaplacianMatrix, _floats, _integer, _node_vector, laplacian

DENSE_SOLVER_MAX_N = 2048
CONNECTIVITY_TOL = 1e-9

_SIGN_TOL = 1e-12
_DEGENERACY_TOL = 1e-10
_ORTHONORMALITY_TOL = 1e-9
_RESIDUAL_TOL = 1e-8
_PSD_TOL = 1e-10
# rows of vecs * vals formed at a time, so the residual check holds no fourth n x m array
_RESIDUAL_BLOCK = 64
# a projected probe shorter than this, relative to the longest probe, is
# rounding noise; the basis error grows like eps over the smallest QR pivot
_PROBE_RANK_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of a Laplacian, possibly truncated to the smallest few.

    eigenvalues has shape (m,), ascending; eigenvectors has shape
    (n, m), n >= m, with eigenvectors[:, k] belonging to eigenvalues[k].
    A full decomposition has m == n. Both are stored read-only float64,
    without a copy when they already are float64.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        vals, vecs = _floats(self.eigenvalues, "eigenvalues"), _floats(self.eigenvectors, "eigenvectors")
        if vals.ndim != 1 or vecs.ndim != 2 or not vals.shape[0] == vecs.shape[1] <= vecs.shape[0]:
            raise DimensionMismatchError(f"eigenvalues {vals.shape} do not fit eigenvectors {vecs.shape}")
        for name, a in (("eigenvalues", vals), ("eigenvectors", vecs)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True, eq=False)
class Embedding:
    """Spectral coordinates: column j is eigenvector j+2 (1-based) of the source."""

    coordinates: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        dim = _integer(self.dim, "dim")
        coords = np.array(_floats(self.coordinates, "embedding coordinates"))
        if coords.ndim != 2 or coords.shape[1] != dim:
            raise DimensionMismatchError(f"coordinates of shape {coords.shape} do not have {dim} columns")
        if not np.isfinite(coords).all():
            raise InvalidArgumentError("embedding coordinates must be finite")
        coords.flags.writeable = False
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "dim", dim)

    @property
    def n(self) -> int:
        return self.coordinates.shape[0]


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 output for each uint64 state; arrays wrap without a warning."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _probe_matrix(n: int, d: int) -> np.ndarray:
    """n x d probes: the ramp (i + 1)/n, then splitmix64(i * 2^32 + j)'s top 53 bits in [-1/2, 1/2)."""
    state = (np.arange(n, dtype=np.uint64)[:, None] << np.uint64(32)) + np.arange(1, d, dtype=np.uint64)
    noise = (_splitmix64(state) >> np.uint64(11)) * 2.0**-53 - 0.5
    return np.column_stack([np.arange(1, n + 1) / n, noise])


def _canonical_subspace_basis(V: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(V) that depends only on the subspace."""
    n, d = V.shape
    P = _probe_matrix(n, d + 1)
    scale = np.linalg.norm(P, axis=0)
    B = V @ (V.T @ P)
    # the ramp gives way to the next probe where span(V) is orthogonal to it
    B = B[:, 1:] if np.linalg.norm(B[:, 0]) < _PROBE_RANK_FLOOR * scale[0] else B[:, :d]
    q, r = np.linalg.qr(B)
    pivots = np.diag(r)
    ratio = np.abs(pivots).min() / scale.max()
    if not ratio >= _PROBE_RANK_FLOOR:
        raise ConvergenceFailureError(f"probes fail to span a {d}-dimensional eigenspace ({ratio:.2e})")
    # the QR's rounding leaks out of span(V) as d grows; one more projection pulls it back
    q, r = np.linalg.qr(V @ (V.T @ (q * np.sign(pivots))))
    return q * np.sign(np.diag(r))


def _degenerate_groups(vals: np.ndarray) -> list[tuple[int, int]]:
    gaps = vals[1:] - vals[:-1] > _DEGENERACY_TOL * np.maximum(1.0, np.abs(vals[1:]))
    bounds = [0, *(gaps.nonzero()[0] + 1).tolist(), vals.shape[0]]
    return list(zip(bounds[:-1], bounds[1:]))


def _apply_sign_convention(vecs: np.ndarray) -> np.ndarray:
    if vecs.size:
        # a column with no entry above _SIGN_TOL reads its first entry, which never flips
        lead = vecs[np.argmax(np.abs(vecs) > _SIGN_TOL, axis=0), np.arange(vecs.shape[1])]
        vecs *= np.where(lead < -_SIGN_TOL, -1.0, 1.0)
    return vecs


def _canonicalize(groups: list[tuple[int, int]], vecs: np.ndarray) -> np.ndarray:
    for lo, hi in groups:
        if hi - lo > 1:
            vecs[:, lo:hi] = _canonical_subspace_basis(vecs[:, lo:hi])
    return _apply_sign_convention(vecs)


def _validate_spectrum(M: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    if vals.size and not vals[0] >= -_PSD_TOL:
        raise ConvergenceFailureError(
            f"spectrum violates positive semidefiniteness: lambda_1 = {vals[0]}"
        )
    gram = vecs.T @ vecs
    gram.flat[:: vals.shape[0] + 1] -= 1.0
    gram_err = np.abs(gram, out=gram).max() if vals.size else 0.0
    del gram  # so M, vecs and the residual are the only n x m arrays held below
    if not gram_err < _ORTHONORMALITY_TOL:
        raise ConvergenceFailureError(f"eigenvectors lost orthonormality ({gram_err:.2e})")
    residual = M @ vecs
    for lo in range(0, residual.shape[0], _RESIDUAL_BLOCK):
        residual[lo : lo + _RESIDUAL_BLOCK] -= vecs[lo : lo + _RESIDUAL_BLOCK] * vals
    # One pass settles every pair that clears its bound by far more than
    # this column sum and np.linalg.norm can differ by rounding; the loop
    # decides, and names, any other pair with one norm per column.
    norms = np.sqrt(np.einsum("ij,ij->j", residual, residual))
    if (norms < _RESIDUAL_TOL * (1.0 - 1e-6) * np.maximum(1.0, np.abs(vals))).all():
        return
    for k in range(vals.shape[0]):
        bound = _RESIDUAL_TOL * max(1.0, abs(vals[k]))
        err = np.linalg.norm(residual[:, k])
        if not err < bound:
            raise ConvergenceFailureError(
                f"residual for eigenpair {k} is {err:.2e}, bound {bound:.2e}"
            )


@functools.cache
def _lapack():
    """scipy.linalg._flapack, which holds dsyevd and dsyevr, loaded without running scipy/linalg/__init__.py."""
    import scipy  # light; on some wheels it sets up the bundled library paths
    name = "scipy.linalg._flapack"
    if name not in sys.modules:  # registered, so scipy.linalg.lapack imported later reuses it
        spec = machinery.PathFinder.find_spec(name, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@functools.lru_cache(maxsize=64)
def _mrrr_workspace(n: int) -> tuple[int, int]:
    """dsyevr's (lwork, liwork) for an n x n matrix, from the query scipy.linalg.eigh makes."""
    work, iwork, _ = _lapack().dsyevr_lwork(n, lower=1)
    return int(work), int(iwork)


def _dsyevd(M: np.ndarray):
    """Every eigenpair of symmetric M from LAPACK's dsyevd, the driver np.linalg.eigh calls.

    The eigenvectors overwrite one Fortran-order copy of M, so the solve
    holds M, that copy and dsyevd's 2n^2 workspace, not a fourth n x n
    array for its output.
    """
    vals, vecs, info = _lapack().dsyevd(np.array(M, order="F"), compute_v=1, lower=1, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")  # np.linalg.eigh's message
    return vals, vecs


def _mrrr(M: np.ndarray, m: int):
    """The m smallest eigenpairs of symmetric M from LAPACK's dsyevr.

    The call is the one scipy.linalg.eigh(M, subset_by_index=[0, m - 1],
    driver="evr") makes, so the pairs are the same bytes, without eigh's
    argument checks and workspace query on every call.
    """
    lwork, liwork = _mrrr_workspace(M.shape[0])
    vals, vecs, found, _, info = _lapack().dsyevr(
        M, compute_v=1, range="I", il=1, iu=m, lower=1, lwork=lwork, liwork=liwork
    )
    if info:
        raise np.linalg.LinAlgError("Internal Error.")  # scipy.linalg.eigh's message for this driver
    return vals[:found], vecs[:, :found]


def _lanczos(M: np.ndarray, m: int):
    import scipy.sparse
    import scipy.sparse.linalg

    v0 = np.linspace(1.0, 2.0, M.shape[0])
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(
            scipy.sparse.csc_matrix(M), k=m, sigma=-1e-2, which="LM", v0=v0, tol=0
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise np.linalg.LinAlgError(str(exc)) from exc
    # unlike the LAPACK drivers, ARPACK does not promise ascending order
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def eigendecompose(L: LaplacianMatrix, count: int | None = None) -> Spectrum:
    """Eigenpairs of a Laplacian, checked when it was made: all n, or the smallest `count`.

    A full request (count=None) takes every pair from LAPACK's divide
    and conquer, dsyevd, which writes them over one copy of the matrix.
    A counted one, 1 <= count < n, takes the smallest m = count + 1
    pairs and doubles m, up to n, until a gap closes the group that
    holds pair count - 1, so only whole eigenspaces are canonicalized
    and a counted spectrum is a full one's leading pairs whichever
    solver ran. Above DENSE_SOLVER_MAX_N nodes the first two requests
    short of n go to shift-invert Lanczos, from a fixed start vector;
    all others go to LAPACK's MRRR subset driver (Dhillon, Parlett &
    Voemel, ACM TOMS 2006), whose cost does not grow with m. A subset
    that driver fails on widens straight to n. Every solver returns its
    pairs ascending; its own arrays are freed once made contiguous and
    never sit beside the checked copies, which pass the
    canonicalization and the orthonormality, residual and
    semidefiniteness checks.
    """
    M, n = L.matrix, L.n
    count = None if count is None else _integer(count, "count")
    if count is not None and not 1 <= count < n:
        raise DimensionOutOfRangeError(f"eigenpair count {count} outside 1..{n - 1}")
    m = first = n if count is None else count + 1
    while True:
        if count is None:
            solver, name = _dsyevd, "dense eigensolver"
        elif n > DENSE_SOLVER_MAX_N and m <= 2 * first and m < n:
            solver, name = _lanczos, "Lanczos solver"
        else:
            solver, name = _mrrr, "dense subset eigensolver"
        try:
            vals, vecs = solver(M) if count is None else solver(M, m)
        except np.linalg.LinAlgError as exc:
            if solver is not _mrrr or m == n:
                raise ConvergenceFailureError(f"{name} failed: {exc}") from exc
            # dsyevr can fail on a subset that ends inside a cluster of equal
            # eigenvalues, as many small components make, and solve all n
            m = n
            continue
        vecs = np.ascontiguousarray(vecs)
        groups = _degenerate_groups(vals)
        end = m if count is None else next(hi for _, hi in groups if hi >= count)
        if end < m or m == n:
            break
        m = min(2 * m, n)
    vals = vals[:end]
    # a gap at `end` closes a group, so the kept groups are the groups of vals[:end]
    vecs = _canonicalize([g for g in groups if g[1] <= end], np.ascontiguousarray(vecs[:, :end]))
    _validate_spectrum(M, vals, vecs)
    return Spectrum(eigenvalues=vals[:count], eigenvectors=np.ascontiguousarray(vecs[:, :count]))


def graph_spectrum(
    g: Graph,
    kind: LaplacianKind = LaplacianKind.COMBINATORIAL,
    count: int | None = None,
) -> Spectrum:
    """Spectrum of a graph Laplacian.

    A full request (count=None, or count >= n) gets every pair from the
    dense solver. It is stored on `g` by kind, freed with the graph and
    shared read-only, and serves every later full request.

    A counted request (count < n) gets only the smallest `count` pairs,
    widened to whole eigenspaces, from the solver eigendecompose picks.
    It never reads or writes the store, so its result never depends on
    call history.
    """
    count = None if count is None else _integer(count, "count")
    if count is not None and count < g.n:
        return eigendecompose(laplacian(g, kind), count)
    # an unknown kind, hashable or not, is left for laplacian to reject
    s = g._spectra.get(kind) if isinstance(kind, LaplacianKind) else None
    if s is None:
        s = eigendecompose(laplacian(g, kind))
        g._spectra[kind] = s
    return s


def rayleigh_quotient(L: LaplacianMatrix, x: np.ndarray) -> float:
    """(x^T L x) / (x^T x) for a nonzero vector x with finite entries.

    For combinatorial Laplacians this equals the edge sum
    sum w_ij (x_i - x_j)^2 divided by x^T x.
    """
    x = _node_vector(x, L.n, DimensionOutOfRangeError)
    denom = float(x @ x)
    if denom == 0.0:
        raise ZeroVectorError("Rayleigh quotient of the zero vector is undefined")
    return float(x @ (L.matrix @ x)) / denom


def algebraic_connectivity(s: Spectrum) -> float:
    """Second-smallest eigenvalue, lambda_2."""
    if s.n < 2 or s.n_pairs < 2:
        raise TooFewNodesError("algebraic connectivity needs at least two eigenpairs")
    return float(s.eigenvalues[1])


def fiedler_vector(s: Spectrum) -> np.ndarray:
    """Eigenvector for lambda_2 of a connected graph.

    Raises DisconnectedGraphError when lambda_2 <= 1e-9, since the
    second eigenvector of a disconnected Laplacian carries component
    structure rather than a cut direction. Unit norm; for combinatorial
    Laplacians its entries sum to zero because it is orthogonal to the
    constant eigenvector.
    """
    if algebraic_connectivity(s) <= CONNECTIVITY_TOL:
        raise DisconnectedGraphError(
            "graph is disconnected (lambda_2 is numerically zero)"
        )
    return np.array(s.eigenvectors[:, 1])


def spectral_embedding(s: Spectrum, k: int) -> Embedding:
    """Embed nodes into R^k using eigenvectors 2..k+1 (skipping the first).

    Requires 1 <= k <= n-1 and a spectrum holding at least k+1 pairs.
    """
    k = _integer(k, "k")
    if not 1 <= k <= s.n - 1:
        raise DimensionOutOfRangeError(f"embedding dimension {k} outside 1..{s.n - 1}")
    if s.n_pairs < k + 1:
        raise DimensionOutOfRangeError(
            f"spectrum holds {s.n_pairs} pairs, embedding dimension {k} needs {k + 1}"
        )
    return Embedding(coordinates=s.eigenvectors[:, 1 : k + 1], dim=k)
