"""Output checks that do not trust the library under test.

Every quantity is recomputed from the graph's edge list with numpy and
scipy alone; no function of spectral_abstraction is called here.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output disagreed with the benchmark's own recomputation."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def close(actual: float, expected: float, what: str, rel: float = REL_TOL) -> None:
    scale = max(1.0, abs(expected))
    require(abs(actual - expected) <= rel * scale, f"{what}: got {actual!r}, expected {expected!r}")


def edge_arrays(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    e = np.array(g.edges, dtype=np.float64).reshape(-1, 3)
    return e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2]


def adjacency(g) -> np.ndarray:
    ei, ej, w = edge_arrays(g)
    A = np.zeros((g.n, g.n))
    A[ei, ej] = w
    A[ej, ei] = w
    return A


def normalized_laplacian(g) -> np.ndarray:
    A = adjacency(g)
    d = A.sum(axis=1)
    inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return np.diag((d > 0).astype(np.float64)) - inv_sqrt[:, None] * A * inv_sqrt[None, :]


def combinatorial_laplacian(g) -> np.ndarray:
    A = adjacency(g)
    return np.diag(A.sum(axis=1)) - A


def assignment_array(assignment, n: int, k: int) -> np.ndarray:
    a = np.asarray(assignment, dtype=np.int64)
    require(a.shape == (n,), f"assignment has shape {a.shape}, expected ({n},)")
    require(a.min() >= 0 and a.max() < k, "assignment label outside 0..k-1")
    require(np.bincount(a, minlength=k).min() > 0, "a cluster is empty")
    return a


def agreement(assignment: np.ndarray, planted: np.ndarray) -> float:
    """Best-match fraction of nodes in their planted block (optimal relabeling)."""
    from scipy.optimize import linear_sum_assignment

    k = int(max(assignment.max(), planted.max())) + 1
    counts = np.zeros((k, k))
    np.add.at(counts, (planted, assignment), 1.0)
    rows, cols = linear_sum_assignment(-counts)
    return float(counts[rows, cols].sum()) / assignment.size


def check_partition(g, part, k: int) -> np.ndarray:
    require(part.k == k, f"partition has k={part.k}, expected {k}")
    return assignment_array(part.assignment, g.n, k)


def check_cut_metrics(g, assign: np.ndarray, k: int, metrics) -> None:
    ei, ej, w = edge_arrays(g)
    crossing = assign[ei] != assign[ej]
    cut = np.zeros(k)
    np.add.at(cut, assign[ei[crossing]], w[crossing])
    np.add.at(cut, assign[ej[crossing]], w[crossing])
    deg = np.zeros(g.n)
    np.add.at(deg, ei, w)
    np.add.at(deg, ej, w)
    vol = np.bincount(assign, weights=deg, minlength=k)
    size = np.bincount(assign, minlength=k).astype(np.float64)
    total = vol.sum()
    close(metrics.cut_weight, cut.sum() / 2.0, "cut_weight")
    close(metrics.ratio_cut, float((cut / size).sum()), "ratio_cut")
    close(metrics.normalized_cut, float(sum(c / v for c, v in zip(cut, vol) if c)), "normalized_cut")
    cheeger = max((c / min(v, total - v) for c, v in zip(cut, vol) if c), default=0.0)
    close(metrics.cheeger, float(cheeger), "cheeger")


def check_profile(g, assign: np.ndarray, k: int, profile) -> None:
    ei, ej, w = edge_arrays(g)
    same = assign[ei] == assign[ej]
    internal = np.bincount(assign[ei[same]], weights=w[same], minlength=k)
    external = np.bincount(assign[ei[~same]], weights=w[~same], minlength=k)
    external += np.bincount(assign[ej[~same]], weights=w[~same], minlength=k)
    require(len(profile.clusters) == k, "profile has the wrong number of clusters")
    for c, record in enumerate(profile.clusters):
        close(record.internal_weight, internal[c], f"cluster {c} internal_weight")
        close(record.external_weight, external[c], f"cluster {c} external_weight")


def fc_model_matrix(L_norm: np.ndarray, beta: float, scale: float, offset: float) -> np.ndarray:
    import scipy.linalg

    return scale * scipy.linalg.expm(-beta * L_norm) + offset * np.eye(L_norm.shape[0])


def spectra_correlation(a: np.ndarray, b: np.ndarray) -> float:
    ea = np.linalg.eigvalsh(a)
    eb = np.linalg.eigvalsh(b)
    return float(np.corrcoef(ea, eb)[0, 1])


def check_fc_fit(L_norm: np.ndarray, observed: np.ndarray, truth_error: float, model, error: float,
                 predicted: np.ndarray, similarity: float) -> float:
    """Validate one fit; returns the error relative to the observed matrix's norm."""
    own = fc_model_matrix(L_norm, model.beta, model.scale, model.offset)
    own_error = float(np.linalg.norm(own - observed))
    close(error, own_error, "frobenius_error vs expm recomputation", rel=1e-8)
    require(float(np.abs(predicted - own).max()) <= 1e-8 * max(1.0, abs(model.scale)),
            "predict_fc at the fitted model differs from expm")
    # the generating parameters are one candidate of the fit, so the
    # fitted error can not be meaningfully worse than theirs
    require(own_error <= truth_error * (1.0 + 1e-9), "fit is worse than the generating model")
    close(similarity, spectra_correlation(observed, predicted), "spectra_similarity", rel=1e-8)
    return own_error / float(np.linalg.norm(observed))
