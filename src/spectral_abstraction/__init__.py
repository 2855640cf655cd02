"""Spectral decomposition of weighted networks into cluster hierarchies.

The toolkit covers graph construction and Laplacian matrices,
deterministic eigendecomposition, Fiedler and k-way spectral
partitioning, graph p-Laplacian cuts, multi-level quotient
hierarchies, and a Laplacian eigenmode model predicting functional
connectivity from structure.
"""

import importlib as _importlib
import os as _os


def _cap_thread_pools() -> None:
    # honored only if applied before numpy initializes its BLAS backend,
    # which is why it runs at package import time
    cap = _os.environ.get("SPECTRAL_ABSTRACTION_THREADS")
    if not cap:
        return
    try:
        value = max(1, int(cap))
    except ValueError:
        return
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ[var] = str(value)


_cap_thread_pools()

from . import errors
from .graphs import (
    Graph,
    LaplacianKind,
    LaplacianMatrix,
    adjacency_matrix,
    connected_components,
    degrees,
    graph_from_edges,
    induced_subgraph,
    laplacian,
    quotient_graph,
    sbm_generate,
)
from .spectral import (
    CONNECTIVITY_TOL,
    DENSE_SOLVER_MAX_N,
    Embedding,
    Spectrum,
    algebraic_connectivity,
    eigendecompose,
    fiedler_vector,
    graph_spectrum,
    rayleigh_quotient,
    spectral_embedding,
)
from .partition import (
    METRICS,
    SELECTIONS,
    ClusterProfile,
    ConnectivityProfile,
    CutMetrics,
    Partition,
    connectivity_profile,
    cut_metrics,
    kway_embedding_cluster,
    recursive_bipartition,
    sign_bipartition,
    threshold_partition,
)
# Layers past partitioning load on first use (PEP 562), read from their module on
# every access and never cached here, so a patched function is what the package returns.
_LAZY = {
    **dict.fromkeys(["CouplingSystem", "PLaplacianParams", "jacobian_graph", "p_laplacian_apply",
                     "p_recursive_bipartition", "p_spectral_bipartition"], "nonlinear"),
    **dict.fromkeys(["Hierarchy", "HierarchyLevel", "LevelSpec", "build_hierarchy", "flatten"], "hierarchy"),
    **dict.fromkeys(["FcModel", "fit_fc", "predict_fc", "spectra_similarity"], "structfunc"),
}


def __getattr__(name: str):
    if name in _LAZY.values():  # the submodule itself
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(_importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "errors",
    "METRICS",
    "SELECTIONS",
    "Graph",
    "LaplacianKind",
    "LaplacianMatrix",
    "adjacency_matrix",
    "connected_components",
    "degrees",
    "graph_from_edges",
    "induced_subgraph",
    "laplacian",
    "quotient_graph",
    "sbm_generate",
    "CONNECTIVITY_TOL",
    "DENSE_SOLVER_MAX_N",
    "Embedding",
    "Spectrum",
    "algebraic_connectivity",
    "eigendecompose",
    "fiedler_vector",
    "graph_spectrum",
    "rayleigh_quotient",
    "spectral_embedding",
    "ClusterProfile",
    "ConnectivityProfile",
    "CutMetrics",
    "Partition",
    "connectivity_profile",
    "cut_metrics",
    "kway_embedding_cluster",
    "recursive_bipartition",
    "sign_bipartition",
    "threshold_partition",
    "CouplingSystem",
    "PLaplacianParams",
    "jacobian_graph",
    "p_laplacian_apply",
    "p_recursive_bipartition",
    "p_spectral_bipartition",
    "Hierarchy",
    "HierarchyLevel",
    "LevelSpec",
    "build_hierarchy",
    "flatten",
    "FcModel",
    "fit_fc",
    "predict_fc",
    "spectra_similarity",
    "__version__",
]
