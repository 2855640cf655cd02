"""Multi-level coarsening of a graph into a cluster hierarchy.

Each level clusters the current graph, records the partition together
with its connectivity profile, and replaces the graph by its quotient:
clusters become nodes, crossing weights add up. Level t therefore
partitions the quotient produced at level t - 1, and composing the
per-level assignments flattens any level back onto the base nodes.

Requested cluster counts must decrease strictly from level to level, so
node counts decrease and every level genuinely abstracts the one below.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError, LevelOutOfRangeError, SpecMonotonicityViolationError
from .graphs import Graph, LaplacianKind, _choice, _integer, quotient_graph
from .nonlinear import PLaplacianParams, _p_of, p_recursive_bipartition
from .partition import (
    ConnectivityProfile,
    Partition,
    _check_metric,
    connectivity_profile,
    kway_embedding_cluster,
    recursive_bipartition,
)
from .spectral import graph_spectrum, spectral_embedding

METHODS = ("recursive-linear", "recursive-p", "kway-embedding")


@dataclass(frozen=True)
class LevelSpec:
    """How to cluster one level: target count plus clustering method.

    dim, metric, q and seed apply to kway-embedding; p_params applies to
    recursive-p (defaulting to p = 1.2 continuation when omitted). k, dim
    and seed must be integers (InvalidArgumentError) and are kept as ints.
    metric and q are checked as kway_embedding_cluster checks them,
    whatever the method.
    """

    k: int
    method: str = "recursive-linear"
    seed: int = 0
    dim: int = 1
    metric: str = "euclidean"
    q: float = 0.5
    p_params: PLaplacianParams | None = None

    def __post_init__(self) -> None:
        for name in ("k", "dim", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        _choice(self.method, "method", METHODS)
        _check_metric(self.metric, self.q)
        if self.p_params is not None:
            _p_of(self.p_params, "p_params")


@dataclass(frozen=True)
class HierarchyLevel:
    """One coarsening step: the partition applied and the quotient it produced."""

    level_index: int
    partition: Partition
    quotient: Graph
    profile: ConnectivityProfile
    embedding_dim: int


@dataclass(frozen=True)
class Hierarchy:
    levels: tuple[HierarchyLevel, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)


def _cluster_level(g: Graph, spec: LevelSpec) -> tuple[Partition, int]:
    if spec.method == "recursive-linear":
        return recursive_bipartition(g, spec.k), 1
    if spec.method == "recursive-p":
        params = spec.p_params if spec.p_params is not None else PLaplacianParams(p=1.2)
        return p_recursive_bipartition(g, spec.k, params), 1
    s = graph_spectrum(g, LaplacianKind.COMBINATORIAL, count=spec.dim + 1)
    emb = spectral_embedding(s, spec.dim)
    part = kway_embedding_cluster(emb, spec.k, metric=spec.metric, q=spec.q, seed=spec.seed)
    return part, spec.dim


def build_hierarchy(g: Graph, level_specs: list[LevelSpec] | tuple[LevelSpec, ...]) -> Hierarchy:
    """Cluster and coarsen repeatedly, one level per spec.

    Cluster counts must be strictly decreasing across the specs
    (SpecMonotonicityViolationError otherwise); each level may use a
    different clustering method. Clustering errors (k out of range for
    the current level, unsplittable clusters and so on) propagate.
    """
    try:
        specs = tuple(level_specs)
        if not all(isinstance(spec, LevelSpec) for spec in specs):
            raise TypeError
    except TypeError:
        raise InvalidArgumentError(f"level_specs must be an iterable of LevelSpec, got {level_specs!r}") from None
    if not specs:
        raise InvalidArgumentError("need at least one level spec")
    for a, b in zip(specs, specs[1:]):
        if b.k >= a.k:
            raise SpecMonotonicityViolationError(
                f"cluster counts must decrease strictly: {a.k} then {b.k}"
            )
    levels: list[HierarchyLevel] = []
    current = g
    for t, spec in enumerate(specs):
        part, dim = _cluster_level(current, spec)
        quotient = quotient_graph(current, part)
        profile = connectivity_profile(current, part)
        levels.append(
            HierarchyLevel(
                level_index=t,
                partition=part,
                quotient=quotient,
                profile=profile,
                embedding_dim=dim,
            )
        )
        current = quotient
    return Hierarchy(levels=tuple(levels))


def flatten(h: Hierarchy, level: int) -> Partition:
    """Assignment of the base nodes to the clusters of a given level.

    Composes the per-level assignments; flatten(h, 0) is level 0's own
    partition. Raises LevelOutOfRangeError outside 0..depth-1.
    """
    level = _integer(level, "level")
    if not 0 <= level < h.depth:
        raise LevelOutOfRangeError(f"level {level} outside 0..{h.depth - 1}")
    assign = h.levels[0].partition.assignment
    for t in range(1, level + 1):
        assign = h.levels[t].partition.assignment[assign]
    return Partition(assignment=assign, k=h.levels[level].partition.k)
