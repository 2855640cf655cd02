"""Array edge storage: the vectorized builders against the per-edge ones.

induced_subgraph, quotient_graph and sbm_generate build their edge
arrays directly; tests/oracles.py keeps the former per-edge loops, and
the two must agree edge for edge, weights bit for bit. Derived graphs
skip the per-edge validation of outside input but still reject weights
that overflow or underflow.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_abstraction as sa
from spectral_abstraction.errors import InvalidArgumentError, NonpositiveWeightError
from spectral_abstraction.nonlinear import CouplingSystem, PLaplacianParams, p_spectral_bipartition

from oracles import dict_quotient_graph, scalar_sbm_generate, set_induced_subgraph

WEIGHT_KINDS = ("real", "tenths", "wide")


def random_graph(rng: np.random.Generator, n: int, p: float, kind: str) -> sa.Graph:
    """Erdos-Renyi draw; weights real in [0.2, 3), tenths, or 1e-9..1e8."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                if kind == "real":
                    w = float(rng.uniform(0.2, 3.0))
                elif kind == "tenths":
                    w = int(rng.integers(1, 30)) / 10
                else:
                    w = float(10.0 ** rng.uniform(-9.0, 8.0))
                edges.append((i, j, w))
    return sa.graph_from_edges([f"n{i}" for i in range(n)], edges)


def assert_same_graph(ours: sa.Graph, ref: sa.Graph) -> None:
    assert ours.labels == ref.labels
    assert ours.edges == ref.edges
    assert ours == ref and hash(ours) == hash(ref)


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 16),
    p=st.floats(0.0, 0.9),
    kind=st.sampled_from(WEIGHT_KINDS),
)
@settings(max_examples=200, deadline=None)
def test_subgraph_and_quotient_match_the_per_edge_builders(seed, n, p, kind):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p, kind)
    nodes = [int(i) for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
    assert_same_graph(sa.induced_subgraph(g, nodes), set_induced_subgraph(g, nodes))
    k = int(rng.integers(1, n + 1))
    labels = rng.integers(0, k, size=n)
    labels[rng.choice(n, size=k, replace=False)] = np.arange(k)
    part = sa.Partition(assignment=tuple(int(a) for a in labels), k=k)
    assert_same_graph(sa.quotient_graph(g, part), dict_quotient_graph(g, part))


@given(
    blocks=st.integers(2, 4),
    nodes_per_block=st.integers(2, 7),
    p_out=st.floats(0.0, 1.0),
    gap=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=100, deadline=None)
def test_sbm_generate_matches_scalar_draws(blocks, nodes_per_block, p_out, gap, seed):
    p_in = p_out + gap * (1.0 - p_out)
    assert_same_graph(
        sa.sbm_generate(blocks, nodes_per_block, p_in, p_out, seed),
        scalar_sbm_generate(blocks, nodes_per_block, p_in, p_out, seed),
    )


def test_edges_are_stored_once_as_read_only_arrays(bridged_triangles):
    ei, ej, w = sa.edge_arrays(bridged_triangles)
    assert ei is bridged_triangles.ei and ej is bridged_triangles.ej and w is bridged_triangles.w
    assert (ei.dtype, ej.dtype, w.dtype) == (np.int64, np.int64, np.float64)
    for a in (ei, ej, w):
        with pytest.raises(ValueError):
            a[0] = 0
    assert bridged_triangles.n_edges == 7
    assert bridged_triangles.total_weight == 7.0


def test_empty_edge_arrays_keep_their_types():
    g = sa.graph_from_edges(["a", "b"], [])
    assert (g.ei.dtype, g.ej.dtype, g.w.dtype) == (np.int64, np.int64, np.float64)
    assert g.edges == () and g.total_weight == 0.0
    q = sa.quotient_graph(g, sa.Partition(assignment=(0, 1), k=2))
    assert q.edges == () and q.ei.dtype == np.int64


def test_graphs_and_hierarchies_hash_by_value(bridged_triangles):
    again = sa.graph_from_edges(bridged_triangles.labels, reversed(bridged_triangles.edges))
    assert again == bridged_triangles
    assert len({again, bridged_triangles}) == 1
    h1 = sa.build_hierarchy(bridged_triangles, [sa.LevelSpec(k=2)])
    h2 = sa.build_hierarchy(again, [sa.LevelSpec(k=2)])
    assert h1 == h2 and hash(h1) == hash(h2)


def test_quotient_weight_overflow_is_rejected():
    # two finite crossing edges whose sum overflows to inf
    g = sa.graph_from_edges(["a", "b", "c"], [(0, 2, 1e308), (1, 2, 1e308)])
    with pytest.raises(NonpositiveWeightError, match=r"edge \(0, 1, inf\): weight must be"):
        sa.quotient_graph(g, sa.Partition(assignment=(0, 0, 1), k=2))


def test_rescaled_weight_underflow_is_rejected():
    # 5e-324 over the mean weight 5e9 rounds to zero
    g = sa.graph_from_edges(["a", "b", "c"], [(0, 1, 5e-324), (1, 2, 1e10)])
    with pytest.raises(NonpositiveWeightError, match=r"edge \(0, 1, 0\.0\): weight must be"):
        p_spectral_bipartition(g, PLaplacianParams(p=1.5))


def test_empty_coupling_system_has_no_interaction_graph():
    empty = CouplingSystem(couplings=np.zeros((0, 0)), linear_mask=np.zeros((0, 0), dtype=bool))
    with pytest.raises(InvalidArgumentError):
        sa.jacobian_graph(empty, 0.0)
