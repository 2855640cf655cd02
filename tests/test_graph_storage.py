"""Array edge storage: the vectorized builders against the per-edge ones.

induced_subgraph, quotient_graph and sbm_generate build their edge
arrays directly; tests/oracles.py keeps the former per-edge loops, and
the two must agree edge for edge, weights bit for bit. Derived graphs
skip graph_from_edges' per-edge loop, but the `Graph` constructor
checks every graph: its labels, its canonical edge arrays and its
weights, which sums and rescalings of valid weights can overflow or
underflow.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_abstraction as sa
from spectral_abstraction import graphs
from spectral_abstraction.errors import (
    DuplicateEdgeError,
    EmptySubsetError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    NonpositiveWeightError,
    SelfLoopError,
    ToolkitError,
)
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
    seed=st.integers(0, 10**6),
    n=st.integers(1, 16),
    p=st.floats(0.0, 0.9),
    kind=st.sampled_from(WEIGHT_KINDS),
    dtype=st.sampled_from([np.int64, np.int32, np.uint16]),
)
@settings(max_examples=100, deadline=None)
def test_subgraph_of_an_index_array_matches_the_per_edge_builder(seed, n, p, kind, dtype):
    """An integer array may hold its node ids in any order and repeat them, as a list may."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p, kind)
    picks = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
    assert_same_graph(sa.induced_subgraph(g, picks.astype(dtype)), set_induced_subgraph(g, picks.tolist()))


@pytest.mark.parametrize(
    "nodes, error, message",
    [
        pytest.param([], EmptySubsetError, "node subset must be nonempty", id="empty-list"),
        pytest.param(np.array([], dtype=np.int64), EmptySubsetError, "node subset must be nonempty", id="empty-array"),
        pytest.param([0, 3], IndexOutOfRangeError, "subset contains indices outside 0..2", id="above-list"),
        pytest.param(np.array([3, 0]), IndexOutOfRangeError, "subset contains indices outside 0..2", id="above-array"),
        pytest.param([-1, 0], IndexOutOfRangeError, "subset contains indices outside 0..2", id="negative-list"),
        pytest.param(np.array([0, -1]), IndexOutOfRangeError, "subset contains indices outside 0..2", id="negative-array"),
    ],
)
def test_subgraph_selection_messages(triangle, nodes, error, message):
    with pytest.raises(error) as info:
        sa.induced_subgraph(triangle, nodes)
    assert str(info.value) == message


def _path(w=(1.0, 1.0), ei=(0, 1), ej=(1, 2), labels=("a", "b", "c")) -> sa.Graph:
    """a - b - c through the constructor, with any part replaced."""
    return sa.Graph(labels=labels, ei=np.array(ei), ej=np.array(ej), w=np.array(w))


@pytest.mark.parametrize(
    "w, error, message",
    [
        pytest.param([1.0, -2.0], NonpositiveWeightError, "edge (1, 2, -2.0): weight must be positive and finite", id="negative"),
        pytest.param([-0.0, 1.0], NonpositiveWeightError, "edge (0, 1, -0.0): weight must be positive and finite", id="minus-zero"),
        pytest.param([1.0, np.inf], NonpositiveWeightError, "edge (1, 2, inf): weight must be positive and finite", id="inf"),
        pytest.param([np.nan, -1.0], NonpositiveWeightError, "edge (0, 1, nan): weight must be positive and finite", id="nan-first"),
        pytest.param([1e308, 1e308], InvalidArgumentError, "total edge weight overflows: twice its sum must be finite", id="overflow"),
    ],
)
def test_constructor_weight_check_messages(w, error, message):
    with pytest.raises(error) as info:
        _path(w)
    assert type(info.value) is error
    assert str(info.value) == message


_OUTSIDE = "endpoint outside 0..2"
_UNSORTED = "pairs must have ei < ej and be sorted"
_NOT_STRINGS = "node labels must be a tuple of strings"


@pytest.mark.parametrize(
    "parts, error, message",
    [
        pytest.param({"ej": (1, 1)}, SelfLoopError, "edge (1, 1, 1.0): self loops are not allowed", id="self-loop"),
        pytest.param({"ei": (0, 0), "ej": (1, 1)}, DuplicateEdgeError, "edge (0, 1, 1.0): pair already present", id="repeat"),
        pytest.param({"ei": (1, 0), "ej": (2, 1)}, InvalidArgumentError, f"edge (0, 1, 1.0): {_UNSORTED}", id="unsorted"),
        pytest.param({"ei": (0, 2), "ej": (1, 1)}, InvalidArgumentError, f"edge (2, 1, 1.0): {_UNSORTED}", id="ei-above-ej"),
        pytest.param({"ej": (1, 3)}, IndexOutOfRangeError, f"edge (1, 3, 1.0): {_OUTSIDE}", id="id-n"),
        pytest.param({"ei": (-1, 1)}, IndexOutOfRangeError, f"edge (-1, 1, 1.0): {_OUTSIDE}", id="id-minus-1"),
        pytest.param({"ei": (-2**62, 1)}, IndexOutOfRangeError, f"edge ({-2**62}, 1, 1.0): {_OUTSIDE}", id="id-wrapping-the-key"),
        pytest.param({"ei": (0.0, 1.0)}, IndexOutOfRangeError, "edge endpoints must be integers", id="float-ids"),
        pytest.param({"ej": (0.5, 2)}, IndexOutOfRangeError, "edge endpoints must be integers", id="half-id"),
        pytest.param({"ei": (False, True)}, IndexOutOfRangeError, "edge endpoints must be integers", id="bool-ids"),
        pytest.param({"labels": ("a", 1, "c")}, InvalidArgumentError, _NOT_STRINGS, id="int-label"),
        pytest.param({"labels": ["a", "b", "c"]}, InvalidArgumentError, _NOT_STRINGS, id="list-of-labels"),
        pytest.param({"labels": "abc"}, InvalidArgumentError, _NOT_STRINGS, id="str-of-labels"),
        pytest.param({"labels": ("a", "b", "a")}, InvalidArgumentError, "node labels must be distinct", id="duplicate-labels"),
        pytest.param({"labels": ()}, InvalidArgumentError, "a graph needs at least one node", id="no-labels"),
        pytest.param(
            {"ej": (1,)}, InvalidArgumentError, "edge arrays must be 1-D of one length: (2,), (1,), (2,)", id="unequal-lengths"
        ),
        pytest.param(
            {"w": [[1.0, 1.0]]}, InvalidArgumentError, "edge arrays must be 1-D of one length: (2,), (2,), (1, 2)", id="2d-weights"
        ),
        pytest.param({"w": ("x", "y")}, InvalidArgumentError, "edge weights must be real numbers", id="str-weights"),
    ],
)
def test_constructor_structure_check_messages(parts, error, message):
    with pytest.raises(error) as info:
        _path(**parts)
    assert type(info.value) is error
    assert str(info.value) == message


def test_constructor_keeps_read_only_int64_and_float64_arrays():
    g = sa.Graph(("a", "b", "c"), [0, 1], np.array([1, 2], dtype=np.uint8), [1, 2])
    assert (g.ei.dtype, g.ej.dtype, g.w.dtype) == (np.int64, np.int64, np.float64)
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))
    assert not (g.ei.flags.writeable or g.ej.flags.writeable or g.w.flags.writeable)
    empty = sa.Graph(("a",), [], [], [])
    assert empty.edges == () and empty.ei.dtype == np.int64


def _break_edge(ei: np.ndarray, ej: np.ndarray, w: np.ndarray, k: int, rule: str, n: int) -> None:
    """Break edge k of canonical edge arrays, or edges k and k + 1, by one rule."""
    if rule == "self-loop":
        ei[k] = ej[k]
    elif rule == "swapped":
        ei[k], ej[k] = ej[k], ei[k]
    elif rule == "id-n":
        ej[k] = n
    elif rule == "id-minus-1":
        ei[k] = -1
    elif rule == "repeat":
        ei[k + 1], ej[k + 1] = ei[k], ej[k]
    elif rule == "unsorted":
        ei[[k, k + 1]], ej[[k, k + 1]] = ei[[k + 1, k]], ej[[k + 1, k]]
    else:
        w[k] = {"zero": 0.0, "negative": -w[k], "nan": np.nan, "inf": np.inf}[rule]


# each rule and the error the constructor raises for it
_RULES = {
    "self-loop": SelfLoopError,
    "swapped": InvalidArgumentError,
    "id-n": IndexOutOfRangeError,
    "id-minus-1": IndexOutOfRangeError,
    "repeat": DuplicateEdgeError,
    "unsorted": InvalidArgumentError,
    **dict.fromkeys(["zero", "negative", "nan", "inf"], NonpositiveWeightError),
}


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 14),
    p=st.floats(0.1, 0.9),
    kind=st.sampled_from(WEIGHT_KINDS),
    rule=st.sampled_from(sorted(_RULES)),
    at=st.floats(0.0, 1.0, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_constructor_rebuilds_a_valid_graph_and_refuses_each_broken_edge(seed, n, p, kind, rule, at):
    g = random_graph(np.random.default_rng(seed), n, p, kind)
    assert_same_graph(sa.Graph(g.labels, g.ei, g.ej, g.w), g)
    two = rule in ("repeat", "unsorted")  # rules that take a second edge
    if g.n_edges < 1 + two:
        return
    ei, ej, w = g.ei.copy(), g.ej.copy(), g.w.copy()
    _break_edge(ei, ej, w, int(at * (g.n_edges - two)), rule, g.n)
    with pytest.raises(ToolkitError) as info:
        sa.Graph(g.labels, ei, ej, w)
    assert type(info.value) is _RULES[rule]


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


# the cluster-linear, p-cluster, fc-fit and cli-io inputs of perfbench/workloads.py
SBM_BENCHMARK_SHAPES = [(8, 24, 0.3, 0.01), (2, 32, 0.9, 0.05), (8, 100, 0.3, 0.01), (16, 64, 0.3, 0.005)]


@pytest.mark.parametrize("shape", SBM_BENCHMARK_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_sbm_generate_matches_scalar_draws_at_benchmark_sizes(shape):
    assert_same_graph(sa.sbm_generate(*shape, seed=9201), scalar_sbm_generate(*shape, seed=9201))


@pytest.mark.parametrize("chunk", [1, 7, graphs._CHUNK])
@pytest.mark.parametrize("p_in, p_out", [(0.4, 0.4), (0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.6, 0.1)])
def test_sbm_generate_draws_one_stream_across_chunks(chunk, p_in, p_out):
    # 6, 66 and 2,016 pairs: at chunk 7 one short chunk, a short last chunk, and chunks ending inside rows
    with mock.patch.object(graphs, "_CHUNK", chunk):
        for blocks, nodes_per_block in ((2, 2), (3, 4), (2, 32)):
            assert_same_graph(
                sa.sbm_generate(blocks, nodes_per_block, p_in, p_out, seed=5),
                scalar_sbm_generate(blocks, nodes_per_block, p_in, p_out, seed=5),
            )


def test_sbm_generate_memory_is_bounded():
    # 2,096,128 pairs: one draw of all their uniforms alone would take 16.8 MB
    tracemalloc.start()
    try:
        g = sa.sbm_generate(16, 128, 0.3, 0.005, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 2048 and g.n_edges > 0
    assert peak < 8 * 2**20


def test_edges_are_stored_once_as_read_only_arrays(bridged_triangles):
    ei, ej, w = bridged_triangles.ei, bridged_triangles.ej, bridged_triangles.w
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


@pytest.mark.parametrize("weights", [(1e308, 1e308), (1e308,)], ids=["sum", "volume"])
def test_weight_sum_overflow_is_rejected(weights):
    # finite weights whose sum, or twice it (the total volume), overflows;
    # a quotient edge sums host edges, so it cannot overflow after this
    edges = [(i, 2, w) for i, w in enumerate(weights)]
    with pytest.raises(InvalidArgumentError, match="total edge weight overflows"):
        sa.graph_from_edges(["a", "b", "c"], edges)


def test_rescaled_weight_underflow_is_rejected():
    # 5e-324 over the mean weight 5e9 rounds to zero
    g = sa.graph_from_edges(["a", "b", "c"], [(0, 1, 5e-324), (1, 2, 1e10)])
    with pytest.raises(NonpositiveWeightError, match=r"edge \(0, 1, 0\.0\): weight must be"):
        p_spectral_bipartition(g, PLaplacianParams(p=1.5))


def test_empty_coupling_system_has_no_interaction_graph():
    empty = CouplingSystem(couplings=np.zeros((0, 0)), linear_mask=np.zeros((0, 0), dtype=bool))
    with pytest.raises(InvalidArgumentError):
        sa.jacobian_graph(empty, 0.0)
