"""Graph construction, matrix views, subgraphs, quotients, components."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_abstraction as sa
from spectral_abstraction.errors import (
    DuplicateEdgeError,
    EmptySubsetError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    InvalidProbabilityError,
    NonpositiveWeightError,
    NotSymmetricError,
    PartitionMismatchError,
    SelfLoopError,
)

from conftest import random_connected_graph
from oracles import dense_normalized_laplacian, union_find_components


class TestConstruction:
    def test_triangle(self, triangle):
        assert triangle.n == 3
        assert triangle.n_edges == 3
        assert triangle.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))

    def test_edges_are_canonicalized(self):
        g = sa.graph_from_edges(["a", "b", "c"], [(2, 1, 1.5), (1, 0, 0.5)])
        assert g.edges == ((0, 1, 0.5), (1, 2, 1.5))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError) as err:
            sa.graph_from_edges(["a", "b"], [(0, 0, 1.0)])
        assert "(0, 0" in str(err.value)

    def test_duplicate_pair_rejected_either_orientation(self):
        with pytest.raises(DuplicateEdgeError):
            sa.graph_from_edges(["a", "b"], [(0, 1, 1.0), (1, 0, 2.0)])

    def test_nonpositive_weights_rejected(self):
        for w in (0.0, -1.0):
            with pytest.raises(NonpositiveWeightError):
                sa.graph_from_edges(["a", "b"], [(0, 1, w)])

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(NonpositiveWeightError):
            sa.graph_from_edges(["a", "b"], [(0, 1, float("nan"))])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            sa.graph_from_edges(["a", "b"], [(0, 2, 1.0)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            sa.graph_from_edges(["a", "a"], [(0, 1, 1.0)])

    def test_error_names_offending_edge(self):
        with pytest.raises(NonpositiveWeightError) as err:
            sa.graph_from_edges(["a", "b", "c"], [(0, 1, 1.0), (1, 2, -2.0)])
        assert "(1, 2" in str(err.value)

    @pytest.mark.parametrize(
        "labels, edges, error, message",
        [
            pytest.param(["a", "b"], [(0, 1)], InvalidArgumentError,
                         "edge (0, 1) is not an (i, j, weight) triple", id="pair"),
            pytest.param(["a", "b"], [(0.0, 1, 1.0)], IndexOutOfRangeError,
                         "edge (0.0, 1, 1.0): endpoints must be integers", id="float-endpoint"),
            pytest.param([], [], InvalidArgumentError, "a graph needs at least one node", id="no-nodes"),
        ],
    )
    def test_malformed_input_messages(self, labels, edges, error, message):
        with pytest.raises(error) as info:
            sa.graph_from_edges(labels, edges)
        assert type(info.value) is error
        assert str(info.value) == message


class TestMatrices:
    def test_triangle_adjacency(self, triangle):
        A = sa.adjacency_matrix(triangle)
        assert np.array_equal(A, np.ones((3, 3)) - np.eye(3))

    def test_edgeless_adjacency(self):
        g = sa.graph_from_edges(["a", "b", "c"], [])
        assert np.array_equal(sa.adjacency_matrix(g), np.zeros((3, 3)))

    def test_p3_adjacency(self, p3):
        A = sa.adjacency_matrix(p3)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(A, expected)

    def test_c4_is_2_regular(self, c4):
        assert np.array_equal(sa.degrees(c4), np.full(4, 2.0))

    def test_degree_matrix_is_adjacency_row_sums(self, bridged_triangles):
        A = sa.adjacency_matrix(bridged_triangles)
        D = np.diag(sa.degrees(bridged_triangles))
        assert np.array_equal(np.diag(D), A.sum(axis=1))
        assert np.array_equal(D, np.diag(np.diag(D)))

    def test_degrees_are_one_shared_read_only_array(self, bridged_triangles):
        edgeless = sa.graph_from_edges(["a", "b", "c"], [])
        for g in (bridged_triangles, edgeless, sa.sbm_generate(2, 5, 0.8, 0.2, seed=1)):
            d = sa.degrees(g)
            assert sa.degrees(g) is d
            assert d.dtype == np.float64 and not d.flags.writeable
            # bincount over no edges gives integers; the cached vector is float all the same
            assert np.array_equal(d, np.bincount(g.ei, g.w, g.n) + np.bincount(g.ej, g.w, g.n))
            with pytest.raises(ValueError):
                d[0] = 1.0
        assert sa.degrees(sa.graph_from_edges(["a", "b", "c"], [])) is not sa.degrees(edgeless)

    @pytest.mark.parametrize("weights", ["unit", "dyadic"])
    def test_degrees_are_the_dense_row_sums(self, weights):
        # unit and dyadic weights sum exactly in any order
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 40, 193):
            edges = [
                (i, j, 1.0 if weights == "unit" else float(rng.integers(1, 64)) / 16.0)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            g = sa.graph_from_edges([f"v{i}" for i in range(n)], edges)
            d = sa.degrees(g)
            assert d.dtype == np.float64
            assert np.array_equal(d, sa.adjacency_matrix(g).sum(axis=1))

    def test_p3_combinatorial_laplacian(self, p3):
        L = sa.laplacian(p3, sa.LaplacianKind.COMBINATORIAL)
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(np.asarray(L.matrix), expected)

    def test_triangle_combinatorial_laplacian(self, triangle):
        L = np.asarray(sa.laplacian(triangle, sa.LaplacianKind.COMBINATORIAL).matrix)
        assert np.array_equal(L, 3 * np.eye(3) - np.ones((3, 3)))

    def test_laplacian_is_degree_minus_adjacency_entrywise(self, bridged_triangles):
        L = np.asarray(sa.laplacian(bridged_triangles, sa.LaplacianKind.COMBINATORIAL).matrix)
        D = np.diag(sa.degrees(bridged_triangles))
        A = sa.adjacency_matrix(bridged_triangles)
        assert np.array_equal(L, D - A)

    def test_laplacian_zero_entries_are_positive_zero(self, bridged_triangles):
        L = np.asarray(sa.laplacian(bridged_triangles, sa.LaplacianKind.COMBINATORIAL).matrix)
        D = np.diag(sa.degrees(bridged_triangles))
        A = sa.adjacency_matrix(bridged_triangles)
        assert L.tobytes() == (D - A).tobytes()
        assert not np.signbit(L[L == 0.0]).any()

    def test_normalized_laplacian_unit_diagonal(self, bridged_triangles):
        L = np.asarray(sa.laplacian(bridged_triangles, sa.LaplacianKind.NORMALIZED).matrix)
        assert np.allclose(np.diag(L), 1.0)
        assert np.allclose(L, L.T)

    def test_normalized_laplacian_isolated_node_row_is_zero(self):
        g = sa.graph_from_edges(["a", "b", "c"], [(0, 1, 2.0)])
        L = np.asarray(sa.laplacian(g, sa.LaplacianKind.NORMALIZED).matrix)
        assert np.array_equal(L[2], np.zeros(3))
        assert np.array_equal(L[:, 2], np.zeros(3))
        assert L[2, 2] == 0.0

    def test_normalized_laplacian_is_exactly_symmetric_and_matches_the_dense_formula(self):
        rng = np.random.default_rng(25)
        with_isolated = 0
        for _ in range(300):
            linked, isolated = int(rng.integers(1, 14)), int(rng.integers(0, 3))
            n = linked + isolated
            perm = rng.permutation(n).tolist()
            edges = [
                (perm[i], perm[j], float(rng.choice([1.0, rng.uniform(0.05, 5)])))
                for i in range(linked)
                for j in range(i + 1, linked)
                if rng.random() < 0.5
            ]
            g = sa.graph_from_edges([f"v{i}" for i in range(n)], edges)
            with_isolated += bool((sa.degrees(g) == 0).any())
            M = sa.laplacian(g, sa.LaplacianKind.NORMALIZED).matrix
            assert np.array_equal(M, M.T)
            # the lower triangle is the one eigh and the subset driver read
            assert np.tril(M).tobytes() == np.tril(dense_normalized_laplacian(g)).tobytes()
        assert with_isolated > 100


class TestLaplacianMatrix:
    @pytest.mark.parametrize("M", [[[1.0, -1.0], [-1.0, 1.0]], np.array([[1, -1], [-1, 1]])], ids=["list", "int"])
    def test_stored_as_read_only_float64(self, M):
        L = sa.LaplacianMatrix(matrix=M)
        assert L.matrix.dtype == np.float64 and not L.matrix.flags.writeable
        assert np.array_equal(L.matrix, [[1.0, -1.0], [-1.0, 1.0]])
        assert sa.rayleigh_quotient(L, [1.0, -1.0]) == 2.0

    @pytest.mark.parametrize(
        "M, message",
        [
            pytest.param(np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)", id="not-square"),
            pytest.param([[1.0, 2.0], [0.0, 1.0]], "matrix asymmetry 2.00e+00 exceeds 1e-12", id="asymmetric"),
            pytest.param([[np.nan, 0.0], [0.0, 1.0]], "matrix asymmetry nan exceeds 1e-12", id="nan"),
        ],
    )
    def test_checked_when_made(self, M, message):
        # so rayleigh_quotient and the solvers never receive such a matrix
        with pytest.raises(NotSymmetricError) as info:
            sa.LaplacianMatrix(matrix=M)
        assert str(info.value) == message


@given(seed=st.integers(0, 10**6), n=st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_combinatorial_row_sums_vanish(seed, n):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    L = np.asarray(sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL).matrix)
    assert np.abs(L.sum(axis=1)).max() < 1e-12
    off = L - np.diag(np.diag(L))
    assert off.max() <= 0.0


class TestInducedSubgraph:
    def test_triangle_edge(self, triangle):
        sub = sa.induced_subgraph(triangle, [0, 2])
        assert sub.labels == ("a", "c")
        assert sub.edges == ((0, 1, 1.0),)

    def test_node_order_is_sorted(self, bridged_triangles):
        sub = sa.induced_subgraph(bridged_triangles, [5, 3, 4])
        assert sub.labels == ("w0", "w1", "w2")
        assert sub.n_edges == 3

    def test_empty_subset_rejected(self, triangle):
        with pytest.raises(EmptySubsetError):
            sa.induced_subgraph(triangle, [])

    def test_bad_index_rejected(self, triangle):
        with pytest.raises(IndexOutOfRangeError):
            sa.induced_subgraph(triangle, [0, 3])

    def test_duplicate_indices_collapse(self, triangle):
        assert sa.induced_subgraph(triangle, [0, 0, 2]).labels == ("a", "c")


class TestQuotient:
    def test_bridged_triangles_collapse_to_single_edge(self, bridged_triangles):
        p = sa.Partition(assignment=(0, 0, 0, 1, 1, 1), k=2)
        q = sa.quotient_graph(bridged_triangles, p)
        assert q.labels == ("c0", "c1")
        assert q.edges == ((0, 1, 1.0),)

    def test_crossing_weights_are_summed(self, c4):
        p = sa.Partition(assignment=(0, 1, 0, 1), k=2)
        q = sa.quotient_graph(c4, p)
        assert q.edges == ((0, 1, 4.0),)

    def test_identity_partition_keeps_no_edges(self, triangle):
        p = sa.Partition(assignment=(0, 0, 0), k=1)
        q = sa.quotient_graph(triangle, p)
        assert q.n == 1
        assert q.n_edges == 0

    def test_size_mismatch_rejected(self, triangle):
        with pytest.raises(PartitionMismatchError):
            sa.quotient_graph(triangle, sa.Partition(assignment=(0, 1), k=2))


@given(seed=st.integers(0, 10**6), n=st.integers(3, 14), k=st.integers(2, 4))
@settings(max_examples=50, deadline=None)
def test_quotient_conserves_crossing_weight(seed, n, k):
    """Quotient weight plus intra-cluster weight equals total weight."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    k = min(k, n)
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)
    remap = {int(a): t for t, a in enumerate(dict.fromkeys(int(x) for x in labels))}
    assignment = tuple(remap[int(a)] for a in labels)
    p = sa.Partition(assignment=assignment, k=len(remap))
    q = sa.quotient_graph(g, p)
    intra = sum(w for i, j, w in g.edges if assignment[i] == assignment[j])
    assert q.total_weight + intra == pytest.approx(g.total_weight, abs=1e-12)


def _assert_components_match_union_find(n, edges):
    g = sa.graph_from_edges([f"n{i}" for i in range(n)], edges)
    ours = sa.connected_components(g)
    assert all(c == sorted(c) for c in ours)
    assert [set(c) for c in ours] == union_find_components(n, edges)


def _relabelled(pairs, new):
    """Unit-weight edges of `pairs` with node v renamed new[v]."""
    return [(int(new[i]), int(new[j]), 1.0) for i, j in pairs]


@given(seed=st.integers(0, 10**6), n=st.integers(1, 300), degree=st.floats(0.0, 6.0))
@settings(max_examples=80, deadline=None)
def test_components_match_union_find(seed, n, degree):
    # the mean degree is drawn, not the edge probability, so large graphs fall apart too
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < degree / max(n - 1, 1), k=1)
    _assert_components_match_union_find(n, [(i, j, 1.0) for i, j in zip(*np.nonzero(upper))])


_SHAPES = {
    "single-node": (1, []),
    "edgeless": (6, []),
    # nodes 1, 4, 5 and 9 are isolated
    "isolated-nodes": (10, [(0, 2, 1.0), (2, 3, 1.0), (6, 7, 1.0), (7, 8, 1.0), (8, 6, 1.0)]),
    # every leaf hooks to the centre, the largest label
    "star-largest-centre": (50, [(i, 49, 1.0) for i in range(49)]),
    # node v of the heap-ordered binary tree is labelled 126 - v
    "binary-tree-reversed": (127, _relabelled([((v - 1) // 2, v) for v in range(1, 127)], np.arange(126, -1, -1))),
    # a 300-node path cut in two, with shuffled labels
    "shuffled-paths": (
        300,
        _relabelled([(v, v + 1) for v in range(299) if v != 149], np.random.default_rng(4).permutation(300)),
    ),
}


@pytest.mark.parametrize("n, edges", list(_SHAPES.values()), ids=list(_SHAPES))
def test_components_match_union_find_on_shapes(n, edges):
    _assert_components_match_union_find(n, edges)


def test_components_of_a_long_shuffled_path_take_milliseconds():
    n = 20_000
    edges = _relabelled([(v, v + 1) for v in range(n - 1)], np.random.default_rng(7).permutation(n))
    g = sa.graph_from_edges([f"n{i}" for i in range(n)], edges)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        comps = sa.connected_components(g)
        times.append(time.perf_counter() - start)
    assert comps == [list(range(n))]
    assert [set(c) for c in comps] == union_find_components(n, edges)
    assert min(times) < 0.05


def test_components_are_ordered_by_minimum_index(two_k3):
    comps = sa.connected_components(two_k3)
    assert comps == [[0, 1, 2], [3, 4, 5]]


class TestSbmGenerate:
    def test_deterministic(self):
        a = sa.sbm_generate(3, 4, 0.8, 0.1, seed=11)
        b = sa.sbm_generate(3, 4, 0.8, 0.1, seed=11)
        assert a.edges == b.edges
        assert a.labels == b.labels

    def test_labels_carry_block_and_offset(self):
        g = sa.sbm_generate(2, 3, 1.0, 0.0, seed=0)
        assert g.labels == ("b0n0", "b0n1", "b0n2", "b1n0", "b1n1", "b1n2")

    def test_extreme_probabilities_plant_disjoint_cliques(self):
        g = sa.sbm_generate(2, 4, 1.0, 0.0, seed=0)
        comps = sa.connected_components(g)
        assert comps == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert g.n_edges == 12

    def test_equal_probabilities_allowed(self):
        g = sa.sbm_generate(2, 3, 0.5, 0.5, seed=2)
        assert g.n == 6

    def test_probability_ordering_enforced(self):
        with pytest.raises(InvalidProbabilityError):
            sa.sbm_generate(2, 3, 0.2, 0.5, seed=0)

    def test_probability_range_enforced(self):
        with pytest.raises(InvalidProbabilityError):
            sa.sbm_generate(2, 3, 1.2, 0.1, seed=0)
        with pytest.raises(InvalidProbabilityError):
            sa.sbm_generate(2, 3, 0.8, -0.1, seed=0)

    @pytest.mark.parametrize("p_in, p_out", [("0.5", 0.1), (None, 0.1), (0.5, "0.1"), (0.5, None), (0.5, 0.1j)])
    def test_non_numeric_probabilities_rejected(self, p_in, p_out):
        with pytest.raises(InvalidProbabilityError, match=r"^probabilities must be real numbers"):
            sa.sbm_generate(2, 3, p_in, p_out, seed=0)

    @pytest.mark.parametrize("p_in, p_out", [(float("nan"), 0.1), (0.5, float("nan"))])
    def test_nan_probabilities_rejected(self, p_in, p_out):
        with pytest.raises(InvalidProbabilityError, match=r"^need 0 <= p_out <= p_in <= 1"):
            sa.sbm_generate(2, 3, p_in, p_out, seed=0)

    @pytest.mark.parametrize(
        "blocks, nodes_per_block, seed, message",
        [
            (1, 4, 0, "need at least 2 blocks"),
            (2, 1, 0, "need at least 2 nodes per block"),
            (2.0, 4, 0, "blocks must be an integer, got 2.0"),
            (2, 3.5, 0, "nodes_per_block must be an integer, got 3.5"),
            (2, 3, None, "seed must be an integer, got None"),
            (2, 3, 1.5, "seed must be an integer, got 1.5"),
            (2, 3, 3.0, "seed must be an integer, got 3.0"),
            (2, 3, "7", "seed must be an integer, got '7'"),
            (2, 3, -1, "seed must be nonnegative, got -1"),
            (2, 3, np.int64(-5), "seed must be nonnegative, got -5"),
        ],
    )
    def test_argument_preconditions(self, blocks, nodes_per_block, seed, message):
        with pytest.raises(InvalidArgumentError) as info:
            sa.sbm_generate(blocks, nodes_per_block, 0.8, 0.1, seed=seed)
        assert str(info.value) == message

    def test_integer_like_arguments_give_the_int_graph(self):
        a = sa.sbm_generate(np.int64(3), np.int32(4), 0.8, 0.1, seed=np.uint64(11))
        b = sa.sbm_generate(3, 4, 0.8, 0.1, seed=11)
        assert a.labels == b.labels and a.edges == b.edges

    def test_seed_changes_draws(self):
        a = sa.sbm_generate(3, 5, 0.7, 0.1, seed=1)
        b = sa.sbm_generate(3, 5, 0.7, 0.1, seed=2)
        assert a.edges != b.edges
