"""Sign cuts, threshold cuts, recursive and k-way clustering, cut metrics."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectral_abstraction as sa
from spectral_abstraction import nonlinear, partition
from spectral_abstraction.errors import (
    ConstantVectorError,
    InvalidArgumentError,
    InvalidFractionalExponentError,
    KOutOfRangeError,
    NotEnoughSplittableClustersError,
    PartitionMismatchError,
    TooFewDistinctPointsError,
)
from spectral_abstraction.spectral import Embedding

from conftest import random_connected_graph
from oracles import (
    add_at_connectivity_profile,
    add_at_cut_metrics,
    best_assignment,
    direct_cut_metrics,
    kmeans_objective,
    loop_centers,
    loop_kway_embedding_cluster,
    loop_lloyd,
    loop_pairwise_distances,
    loop_partition_check,
    scan_threshold_partition,
    set_split_once,
)


def embed(g, dim):
    s = sa.graph_spectrum(g, sa.LaplacianKind.COMBINATORIAL)
    return sa.spectral_embedding(s, dim)


@pytest.mark.parametrize(
    "assignment,k,error",
    [
        ((0, 0), 0, KOutOfRangeError),
        ((), 1, PartitionMismatchError),
        ((0, 2), 2, PartitionMismatchError),
        ((0, 0), 2, PartitionMismatchError),
        ((0, 1.0), 2, PartitionMismatchError),
        (("x",), 1, PartitionMismatchError),
        ((None,), 1, PartitionMismatchError),
    ],
)
def test_partition_rejects_malformed_assignments(assignment, k, error):
    with pytest.raises(error):
        sa.Partition(assignment=assignment, k=k)


@pytest.mark.parametrize(
    "assignment, k, error, message",
    [
        ((0, 1), 2.0, InvalidArgumentError, "k must be an integer, got 2.0"),
        ((0, 1), np.float64(2.0), InvalidArgumentError, f"k must be an integer, got {np.float64(2.0)!r}"),
        ((0, 1), "2", InvalidArgumentError, "k must be an integer, got '2'"),
        ((0, 1), None, InvalidArgumentError, "k must be an integer, got None"),
        (np.array(1), 2, PartitionMismatchError, "assignment must be a sequence of ids"),
        (5, 1, PartitionMismatchError, "assignment must be a sequence of ids"),
        (iter([0, 1]), 2, PartitionMismatchError, "assignment must be a sequence of ids"),
        ({0, 1}, 2, PartitionMismatchError, "assignment ids must be integers in 0..k-1"),
        # inputs a toolkit error rejected before keep that error
        ((0, 1), 0.5, KOutOfRangeError, "k must be at least 1, got 0.5"),
        ((), 2.0, PartitionMismatchError, "assignment must cover at least one node"),
        ((0, 1, 2), 2.0, PartitionMismatchError, "assignment ids must be integers in 0..k-1"),
    ],
    ids=["float-k", "numpy-float-k", "str-k", "none-k", "0-d-array", "int", "iterator", "set",
         "k-below-1", "empty", "id-beyond-float-k"],
)
def test_partition_rejects_a_non_integer_k_or_an_unsized_assignment_with_toolkit_errors(
    assignment, k, error, message
):
    with pytest.raises(error) as info:
        sa.Partition(assignment=assignment, k=k)
    assert str(info.value) == message


_NOT_IDS = "assignment ids must be integers in 0..k-1"


@pytest.mark.parametrize(
    "assignment, k, message",
    [
        pytest.param((0, 1.0), 2, _NOT_IDS, id="float"),
        pytest.param(("x",), 1, _NOT_IDS, id="string"),
        pytest.param((None,), 1, _NOT_IDS, id="none"),
        pytest.param((0, 2), 2, _NOT_IDS, id="above-k"),
        pytest.param((0, -1, 1), 2, _NOT_IDS, id="negative"),
        pytest.param((0, np.True_), 2, _NOT_IDS, id="numpy-bool"),
        pytest.param((False, True, True), 2, _NOT_IDS, id="python-bools"),
        pytest.param((0, np.array(1)), 2, _NOT_IDS, id="zero-dim-array"),
        pytest.param((0, 2**70), 2, _NOT_IDS, id="beyond-int64"),
        pytest.param(np.array([False, True]), 2, _NOT_IDS, id="bool-array"),
        pytest.param(np.array([0.0, 1.0]), 2, _NOT_IDS, id="float-array"),
        pytest.param(np.array([[0, 1], [1, 0]]), 2, _NOT_IDS, id="2d-array"),
        pytest.param(np.array([0, -1, 1], dtype=np.int8), 2, _NOT_IDS, id="negative-int8-array"),
        pytest.param((0, 0), 2, "every cluster id in 0..1 must occur at least once", id="unused-id"),
        pytest.param((0, 1), 3, "every cluster id in 0..2 must occur at least once", id="k-above-n"),
        pytest.param((), 1, "assignment must cover at least one node", id="empty"),
        pytest.param((0,), 0, "k must be at least 1, got 0", id="k-zero"),
    ],
)
def test_partition_check_messages(assignment, k, message):
    with pytest.raises((PartitionMismatchError, KOutOfRangeError)) as info:
        sa.Partition(assignment=assignment, k=k)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "assignment, k",
    [
        pytest.param((np.int64(0), np.int64(1)), 2, id="numpy-int64"),
        pytest.param((np.uint8(1), 0, np.int32(2)), 3, id="mixed-integer-types"),
        pytest.param((0, 1, 1), np.int64(2), id="numpy-k"),
        pytest.param(np.array([0, 2, 1], dtype=np.int32), 3, id="int32-array"),
        pytest.param(np.array([1, 0], dtype=np.uint8), 2, id="uint8-array"),
        pytest.param([0, 1, 0], 2, id="list"),
    ],
)
def test_partition_accepts_any_integer_entries(assignment, k):
    assert sa.Partition(assignment=assignment, k=k).assignment.tolist() == [int(a) for a in assignment]


_ENTRIES = st.one_of(
    st.integers(-2, 5),
    st.booleans(),
    st.integers(-2, 5).map(np.int64),
    st.integers(0, 5).map(np.uint64),
    st.integers(0, 5).map(np.array),
    st.sampled_from([1.0, np.float64(0.0), None, "x", 2**70, -(2**70), np.True_]),
)


def _raised(make):
    try:
        make()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return None


def _given_as(assignment: tuple, dtype):
    """The tuple itself, or its ids as a dtype array when each is a Python int the dtype holds."""
    if dtype is None:
        return assignment
    info = np.iinfo(dtype)
    if all(type(a) is int and info.min <= a <= info.max for a in assignment):
        return np.array(assignment, dtype=dtype)
    return assignment


@given(
    assignment=st.one_of(st.lists(st.integers(0, 5), max_size=12), st.lists(_ENTRIES, max_size=8)).map(tuple),
    k=st.one_of(st.integers(-1, 7), st.integers(1, 7).map(np.int64), st.sampled_from([2.0, 0.5, "2", None])),
    dtype=st.sampled_from([None, np.int64, np.int32, np.uint8]),
)
@settings(max_examples=400, deadline=None)
def test_partition_checks_match_the_per_entry_loop(assignment, k, dtype):
    given = _given_as(assignment, dtype)
    raised = _raised(lambda: sa.Partition(assignment=given, k=k))
    assert raised == _raised(lambda: loop_partition_check(assignment, k))
    assert raised is None or issubclass(raised[0], sa.errors.ToolkitError)


def test_partition_keeps_its_own_read_only_copy():
    ids = np.array([0, 1, 1, 2])
    p = sa.Partition(assignment=ids, k=3)
    ids[0] = 2
    assert p.assignment.tolist() == [0, 1, 1, 2]
    assert p.assignment.dtype == np.int64
    assert not p.assignment.flags.writeable
    with pytest.raises(ValueError):
        p.assignment[0] = 1


def test_partition_equality_and_hash_follow_the_ids():
    from_tuple = sa.Partition(assignment=(0, 1, 1), k=2)
    for ids in (np.array([0, 1, 1]), np.array([0, 1, 1], dtype=np.uint8), [0, 1, 1]):
        same = sa.Partition(assignment=ids, k=2)
        assert same == from_tuple
        assert hash(same) == hash(from_tuple)
    assert sa.Partition(assignment=(0, 1, 2), k=3) != sa.Partition(assignment=(0, 1, 1), k=2)
    assert sa.Partition(assignment=(1, 0, 0), k=2) != from_tuple
    assert sa.Partition(assignment=(0, 1, 1, 1), k=2) != from_tuple
    assert from_tuple != (0, 1, 1)
    assert len({from_tuple, sa.Partition(assignment=np.array([0, 1, 1]), k=np.int64(2))}) == 1


def test_an_array_k_is_stored_as_its_int_or_rejected():
    p = sa.Partition(assignment=(0, 1), k=np.array(2))
    assert type(p.k) is int and p.k == 2
    plain = sa.Partition(assignment=(0, 1), k=2)
    assert p == plain and hash(p) == hash(plain)
    assert type(sa.Partition(assignment=(0, 1), k=np.int64(2)).k) is int
    with pytest.raises(InvalidArgumentError) as info:
        sa.Partition(assignment=(0, 1), k=np.array([0, 1]))
    assert str(info.value) == "k must be an integer, got array([0, 1])"


class TestSignBipartition:
    def test_negatives_form_cluster_one(self, c4):
        p = sa.sign_bipartition(c4, np.array([-1.0, -2.0, 3.0, 4.0]))
        assert p.assignment.tolist() == [1, 1, 0, 0]

    def test_near_zero_entries_join_the_positive_side(self, c4):
        p = sa.sign_bipartition(c4, np.array([1e-15, -1.0, 1.0, -1.0]))
        assert p.assignment.tolist() == [0, 1, 0, 1]

    def test_bridged_fiedler_recovers_planted_split(self, bridged_triangles):
        v = sa.fiedler_vector(sa.graph_spectrum(bridged_triangles, sa.LaplacianKind.COMBINATORIAL))
        p = sa.sign_bipartition(bridged_triangles, v)
        assert p.k == 2
        assert len(set(p.assignment[:3].tolist())) == 1
        assert p.assignment[0] != p.assignment[3]
        assert p.assignment[3] == p.assignment[4] == p.assignment[5]

    def test_all_positive_vector_rejected(self, triangle):
        with pytest.raises(ConstantVectorError):
            sa.sign_bipartition(triangle, np.array([1.0, 2.0, 3.0]))

    def test_length_mismatch_rejected(self, triangle):
        with pytest.raises(PartitionMismatchError):
            sa.sign_bipartition(triangle, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, c4, bad):
        with pytest.raises(InvalidArgumentError):
            sa.sign_bipartition(c4, np.array([bad, 0.3, -1.0, 2.0]))


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(3, 12),
    scale=st.floats(1e-6, 1e6),
)
@settings(max_examples=50, deadline=None)
def test_sign_cut_is_invariant_under_positive_scaling(seed, n, scale):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    v = rng.normal(size=n)
    if (v < 0).all() or (v >= 0).all():
        v[0] = 1.0
        v[1] = -1.0
    a = sa.sign_bipartition(g, v)
    b = sa.sign_bipartition(g, v * scale)
    assert a.assignment.tolist() == b.assignment.tolist()


class TestThresholdPartition:
    @pytest.mark.parametrize("selection", sa.SELECTIONS)
    def test_matches_exhaustive_threshold_scan(self, selection):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            g = random_connected_graph(rng, n)
            f = rng.normal(size=n)
            p = sa.threshold_partition(g, f, selection)
            achieved = direct_cut_metrics(n, g.edges, list(p.assignment))[
                {"cheeger": "cheeger", "ratio": "ratio_cut", "normalized": "normalized_cut"}[selection]
            ]
            order = np.argsort(f, kind="stable")
            best = min(
                direct_cut_metrics(
                    n,
                    g.edges,
                    [0 if np.where(order == i)[0][0] < t else 1 for i in range(n)],
                )[{"cheeger": "cheeger", "ratio": "ratio_cut", "normalized": "normalized_cut"}[selection]]
                for t in range(1, n)
            )
            assert achieved <= best + 1e-12

    def test_unknown_selection_rejected(self, c4):
        with pytest.raises(ValueError):
            sa.threshold_partition(c4, np.arange(4, dtype=np.float64), "bogus")

    def test_length_mismatch_rejected(self, c4):
        with pytest.raises(PartitionMismatchError):
            sa.threshold_partition(c4, np.arange(3, dtype=np.float64))

    def test_one_node_rejected(self):
        with pytest.raises(PartitionMismatchError):
            sa.threshold_partition(sa.graph_from_edges(["a"], []), np.zeros(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, c4, bad):
        with pytest.raises(InvalidArgumentError):
            sa.threshold_partition(c4, np.array([0.1, bad, -1.0, 2.0]))

    @pytest.mark.parametrize("f", [[1.0, 1.0, 1.0, 1.0], [0.0] * 4, [1.0, 1.0 + 1e-15, 1.0, 1.0 - 1e-15]])
    def test_a_vector_without_level_gaps_is_rejected(self, c4, f):
        with pytest.raises(ConstantVectorError):
            sa.threshold_partition(c4, np.array(f))

    def test_entries_within_rounding_noise_stay_together(self, c4):
        # {0, 1} would be the best cut (Cheeger 0.5), but only noise separates 1 from 2
        for noise in (-1e-16, 0.0, 1e-16):
            p = sa.threshold_partition(c4, np.array([-1.0, 0.5 + noise, 0.5, 2.0]))
            assert p.assignment[1] == p.assignment[2]


@st.composite
def sweep_inputs(draw):
    """A graph and a vector covering equal, tenth, real and wildly mixed
    edge weights, repeated f values, and orders that admit a zero cut."""
    n = draw(st.integers(2, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weight = draw(st.sampled_from([
        st.just(1.0),
        # tenths tie often in exact arithmetic but not after rounding
        st.integers(1, 9).map(lambda x: x / 10),
        st.floats(0.01, 100.0),
        # wide enough that sums lose the small weights entirely
        st.sampled_from([1e-9, 1.0, 1e8]),
    ]))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    f_kind = draw(st.sampled_from(["distinct", "repeated", "zero-cut"]))
    if f_kind == "repeated":
        f = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    else:
        f = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n, unique=True))
    if f_kind == "zero-cut":
        # no edge joins the s lowest entries of f to the rest
        s = draw(st.integers(1, n - 1))
        low = set(np.argsort(f, kind="stable")[:s].tolist())
        present = [keep and ((i in low) == (j in low)) for keep, (i, j) in zip(present, pairs)]
    edges = [(i, j, w) for keep, (i, j), w in zip(present, pairs, weights) if keep]
    return sa.graph_from_edges([f"n{i}" for i in range(n)], edges), np.array(f, dtype=np.float64)


def _threshold_outcome(threshold, g, f, selection):
    try:
        return threshold(g, f, selection).assignment.tolist()
    except ConstantVectorError:
        return "constant"


@given(
    case=sweep_inputs(),
    selection=st.sampled_from(sa.SELECTIONS),
    ulps=st.lists(st.integers(-4, 4), min_size=14, max_size=14),
)
@settings(max_examples=300, deadline=None)
def test_sweep_picks_the_same_threshold_as_the_scan(case, selection, ulps):
    g, f = case
    fast = _threshold_outcome(sa.threshold_partition, g, f, selection)
    assert fast == _threshold_outcome(scan_threshold_partition, g, f, selection)
    if len(set(f.tolist())) < f.size and np.abs(f).max() > 0:
        # tied entries moved apart by a few ulps of the vector's scale
        nudged = f + np.array(ulps[: f.size]) * np.spacing(np.abs(f).max())
        assert _threshold_outcome(sa.threshold_partition, g, nudged, selection) == fast


class TestRecursiveSpectra:
    @pytest.mark.parametrize(
        "split",
        [
            pytest.param(sa.recursive_bipartition, id="linear"),
            pytest.param(
                lambda g, k: nonlinear.p_recursive_bipartition(g, k, sa.PLaplacianParams(p=1.5)),
                id="p",
            ),
        ],
    )
    def test_each_cluster_is_solved_once(self, monkeypatch, split):
        # one spectrum for the whole graph, then one per half of every split but the last
        g = sa.sbm_generate(5, 12, 0.8, 0.02, seed=3)
        assert len(sa.connected_components(g)) == 1
        calls = []
        real = partition.graph_spectrum

        def counting(*args, **kwargs):
            calls.append(args[0].n)
            return real(*args, **kwargs)

        monkeypatch.setattr(partition, "graph_spectrum", counting)
        monkeypatch.setattr(nonlinear, "graph_spectrum", counting)
        for k in range(2, 6):
            calls.clear()
            split(g, k)
            assert len(calls) == 2 * k - 3

    def test_recursive_splits_match_the_scan(self, monkeypatch):
        graphs = [sa.sbm_generate(4, 12, 0.5, 0.05, seed=s) for s in range(6)]
        small = [sa.sbm_generate(2, 8, 0.8, 0.1, seed=s) for s in range(3)]
        params = sa.PLaplacianParams(p=1.5)

        def run():
            linear = [sa.recursive_bipartition(g, 4).assignment.tolist() for g in graphs]
            p = [nonlinear.p_recursive_bipartition(g, 2, params).assignment.tolist() for g in small]
            return linear, p

        fast = run()
        monkeypatch.setattr(partition, "threshold_partition", scan_threshold_partition)
        monkeypatch.setattr(nonlinear, "threshold_partition", scan_threshold_partition)
        assert run() == fast


class TestRecursiveBipartition:
    def test_bridged_k2_is_planted(self, bridged_triangles):
        p = sa.recursive_bipartition(bridged_triangles, 2)
        assert p.assignment.tolist() == [0, 0, 0, 1, 1, 1]

    def test_k1_is_a_single_cluster(self, bridged_triangles):
        p = sa.recursive_bipartition(bridged_triangles, 1)
        assert p.assignment.tolist() == [0] * 6

    def test_components_split_before_any_fiedler_cut(self, two_k3):
        p = sa.recursive_bipartition(two_k3, 2)
        assert p.assignment.tolist() == [0, 0, 0, 1, 1, 1]

    def test_labels_follow_minimum_node_index(self, bridged_triangles):
        for k in (2, 3, 4):
            p = sa.recursive_bipartition(bridged_triangles, k)
            seen: list[int] = []
            for a in p.assignment:
                if a not in seen:
                    seen.append(a)
            assert seen == sorted(seen)

    @pytest.mark.parametrize("nudge", [-1e-13, 0.0, 1e-13])
    def test_near_equal_lambda2_splits_the_larger_cluster(self, monkeypatch, nudge):
        # two disjoint stars, of 4 and 6 nodes, both with lambda_2 = 1
        edges = [(0, i, 1.0) for i in (1, 2, 3)] + [(4, i, 1.0) for i in range(5, 10)]
        g = sa.graph_from_edges([f"n{i}" for i in range(10)], edges)
        real = partition.algebraic_connectivity

        def nudged(s):
            return real(s) * (1.0 + nudge) if s.n == 4 else real(s)

        monkeypatch.setattr(partition, "algebraic_connectivity", nudged)
        a = sa.recursive_bipartition(g, 3).assignment
        assert len(set(a[:4])) == 1
        assert len(set(a[4:])) == 2

    def test_k_out_of_range(self, triangle):
        with pytest.raises(KOutOfRangeError):
            sa.recursive_bipartition(triangle, 4)
        with pytest.raises(KOutOfRangeError):
            sa.recursive_bipartition(triangle, 0)


_SPLITS = [
    pytest.param(sa.recursive_bipartition, id="linear"),
    pytest.param(lambda g, k: nonlinear.p_recursive_bipartition(g, k, sa.PLaplacianParams(p=1.5)), id="p"),
]


class TestRecursiveComponents:
    """lambda_2 of the whole graph decides whether its components are needed."""

    @staticmethod
    def counting_components(monkeypatch) -> list:
        calls = []
        real = partition.connected_components

        def counting(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(partition, "connected_components", counting)
        return calls

    @pytest.mark.parametrize("split", _SPLITS)
    def test_a_connected_graph_skips_the_components_pass(self, monkeypatch, split):
        calls = self.counting_components(monkeypatch)
        g = sa.sbm_generate(3, 6, 0.9, 0.1, seed=5)
        for k in (2, 3, 4):
            split(g, k)
        assert calls == []

    @pytest.mark.parametrize("split", _SPLITS)
    def test_an_isolated_node_is_split_off_by_one_components_pass(self, monkeypatch, split):
        calls = self.counting_components(monkeypatch)
        base = sa.sbm_generate(3, 6, 0.9, 0.1, seed=5)
        # node 7 is isolated; the SBM's nodes from 7 on move up by one
        edges = [(i + (i >= 7), j + (j >= 7), w) for i, j, w in base.edges]
        g = sa.graph_from_edges([f"v{i}" for i in range(19)], edges)
        expected = {
            2: [0] * 7 + [1] + [0] * 11,
            3: [0] * 6 + [1, 2] + [1] * 11,
            4: [0] * 6 + [1, 2] + [1] * 5 + [3] * 6,
        }
        for k, assignment in expected.items():
            calls.clear()
            assert split(g, k).assignment.tolist() == assignment
            assert calls == [19]

    @pytest.mark.parametrize("split", _SPLITS)
    def test_component_errors_keep_their_messages(self, split, two_k3):
        edgeless = sa.graph_from_edges(["a", "b", "c", "d"], [])
        cases = [
            (edgeless, 1, "graph has 4 connected components, cannot form k=1 clusters"),
            (edgeless, 2, "graph has 4 connected components, cannot form k=2 clusters"),
            (edgeless, 5, "k=5 outside 1..4"),
            (two_k3, 1, "graph has 2 connected components, cannot form k=1 clusters"),
            (two_k3, 7, "k=7 outside 1..6"),
        ]
        for g, k, message in cases:
            with pytest.raises(KOutOfRangeError) as info:
                split(g, k)
            assert str(info.value) == message
        assert split(edgeless, 4).assignment.tolist() == [0, 1, 2, 3]


class TestNumericallyZeroLambda2:
    """A connected cluster whose lambda_2 is at most 1e-9 has no cut to make."""

    # lambda_2 is about 1e-12 at this weight scale and at mean weight 1, where the p route tests it
    PATH = sa.graph_from_edges(["a", "b", "c"], [(0, 1, 1e-12), (1, 2, 1.0)])

    @pytest.mark.parametrize("split", _SPLITS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_a_connected_cluster_is_not_split(self, split, k):
        with pytest.raises(NotEnoughSplittableClustersError) as info:
            split(self.PATH, k)
        assert str(info.value) == "cluster [0, 1, 2] admits no further spectral split"

    @pytest.mark.parametrize("split", _SPLITS)
    def test_the_root_is_solved_once(self, monkeypatch, split):
        # the components pass returns the whole graph, so its spectrum stays valid
        calls = []
        real = partition.graph_spectrum

        def counting(*args, **kwargs):
            calls.append(args[0].n)
            return real(*args, **kwargs)

        monkeypatch.setattr(partition, "graph_spectrum", counting)
        monkeypatch.setattr(nonlinear, "graph_spectrum", counting)
        with pytest.raises(NotEnoughSplittableClustersError) as info:
            split(self.PATH, 2)
        assert str(info.value) == "cluster [0, 1, 2] admits no further spectral split"
        assert calls == [3]

    @pytest.mark.parametrize("split", _SPLITS)
    def test_k1_is_the_whole_graph(self, split):
        assert split(self.PATH, 1) == sa.Partition(assignment=(0, 0, 0), k=1)

    @pytest.mark.parametrize("split", _SPLITS)
    def test_components_still_split_off(self, split):
        g = sa.graph_from_edges(list("abcde"), [(0, 1, 1.0), (2, 3, 1e-12), (3, 4, 1e-12)])
        assert split(g, 2).assignment.tolist() == [0, 0, 1, 1, 1]
        with pytest.raises(NotEnoughSplittableClustersError) as info:
            split(g, 3)
        assert str(info.value) == "cluster [2, 3, 4] admits no further spectral split"


@given(seed=st.integers(0, 10**6), n=st.integers(4, 14), k=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_recursive_partition_has_exactly_k_nonempty_clusters(seed, n, k):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    k = min(k, n)
    p = sa.recursive_bipartition(g, k)
    counts = np.bincount(np.array(p.assignment), minlength=k)
    assert p.k == k
    assert (counts > 0).all()
    assert len(p.assignment) == n


class TestKwayCluster:
    def test_bridged_dim1_recovers_planted_for_every_metric(self, bridged_triangles):
        e = embed(bridged_triangles, 1)
        for metric in sa.METRICS:
            p = sa.kway_embedding_cluster(e, 2, metric=metric)
            assert p.assignment.tolist() == [0, 0, 0, 1, 1, 1], metric

    def test_coincident_block_points_are_never_separated(self, two_k3):
        e = embed(two_k3, 1)
        p = sa.kway_embedding_cluster(e, 2)
        assert p.assignment.tolist() == [0, 0, 0, 1, 1, 1]

    def test_same_seed_is_deterministic(self, bridged_triangles):
        e = embed(bridged_triangles, 2)
        a = sa.kway_embedding_cluster(e, 3, seed=7)
        b = sa.kway_embedding_cluster(e, 3, seed=7)
        assert a == b

    def test_first_occurrence_relabeling(self, bridged_triangles):
        e = embed(bridged_triangles, 2)
        for seed in range(5):
            p = sa.kway_embedding_cluster(e, 3, seed=seed)
            seen: list[int] = []
            for a in p.assignment:
                if a not in seen:
                    seen.append(a)
            assert seen == list(range(3))

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_matches_brute_force_on_small_embeddings(self, metric):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 9))
            g = random_connected_graph(rng, n)
            e = embed(g, min(2, n - 1))
            pts = np.asarray(e.coordinates)
            for k in (2, 3):
                p = sa.kway_embedding_cluster(e, k, metric=metric)
                ours = kmeans_objective(pts, list(p.assignment), k, metric, 0.5)
                opt, _ = best_assignment(pts, k, metric, 0.5)
                assert ours <= opt + 1e-9, (seed, k, metric)

    def test_fractional_objective_never_beats_exhaustive_search(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            g = random_connected_graph(rng, 7)
            e = embed(g, 2)
            pts = np.asarray(e.coordinates)
            p = sa.kway_embedding_cluster(e, 2, metric="fractional", q=0.5)
            ours = kmeans_objective(pts, list(p.assignment), 2, "fractional", 0.5)
            opt, _ = best_assignment(pts, 2, "fractional", 0.5)
            assert ours >= opt - 1e-12

    def test_lloyd_at_its_iteration_cap_scores_the_assignment_against_its_moved_centers(self, monkeypatch):
        monkeypatch.setattr(partition, "_KMEANS_MAX_ITER", 1)
        pts = np.random.default_rng(4).normal(size=(12, 2))
        assign, objective = partition._lloyd(pts, 3, "euclidean", 0.5, pts[:3].copy())
        centers = np.array([pts[assign == c].mean(axis=0) for c in range(3)])
        assert objective == pytest.approx(np.linalg.norm(pts - centers[assign], axis=1).sum(), rel=1e-12)
        # the starting centers score the same assignment differently
        assert objective != pytest.approx(np.linalg.norm(pts - pts[:3][assign], axis=1).sum(), rel=1e-6)

    def test_unknown_metric_rejected(self, c4):
        with pytest.raises(ValueError):
            sa.kway_embedding_cluster(embed(c4, 1), 2, metric="bogus")

    def test_fractional_exponent_bounds(self, c4):
        e = embed(c4, 1)
        with pytest.raises(InvalidFractionalExponentError):
            sa.kway_embedding_cluster(e, 2, metric="fractional", q=1.5)
        with pytest.raises(InvalidFractionalExponentError):
            sa.kway_embedding_cluster(e, 2, metric="fractional", q=0.0)

    def test_negative_seed_rejected(self, bridged_triangles):
        with pytest.raises(InvalidArgumentError):
            sa.kway_embedding_cluster(embed(bridged_triangles, 1), 2, seed=-1)

    def test_k_bounds(self, c4):
        e = embed(c4, 1)
        with pytest.raises(KOutOfRangeError):
            sa.kway_embedding_cluster(e, 5)

    def test_too_few_distinct_points(self):
        coords = np.array([[0.0], [0.0], [1.0], [1.0]])
        e = Embedding(coordinates=coords, dim=1)
        with pytest.raises(TooFewDistinctPointsError):
            sa.kway_embedding_cluster(e, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        coords = np.array([[0.0], [1.0], [bad], [2.0], [5.0], [bad]])
        with pytest.raises(InvalidArgumentError, match="finite"):
            sa.kway_embedding_cluster(Embedding(coordinates=coords, dim=1), 2)


def _embedding_points(seed: int, n: int, d: int, repeats: int, rounded: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    if rounded:
        pts = np.round(pts, 1)
    pts[rng.integers(0, n, repeats)] = pts[rng.integers(0, n, repeats)]
    return pts


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 40),
    d=st.integers(1, 12),
    k=st.integers(1, 6),
    metric=st.sampled_from(sa.METRICS),
    repeats=st.integers(0, 12),
    rounded=st.booleans(),
)
@example(seed=0, n=40, d=1, k=5, metric="euclidean", repeats=0, rounded=False)
@example(seed=1, n=40, d=9, k=4, metric="euclidean", repeats=6, rounded=False)
@example(seed=2, n=30, d=12, k=3, metric="fractional", repeats=12, rounded=True)
@example(seed=736922, n=13, d=8, k=2, metric="manhattan", repeats=0, rounded=True)
@example(seed=736923, n=14, d=8, k=2, metric="manhattan", repeats=0, rounded=True)
@settings(max_examples=80, deadline=None)
def test_kmeans_matches_the_array_loop(seed, n, d, k, metric, repeats, rounded):
    """Same assignments, distances and objectives as the n x k x d loop, bit for bit.

    The loop adds each distance's coordinates, and each cluster's rows,
    strictly in order, as the array code does; numpy's own sums may add
    pairwise, and at d = 8 that moved a tied rounded point. Centers are
    compared by value: a zero may differ in sign, which no distance sees.
    """
    pts = _embedding_points(seed, n, d, repeats, rounded)
    k = min(k, np.unique(pts, axis=0).shape[0])
    rng = np.random.default_rng(seed + 1)
    centers = pts[rng.choice(n, k, replace=False)]
    D = partition._pairwise_distances(pts, centers, metric, 0.5)
    assert D.tobytes() == loop_pairwise_distances(pts, centers, metric, 0.5).tobytes()
    assign = D.argmin(axis=1)
    counts = np.bincount(assign, minlength=k)
    if (counts > 0).all():
        assert np.array_equal(partition._centers(pts, assign, counts, metric), loop_centers(pts, assign, k, metric))
    ours, objective = partition._lloyd(pts, k, metric, 0.5, centers.copy())
    theirs, loop_objective = loop_lloyd(pts, k, metric, 0.5, centers.copy())
    assert np.array_equal(ours, theirs)
    assert objective == loop_objective
    e = Embedding(coordinates=pts, dim=d)
    assert tuple(sa.kway_embedding_cluster(e, k, metric, 0.5, seed).assignment.tolist()) == loop_kway_embedding_cluster(
        pts, k, metric, 0.5, seed
    )


class TestCutMetrics:
    def test_single_edge_bipartition(self):
        g = sa.graph_from_edges(["a", "b"], [(0, 1, 1.0)])
        m = sa.cut_metrics(g, sa.Partition(assignment=(0, 1), k=2))
        assert m.cut_weight == 1.0
        assert m.ratio_cut == 2.0
        assert m.normalized_cut == 2.0
        assert m.cheeger == 1.0

    def test_bridged_planted_values(self, bridged_triangles):
        m = sa.cut_metrics(bridged_triangles, sa.Partition(assignment=(0, 0, 0, 1, 1, 1), k=2))
        assert abs(m.cut_weight - 1.0) < 1e-12
        assert abs(m.ratio_cut - 2.0 / 3.0) < 1e-12
        assert abs(m.normalized_cut - 2.0 / 7.0) < 1e-12
        assert abs(m.cheeger - 1.0 / 7.0) < 1e-12

    def test_zero_cut_scores_zero_everywhere(self, two_k3):
        m = sa.cut_metrics(two_k3, sa.Partition(assignment=(0, 0, 0, 1, 1, 1), k=2))
        assert m.cut_weight == 0.0
        assert m.ratio_cut == 0.0
        assert m.normalized_cut == 0.0
        assert m.cheeger == 0.0

    def test_single_cluster_scores_zero(self, triangle):
        m = sa.cut_metrics(triangle, sa.Partition(assignment=(0, 0, 0), k=1))
        assert m.cut_weight == 0.0
        assert m.cheeger == 0.0

    def test_partition_size_mismatch(self, triangle):
        with pytest.raises(PartitionMismatchError):
            sa.cut_metrics(triangle, sa.Partition(assignment=(0, 1), k=2))


@given(seed=st.integers(0, 10**6), n=st.integers(3, 14), k=st.integers(2, 4))
@settings(max_examples=50, deadline=None)
def test_cut_metrics_match_direct_edge_loop(seed, n, k):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    k = min(k, n)
    labels = np.zeros(n, dtype=np.int64)
    labels[: k] = np.arange(k)
    rng.shuffle(labels)
    # first-occurrence relabel keeps the assignment canonical for Partition
    remap: dict[int, int] = {}
    canon = []
    for a in labels.tolist():
        if a not in remap:
            remap[a] = len(remap)
        canon.append(remap[a])
    p = sa.Partition(assignment=tuple(canon), k=k)
    ours = sa.cut_metrics(g, p)
    ref = direct_cut_metrics(n, g.edges, canon)
    assert abs(ours.cut_weight - ref["cut_weight"]) < 1e-9
    assert abs(ours.ratio_cut - ref["ratio_cut"]) < 1e-9
    assert abs(ours.normalized_cut - ref["normalized_cut"]) < 1e-9
    assert abs(ours.cheeger - ref["cheeger"]) < 1e-9


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 30),
    k=st.integers(1, 12),
    p=st.floats(0.0, 1.0),
    wide=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_cut_metrics_and_profile_match_the_scatter_loops_bit_for_bit(seed, n, k, p, wide):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    edges = [(i, j, float(10.0 ** rng.uniform(-9, 8)) if wide else float(rng.uniform(0.1, 3.0)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = sa.graph_from_edges([f"v{i}" for i in range(n)], edges)
    labels = rng.integers(0, k, size=n)
    labels[rng.choice(n, size=k, replace=False)] = np.arange(k)
    ours = partition._cut_metrics(g, labels, k)
    ref = add_at_cut_metrics(g, labels, k)
    fields = ("cut_weight", "ratio_cut", "normalized_cut", "cheeger")
    assert np.array([getattr(ours, f) for f in fields]).tobytes() == np.array([getattr(ref, f) for f in fields]).tobytes()
    p = sa.Partition(assignment=tuple(labels.tolist()), k=k)
    fields = ("internal_weight", "external_weight", "internal_density", "separation")
    assert [np.array([getattr(c, f) for f in fields]).tobytes() for c in sa.connectivity_profile(g, p).clusters] == [
        np.array([getattr(c, f) for f in fields]).tobytes() for c in add_at_connectivity_profile(g, p).clusters
    ]


def _fiedler_split(sub, s):
    return sa.threshold_partition(sub, s.eigenvectors[:, 1], "cheeger")


@given(seed=st.integers(0, 10**6), n=st.integers(2, 24), p=st.floats(0.05, 0.9))
@example(seed=196, n=22, p=0.0625)  # eleven components: the subset driver fails on a widened request
@settings(max_examples=150, deadline=None)
def test_split_once_matches_the_set_split(seed, n, p):
    """Clusters of a sparse host are often disconnected, which takes the component branch."""
    rng = np.random.default_rng(seed)
    host = sa.sbm_generate(2, 12, p, p / 4, seed)
    nodes = sorted(rng.choice(host.n, size=n, replace=False).tolist())
    sub = sa.induced_subgraph(host, nodes)
    s = sa.graph_spectrum(sub, count=2)
    lam2 = sa.algebraic_connectivity(s)

    def sides(split, ids):
        try:
            return [[int(i) for i in side] for side in split(ids, lam2, sub, s, _fiedler_split)]
        except ConstantVectorError as exc:
            return str(exc)

    assert sides(partition._split_once, np.array(nodes)) == sides(set_split_once, nodes)


class TestConnectivityProfile:
    def test_bridged_planted_profile(self, bridged_triangles):
        prof = sa.connectivity_profile(
            bridged_triangles, sa.Partition(assignment=(0, 0, 0, 1, 1, 1), k=2)
        )
        for c in prof.clusters:
            assert abs(c.internal_weight - 3.0) < 1e-12
            assert abs(c.external_weight - 1.0) < 1e-12
            assert abs(c.internal_density - 1.0) < 1e-12
            assert abs(c.separation - 9.0) < 1e-12

    def test_isolated_cluster_reports_infinite_separation(self, two_k3):
        prof = sa.connectivity_profile(two_k3, sa.Partition(assignment=(0, 0, 0, 1, 1, 1), k=2))
        for c in prof.clusters:
            assert c.external_weight == 0.0
            assert c.separation == float("inf")

    def test_singleton_cluster_has_zero_density(self, p3):
        prof = sa.connectivity_profile(p3, sa.Partition(assignment=(0, 1, 1), k=2))
        head, tail = prof.clusters
        assert head.internal_weight == 0.0
        assert head.internal_density == 0.0
        assert head.separation == 0.0
        assert abs(tail.internal_density - 1.0) < 1e-12
        assert abs(tail.separation - 2.0) < 1e-12

    def test_partition_size_mismatch(self, triangle):
        with pytest.raises(PartitionMismatchError):
            sa.connectivity_profile(triangle, sa.Partition(assignment=(0,), k=1))


@pytest.mark.parametrize(
    "edges, assignment, k",
    [
        pytest.param([], (0, 1, 2), 3, id="edgeless-singletons"),
        pytest.param([(0, 1, 1.0), (1, 2, 2.0)], (0, 1, 2), 3, id="path-singletons"),
        pytest.param([(0, 1, 1.0), (1, 2, 2.0)], (0, 0, 0), 1, id="path-one-cluster"),
    ],
)
def test_report_fields_are_python_floats(edges, assignment, k):
    """np.bincount over no edges returns int64, which must not reach a report."""
    g = sa.graph_from_edges(list("abc"), edges)
    p = sa.Partition(assignment=assignment, k=k)
    values = list(dataclasses.astuple(sa.cut_metrics(g, p)))
    values += [v for c in sa.connectivity_profile(g, p).clusters for v in dataclasses.astuple(c)]
    assert len(values) == 4 + 4 * k
    assert [type(v) for v in values] == [float] * len(values)


def test_cut_metrics_scratch_memory_stays_linear_in_k():
    # 4,000 singleton clusters: one k x k array of float64 would take 128 MB
    g = sa.sbm_generate(2, 2000, 0.01, 0.001, 0)
    p = sa.Partition(assignment=np.arange(g.n), k=g.n)
    tracemalloc.start()
    try:
        sa.cut_metrics(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_cheeger_is_finite_when_weights_span_many_orders():
    # vol{a, b} = 2e8 swallows vol{c} = 1e-9 in the total, so the total
    # less vol{a, b} is 0; the complement's own volume is 1e-9
    g = sa.graph_from_edges(["a", "b", "c"], [(0, 1, 1e8), (1, 2, 1e-9)])
    m = sa.cut_metrics(g, sa.Partition(assignment=(0, 0, 1), k=2))
    assert m.cheeger == 1.0
    assert m.normalized_cut == pytest.approx(1.0)
