"""Sign cuts, threshold cuts, recursive and k-way clustering, cut metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_abstraction as sa
from spectral_abstraction import nonlinear, partition
from spectral_abstraction.errors import (
    ConstantVectorError,
    InvalidFractionalExponentError,
    KOutOfRangeError,
    PartitionMismatchError,
    TooFewDistinctPointsError,
)
from spectral_abstraction.spectral import Embedding

from conftest import random_connected_graph
from oracles import best_assignment, direct_cut_metrics, kmeans_objective, scan_threshold_partition


def embed(g, dim):
    s = sa.graph_spectrum(g, sa.LaplacianKind.COMBINATORIAL)
    return sa.spectral_embedding(s, dim)


class TestSignBipartition:
    def test_negatives_form_cluster_one(self, c4):
        p = sa.sign_bipartition(c4, np.array([-1.0, -2.0, 3.0, 4.0]))
        assert p.assignment == (1, 1, 0, 0)

    def test_near_zero_entries_join_the_positive_side(self, c4):
        p = sa.sign_bipartition(c4, np.array([1e-15, -1.0, 1.0, -1.0]))
        assert p.assignment == (0, 1, 0, 1)

    def test_bridged_fiedler_recovers_planted_split(self, bridged_triangles):
        v = sa.fiedler_vector(sa.graph_spectrum(bridged_triangles, sa.LaplacianKind.COMBINATORIAL))
        p = sa.sign_bipartition(bridged_triangles, v)
        assert p.k == 2
        assert len({p.assignment[:3]}) == 1
        assert p.assignment[0] != p.assignment[3]
        assert p.assignment[3] == p.assignment[4] == p.assignment[5]

    def test_all_positive_vector_rejected(self, triangle):
        with pytest.raises(ConstantVectorError):
            sa.sign_bipartition(triangle, np.array([1.0, 2.0, 3.0]))

    def test_length_mismatch_rejected(self, triangle):
        with pytest.raises(PartitionMismatchError):
            sa.sign_bipartition(triangle, np.array([1.0, -1.0]))


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
    assert a.assignment == b.assignment


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


@given(case=sweep_inputs(), selection=st.sampled_from(sa.SELECTIONS))
@settings(max_examples=300, deadline=None)
def test_sweep_picks_the_same_threshold_as_the_scan(case, selection):
    g, f = case
    fast = sa.threshold_partition(g, f, selection)
    assert fast.assignment == scan_threshold_partition(g, f, selection).assignment


class TestRecursiveSpectra:
    def test_each_cluster_is_solved_once(self, monkeypatch):
        # one spectrum for the whole graph, then one per half of every split but the last
        g = sa.sbm_generate(5, 12, 0.8, 0.02, seed=3)
        assert len(sa.connected_components(g)) == 1
        calls = []
        real = partition.graph_spectrum

        def counting(*args, **kwargs):
            calls.append(args[0].n)
            return real(*args, **kwargs)

        monkeypatch.setattr(partition, "graph_spectrum", counting)
        for k in range(2, 6):
            calls.clear()
            sa.recursive_bipartition(g, k)
            assert len(calls) == 1 + 2 * (k - 2)

    def test_recursive_splits_match_the_scan(self, monkeypatch):
        graphs = [sa.sbm_generate(4, 12, 0.5, 0.05, seed=s) for s in range(6)]
        small = [sa.sbm_generate(2, 8, 0.8, 0.1, seed=s) for s in range(3)]
        params = sa.PLaplacianParams(p=1.5)

        def run():
            linear = [sa.recursive_bipartition(g, 4).assignment for g in graphs]
            p = [nonlinear.p_recursive_bipartition(g, 2, params).assignment for g in small]
            return linear, p

        fast = run()
        monkeypatch.setattr(partition, "threshold_partition", scan_threshold_partition)
        monkeypatch.setattr(nonlinear, "threshold_partition", scan_threshold_partition)
        assert run() == fast


class TestRecursiveBipartition:
    def test_bridged_k2_is_planted(self, bridged_triangles):
        p = sa.recursive_bipartition(bridged_triangles, 2)
        assert p.assignment == (0, 0, 0, 1, 1, 1)

    def test_k1_is_a_single_cluster(self, bridged_triangles):
        p = sa.recursive_bipartition(bridged_triangles, 1)
        assert p.assignment == (0,) * 6

    def test_components_split_before_any_fiedler_cut(self, two_k3):
        p = sa.recursive_bipartition(two_k3, 2)
        assert p.assignment == (0, 0, 0, 1, 1, 1)

    def test_labels_follow_minimum_node_index(self, bridged_triangles):
        for k in (2, 3, 4):
            p = sa.recursive_bipartition(bridged_triangles, k)
            seen: list[int] = []
            for a in p.assignment:
                if a not in seen:
                    seen.append(a)
            assert seen == sorted(seen)

    def test_k_out_of_range(self, triangle):
        with pytest.raises(KOutOfRangeError):
            sa.recursive_bipartition(triangle, 4)
        with pytest.raises(KOutOfRangeError):
            sa.recursive_bipartition(triangle, 0)


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
            assert p.assignment == (0, 0, 0, 1, 1, 1), metric

    def test_coincident_block_points_are_never_separated(self, two_k3):
        e = embed(two_k3, 1)
        p = sa.kway_embedding_cluster(e, 2)
        assert p.assignment == (0, 0, 0, 1, 1, 1)

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

    def test_unknown_metric_rejected(self, c4):
        with pytest.raises(ValueError):
            sa.kway_embedding_cluster(embed(c4, 1), 2, metric="bogus")

    def test_fractional_exponent_bounds(self, c4):
        e = embed(c4, 1)
        with pytest.raises(InvalidFractionalExponentError):
            sa.kway_embedding_cluster(e, 2, metric="fractional", q=1.5)
        with pytest.raises(InvalidFractionalExponentError):
            sa.kway_embedding_cluster(e, 2, metric="fractional", q=0.0)

    def test_k_bounds(self, c4):
        e = embed(c4, 1)
        with pytest.raises(KOutOfRangeError):
            sa.kway_embedding_cluster(e, 5)

    def test_too_few_distinct_points(self):
        coords = np.array([[0.0], [0.0], [1.0], [1.0]])
        e = Embedding(coordinates=coords, dim=1)
        with pytest.raises(TooFewDistinctPointsError):
            sa.kway_embedding_cluster(e, 3)


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


def test_cheeger_is_finite_when_weights_span_many_orders():
    # vol{a, b} = 2e8 swallows vol{c} = 1e-9 in the total, so the total
    # less vol{a, b} is 0; the complement's own volume is 1e-9
    g = sa.graph_from_edges(["a", "b", "c"], [(0, 1, 1e8), (1, 2, 1e-9)])
    m = sa.cut_metrics(g, sa.Partition(assignment=(0, 0, 1), k=2))
    assert m.cheeger == 1.0
    assert m.normalized_cut == pytest.approx(1.0)
