"""p-Laplacian operator, p-spectral cuts, and coupling-graph extraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spectral_abstraction as sa
from spectral_abstraction import nonlinear
from spectral_abstraction.errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    DisconnectedGraphError,
    ExponentOutOfRangeError,
    InvalidArgumentError,
)
from spectral_abstraction.nonlinear import (
    CouplingSystem,
    PLaplacianParams,
    jacobian_graph,
    p_laplacian_apply,
    p_recursive_bipartition,
    p_spectral_bipartition,
)

from conftest import random_connected_graph
from oracles import (
    best_bipartition,
    bisection_shift,
    exact_shift_p_rayleigh,
    p_laplacian_loop,
    recentring_descend,
)


class TestPLaplacianApply:
    def test_constant_vector_maps_to_zero(self, bridged_triangles):
        out = p_laplacian_apply(bridged_triangles, np.full(6, 3.7), 1.5)
        assert np.abs(out).max() == 0.0

    def test_single_edge_by_hand(self):
        g = sa.graph_from_edges(["a", "b"], [(0, 1, 1.0)])
        out = p_laplacian_apply(g, np.array([0.0, 1.0]), 1.5)
        assert np.abs(out - np.array([-1.0, 1.0])).max() < 1e-15

    def test_p2_equals_laplacian_product(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            g = random_connected_graph(rng, n)
            f = rng.normal(size=n)
            L = np.asarray(sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL).matrix)
            assert np.abs(p_laplacian_apply(g, f, 2.0) - L @ f).max() < 1e-10

    @given(seed=st.integers(0, 10**6), n=st.integers(2, 16), p=st.floats(1.001, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_edge_loop(self, seed, n, p):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n)
        f = rng.normal(size=n)
        out = p_laplacian_apply(g, f, p)
        loop = p_laplacian_loop(g.edges, f, p)
        assert np.abs(out - loop).max() <= 1e-12 * np.abs(out).max()

    def test_exponent_bounds(self, triangle):
        f = np.array([1.0, 0.0, -1.0])
        with pytest.raises(ExponentOutOfRangeError):
            p_laplacian_apply(triangle, f, 1.0)
        with pytest.raises(ExponentOutOfRangeError):
            p_laplacian_apply(triangle, f, 2.5)

    def test_length_mismatch(self, triangle):
        with pytest.raises(DimensionMismatchError):
            p_laplacian_apply(triangle, np.ones(4), 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, triangle, bad):
        with pytest.raises(InvalidArgumentError, match="^vector entries must be finite$"):
            p_laplacian_apply(triangle, np.array([0.0, bad, 1.0]), 1.5)


class TestParams:
    def test_exponent_validation(self):
        with pytest.raises(ExponentOutOfRangeError):
            PLaplacianParams(p=1.0)
        with pytest.raises(ExponentOutOfRangeError):
            PLaplacianParams(p=2.1)


class TestPSpectralBipartition:
    def test_bridged_triangles_match_exhaustive_cheeger_optimum(self, bridged_triangles):
        p = p_spectral_bipartition(bridged_triangles, PLaplacianParams(p=1.2))
        assert p.assignment.tolist() == [0, 0, 0, 1, 1, 1]
        _value, best_side = best_bipartition(6, bridged_triangles.edges, "cheeger")
        assert best_side == frozenset({3, 4, 5})

    def test_p2_reproduces_the_thresholded_fiedler_cut(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 16))
            g = random_connected_graph(rng, n)
            p2 = p_spectral_bipartition(g, PLaplacianParams(p=2.0))
            v = sa.fiedler_vector(sa.graph_spectrum(g, sa.LaplacianKind.COMBINATORIAL))
            linear = sa.threshold_partition(g, v, "cheeger")
            ours = sa.cut_metrics(g, p2).cheeger
            ref = sa.cut_metrics(g, linear).cheeger
            assert abs(ours - ref) < 1e-9

    def test_invariant_to_uniform_weight_scaling(self, bridged_triangles):
        params = PLaplacianParams(p=1.3)
        base = p_spectral_bipartition(bridged_triangles, params)
        for c in (1e-3, 7.0, 1e4):
            scaled = sa.graph_from_edges(
                bridged_triangles.labels,
                [(i, j, w * c) for i, j, w in bridged_triangles.edges],
            )
            assert p_spectral_bipartition(scaled, params).assignment.tolist() == base.assignment.tolist()

    def test_low_p_cheeger_beats_linear_in_the_median(self):
        deltas = []
        for seed in range(6):
            g = sa.sbm_generate(2, 6, 0.9, 0.05, seed=seed)
            if len(sa.connected_components(g)) > 1:
                continue
            c12 = sa.cut_metrics(g, p_spectral_bipartition(g, PLaplacianParams(p=1.2))).cheeger
            c20 = sa.cut_metrics(
                g, p_spectral_bipartition(g, PLaplacianParams(p=2.0))
            ).cheeger
            deltas.append(c12 - c20)
        assert np.median(deltas) <= 1e-12

    def test_direct_descent_replaces_a_worse_continuation_end(self, monkeypatch):
        # trial 29 of: rng = np.random.default_rng(1); per trial n = int(rng.integers(3, 14)),
        # then (i, j, float(rng.choice([1.0, rng.uniform(0.05, 5)]))) for i < j
        # where rng.random() < rng.uniform(0.2, 0.8)
        edges = [
            (0, 1, 3.292320854279895), (0, 2, 0.6077531331288526), (0, 6, 2.9634271089398427),
            (0, 9, 1.0), (0, 10, 1.0), (0, 11, 4.473249135116329), (0, 12, 1.0),
            (1, 3, 2.2498110864286396), (1, 4, 1.0), (1, 7, 1.0), (1, 10, 1.0),
            (1, 12, 0.20119983411008485), (2, 8, 0.6254861240541701), (2, 9, 1.0),
            (2, 11, 2.137852632213881), (3, 4, 1.0), (3, 5, 2.165480635109638),
            (3, 6, 1.458233926361083), (3, 7, 1.6247760139291636), (3, 12, 1.0), (4, 6, 1.0),
            (4, 9, 1.1383477343374142), (4, 10, 1.0), (4, 11, 1.0), (4, 12, 1.1162200267832438),
            (5, 9, 1.0), (5, 10, 1.0), (5, 11, 2.4128750604339535), (5, 12, 2.8670395266227455),
            (6, 7, 0.7347361948858054), (6, 10, 1.0410095986041583), (6, 11, 1.0), (6, 12, 1.0),
            (7, 8, 1.0), (7, 9, 1.0), (8, 11, 1.9409836521260788), (8, 12, 1.8132155291434204),
            (9, 12, 3.0099496469583054), (10, 11, 1.0), (10, 12, 1.0),
        ]
        g = sa.graph_from_edges([f"v{i}" for i in range(13)], edges)
        descend, ends = nonlinear._descend, []

        def recording(ei, ej, w, f, p):
            ends.append(descend(ei, ej, w, f, p))
            return ends[-1]

        monkeypatch.setattr(nonlinear, "_descend", recording)
        ours = p_spectral_bipartition(g, PLaplacianParams(p=1.05))
        # six continuation stages, the last at p itself, then the direct descent from the Fiedler vector
        assert len(ends) == 7
        (continued, continued_value, _), (direct, direct_value, _) = ends[5:]
        assert continued_value == pytest.approx(3.0146, abs=1e-4)
        assert direct_value == pytest.approx(2.5871, abs=1e-4)
        gs = nonlinear._mean_weight_rescaled(g)
        assert ours.assignment.tolist() == sa.threshold_partition(gs, direct, "cheeger").assignment.tolist()
        assert ours.assignment.tolist() != sa.threshold_partition(gs, continued, "cheeger").assignment.tolist()

    def test_ratio_and_normalized_selections_run(self, bridged_triangles):
        for selection in ("ratio", "normalized"):
            p = p_spectral_bipartition(
                bridged_triangles, PLaplacianParams(p=1.5), selection=selection
            )
            assert p.assignment.tolist() == [0, 0, 0, 1, 1, 1]

    def test_unknown_selection_rejected(self, bridged_triangles):
        with pytest.raises(ValueError):
            p_spectral_bipartition(bridged_triangles, PLaplacianParams(p=1.5), selection="best")

    def test_disconnected_graph_rejected(self, two_k3):
        with pytest.raises(DisconnectedGraphError):
            p_spectral_bipartition(two_k3, PLaplacianParams(p=1.5))

    def test_one_node_rejected(self):
        with pytest.raises(DimensionMismatchError):
            p_spectral_bipartition(sa.graph_from_edges(["a"], []), PLaplacianParams(p=1.5))


class TestPRecursive:
    def test_k1_identity(self, bridged_triangles):
        p = p_recursive_bipartition(bridged_triangles, 1, PLaplacianParams(p=1.2))
        assert p.assignment.tolist() == [0] * 6

    def test_bridged_k2_planted(self, bridged_triangles):
        p = p_recursive_bipartition(bridged_triangles, 2, PLaplacianParams(p=1.2))
        assert p.assignment.tolist() == [0, 0, 0, 1, 1, 1]

    def test_p2_matches_linear_recursion(self):
        params = PLaplacianParams(p=2.0)
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(5, 14))
            g = random_connected_graph(rng, n)
            k = int(rng.integers(2, min(4, n) + 1))
            a = p_recursive_bipartition(g, k, params)
            b = sa.recursive_bipartition(g, k)
            assert a.assignment.tolist() == b.assignment.tolist()

    def test_k_out_of_range(self, triangle):
        with pytest.raises(sa.errors.KOutOfRangeError):
            p_recursive_bipartition(triangle, 9, PLaplacianParams(p=1.5))

    def test_lambda_2_is_tested_at_mean_weight_one(self):
        # unscaled, this connected path has lambda_2 of about 1e-12, below CONNECTIVITY_TOL
        params = PLaplacianParams(p=1.5)
        tiny = sa.graph_from_edges(list("abc"), [(0, 1, 1e-12), (1, 2, 1e-12)])
        unit = sa.graph_from_edges(list("abc"), [(0, 1, 1.0), (1, 2, 1.0)])
        assert p_recursive_bipartition(tiny, 2, params).assignment.tolist() == [0, 0, 1]
        assert p_recursive_bipartition(unit, 2, params).assignment.tolist() == [0, 0, 1]
        assert p_spectral_bipartition(tiny, params).assignment.tolist() == [0, 0, 1]

    def test_an_edgeless_graph_splits_into_its_nodes(self):
        g = sa.graph_from_edges(list("ab"), [])
        assert p_recursive_bipartition(g, 2, PLaplacianParams(p=1.5)).assignment.tolist() == [0, 1]


def shift_test_vector(seed: int, n: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "repeated":
        return np.round(rng.normal(size=n), 1)
    if kind == "three-valued":
        return rng.integers(0, 3, size=n).astype(np.float64)
    # a large common offset with a spread from 1e-6 to 10
    return 1e6 + rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 1.0)


class TestOptimalShift:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 70),
        kind=st.sampled_from(["normal", "repeated", "three-valued", "offset"]),
        p=st.one_of(st.sampled_from([1.01, 1.2, 1.5, 2.0]), st.floats(1.001, 2.0)),
    )
    @settings(max_examples=300, deadline=None)
    # the start is an entry of f, where the slope's derivative is infinite
    @example(seed=0, n=2, kind="three-valued", p=1.01)
    # the root is an entry of f, where Newton overshoots it by a fixed ratio
    @example(seed=17, n=3, kind="repeated", p=1.34)
    def test_matches_the_bisection(self, seed, n, kind, p):
        f = shift_test_vector(seed, n, kind)
        ours = nonlinear._optimal_shift(f, p)
        assert f.min() <= ours <= f.max()
        assert abs(ours - bisection_shift(f, p)) <= 1e-12 * np.abs(f).max()

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 70),
        kind=st.sampled_from(["normal", "repeated", "three-valued", "offset"]),
        p=st.floats(1.0001, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    # Newton without the step-halving test cycles between two points
    @example(seed=3, n=3, kind="normal", p=1.35546875)
    def test_a_recentred_vector_needs_no_shift(self, seed, n, kind, p):
        f = shift_test_vector(seed, n, kind)
        assume(f.max() > f.min())
        ei, ej = np.triu_indices(n, 1)
        w = np.random.default_rng(seed).uniform(0.2, 3.0, ei.size)
        g = nonlinear._recentre(f, p)
        ours, _ = nonlinear._p_rayleigh(ei, ej, w, g, p)
        exact = exact_shift_p_rayleigh(zip(ei.tolist(), ej.tolist(), w.tolist()), g, p)
        assert abs(ours - exact) <= 1e-12 * exact

    def test_recentring_a_constant_vector_is_a_convergence_failure(self):
        with pytest.raises(ConvergenceFailureError, match=r"^iterate collapsed to a constant vector$"):
            nonlinear._recentre(np.full(5, 3.0), 1.5)

    def test_bisection_shift_gives_the_same_partitions(self, monkeypatch):
        params = PLaplacianParams(p=1.5)
        # planted two-block splits; splitting a near-clique further is a
        # degenerate problem whose cut can move with the last digits
        graphs = [sa.sbm_generate(2, 8, 0.9, 0.05, seed=seed) for seed in range(4)]
        graphs.append(random_connected_graph(np.random.default_rng(5), 10))
        # the size and density of the benchmark's p-cluster inputs
        graphs += [sa.sbm_generate(2, 32, 0.9, 0.05, seed=seed) for seed in range(2)]
        ours = [p_recursive_bipartition(g, 2, params).assignment.tolist() for g in graphs]
        monkeypatch.setattr(nonlinear, "_optimal_shift", bisection_shift)
        assert [p_recursive_bipartition(g, 2, params).assignment.tolist() for g in graphs] == ours


def rescaled_edges(g: sa.Graph):
    gs = nonlinear._mean_weight_rescaled(g)
    return gs.ei, gs.ej, gs.w


def assert_same_descent(ours, oracle) -> None:
    f, value, _reason = ours
    ref, ref_value = oracle
    assert f.tobytes() == ref.tobytes()
    assert value == ref_value


class TestDescent:
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 24),
        p=st.sampled_from([1.05, 1.2, 1.5, 1.95, 2.0]),
        start=st.sampled_from(["normal", "fiedler"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_recentring_descent(self, seed, n, p, start):
        """Screening trials by the floor moves no iterate: same bytes as recentring every trial."""
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n)
        ei, ej, w = rescaled_edges(g)
        if start == "normal":
            f = rng.normal(size=n)
        else:
            f = sa.fiedler_vector(sa.graph_spectrum(g, sa.LaplacianKind.COMBINATORIAL))
        assert_same_descent(nonlinear._descend(ei, ej, w, f, p), recentring_descend(ei, ej, w, f, p))

    def test_criterion_5_descents_match_the_recentring_descent(self, monkeypatch):
        """Every descent of the criterion-5 splits at k in {3, 4} gives the oracle's bytes."""
        descend = nonlinear._descend
        checked = set()

        def both(ei, ej, w, f, p):
            ours = descend(ei, ej, w, f, p)
            # k = 4 repeats the splits of k = 3 first
            key = (ei.tobytes(), ej.tobytes(), w.tobytes(), f.tobytes(), p)
            if key not in checked:
                assert_same_descent(ours, recentring_descend(ei, ej, w, f, p))
                checked.add(key)
            return ours

        monkeypatch.setattr(nonlinear, "_descend", both)
        params = PLaplacianParams(p=1.5)
        for seed in range(50):
            g = sa.sbm_generate(2, 8, 0.9, 0.05, seed)
            if len(sa.connected_components(g)) > 1:
                continue
            for k in (3, 4):
                p_recursive_bipartition(g, k, params)
        assert len(checked) > 500

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(2, 40),
        kind=st.sampled_from(["normal", "offset", "near-constant", "recentred", "trial"]),
        p=st.one_of(st.sampled_from([1.0001, 1.001, 1.01, 1.5, 2.0]), st.floats(1.0001, 2.0)),
    )
    @settings(max_examples=400, deadline=None)
    def test_the_floor_is_below_the_recentred_value(self, seed, n, kind, p):
        """lb less the margin never exceeds R_p, exact or as _recentre and _p_rayleigh compute it."""
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, p=float(rng.uniform(0.2, 1.0)))
        ei, ej, w = rescaled_edges(g)
        if kind == "offset":
            x = 1e6 + rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 1.0)
        elif kind == "near-constant":
            x = rng.normal() + rng.normal(size=n) * 10.0 ** rng.uniform(-15.0, -9.0)
        else:
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        if kind in ("recentred", "trial"):
            x = nonlinear._recentre(x, p)
        if kind == "trial":
            # a small step from an iterate, where the floor is tightest
            x = x - 10.0 ** rng.uniform(-12.0, -1.0) * rng.normal(size=n)
        assume(x.max() > x.min())
        floor = nonlinear._rayleigh_floor(ei, ej, w, x, p, float(w.sum()))
        computed, _ = nonlinear._p_rayleigh(ei, ej, w, nonlinear._recentre(x, p), p)
        exact = exact_shift_p_rayleigh(zip(ei.tolist(), ej.tolist(), w.tolist()), x, p)
        assert floor <= computed
        assert floor <= exact

    def test_a_constant_vector_has_no_floor(self, bridged_triangles):
        ei, ej, w = rescaled_edges(bridged_triangles)
        assert nonlinear._rayleigh_floor(ei, ej, w, np.full(6, 0.3), 1.5, float(w.sum())) == -np.inf

    def test_stops_at_the_tolerance(self, bridged_triangles):
        ei, ej, w = rescaled_edges(bridged_triangles)
        f = np.random.default_rng(3).normal(size=6)
        assert nonlinear._descend(ei, ej, w, f, 1.5)[2] == "tolerance"

    def test_stops_at_a_zero_gradient(self, p3):
        # the symmetric vector on a path of three is a critical point of R_p
        ei, ej, w = rescaled_edges(p3)
        f, value, reason = nonlinear._descend(ei, ej, w, np.array([1.0, 0.0, -1.0]), 1.5)
        assert reason == "zero gradient"
        assert value == 1.0

    def test_stops_when_backtracking_fails(self):
        # a restart from a converged iterate at p close to 1, found by a search over small graphs
        g = sa.graph_from_edges(["a", "b", "c"], [(0, 1, 1.131139132680578), (0, 2, 1.5204754579559152)])
        ei, ej, w = rescaled_edges(g)
        f = np.array([-0.1375151009905126, -0.4704897581730612, -1.4174801235842267])
        f, _, reason = nonlinear._descend(ei, ej, w, f, 1.01)
        assert reason == "tolerance"
        ours = nonlinear._descend(ei, ej, w, f, 1.01)
        assert ours[2] == "backtrack failure"
        assert_same_descent(ours, recentring_descend(ei, ej, w, f, 1.01))

    def test_stops_at_the_iteration_cap(self, monkeypatch, bridged_triangles):
        ei, ej, w = rescaled_edges(bridged_triangles)
        f = np.random.default_rng(3).normal(size=6)
        monkeypatch.setattr(nonlinear, "_MAX_ITERATIONS", 2)
        ours = nonlinear._descend(ei, ej, w, f, 1.5)
        assert ours[2] == "iteration cap"
        assert_same_descent(ours, recentring_descend(ei, ej, w, f, 1.5))


class TestJacobianGraph:
    def test_linear_chain_gives_a_path(self):
        c = np.zeros((4, 4))
        m = np.zeros((4, 4), dtype=bool)
        for i in range(3):
            c[i, i + 1] = 1.0
            m[i, i + 1] = True
        g, largest = jacobian_graph(CouplingSystem(couplings=c, linear_mask=m), 0.5)
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
        assert g.labels == ("x0", "x1", "x2", "x3")
        assert largest == (0, 1, 2, 3)

    def test_all_false_mask_gives_edgeless_graph(self):
        c = np.ones((3, 3))
        m = np.zeros((3, 3), dtype=bool)
        g, largest = jacobian_graph(CouplingSystem(couplings=c, linear_mask=m), 0.0)
        assert g.edges == ()
        assert largest == (0,)

    def test_largest_component_wins(self):
        c = np.zeros((5, 5))
        m = np.zeros((5, 5), dtype=bool)
        for i, j in ((0, 1), (1, 2), (0, 2), (3, 4)):
            c[i, j] = 2.0
            m[i, j] = True
        _g, largest = jacobian_graph(CouplingSystem(couplings=c, linear_mask=m), 1.0)
        assert largest == (0, 1, 2)

    def test_threshold_is_strict(self):
        c = np.zeros((2, 2))
        c[0, 1] = 1.0
        m = np.array([[False, True], [False, False]])
        g, _ = jacobian_graph(CouplingSystem(couplings=c, linear_mask=m), 1.0)
        assert g.edges == ()
        g, _ = jacobian_graph(CouplingSystem(couplings=c, linear_mask=m), 0.999)
        assert g.edges == ((0, 1, 1.0),)

    def test_either_direction_of_mask_or_magnitude_counts(self):
        c = np.zeros((2, 2))
        c[1, 0] = -3.0
        m = np.array([[False, True], [False, False]])
        g, _ = jacobian_graph(CouplingSystem(couplings=c, linear_mask=m), 2.0)
        assert g.edges == ((0, 1, 1.0),)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        n = 6
        c = rng.normal(size=(n, n))
        m = rng.random(size=(n, n)) < 0.4
        base, _ = jacobian_graph(CouplingSystem(couplings=c, linear_mask=m), 0.7)
        for _ in range(5):
            perm = rng.permutation(n)
            cp = c[np.ix_(perm, perm)]
            mp = m[np.ix_(perm, perm)]
            gp, _ = jacobian_graph(CouplingSystem(couplings=cp, linear_mask=mp), 0.7)
            # position a in the permuted system holds original variable perm[a]
            mapped = {
                tuple(sorted((int(perm[i]), int(perm[j])))) for i, j, _w in gp.edges
            }
            original = {(i, j) for i, j, _w in base.edges}
            assert mapped == original

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            CouplingSystem(couplings=np.zeros((2, 3)), linear_mask=np.zeros((2, 3), dtype=bool))
        with pytest.raises(DimensionMismatchError):
            CouplingSystem(couplings=np.zeros((3, 3)), linear_mask=np.zeros((2, 2), dtype=bool))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coupling_rejected(self, bad):
        c = np.array([[0.0, bad, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        with pytest.raises(InvalidArgumentError):
            CouplingSystem(couplings=c, linear_mask=np.ones((3, 3), dtype=bool))

    def test_negative_threshold_rejected(self):
        sysm = CouplingSystem(couplings=np.zeros((2, 2)), linear_mask=np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            jacobian_graph(sysm, -0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_threshold_rejected(self, bad):
        sysm = CouplingSystem(couplings=np.ones((2, 2)), linear_mask=np.ones((2, 2), dtype=bool))
        with pytest.raises(InvalidArgumentError):
            jacobian_graph(sysm, bad)
