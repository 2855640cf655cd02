"""Eigendecomposition, Fiedler analysis, and spectral embeddings."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectral_abstraction as sa
from spectral_abstraction.errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    DimensionOutOfRangeError,
    DisconnectedGraphError,
    InvalidArgumentError,
    NotSymmetricError,
    TooFewNodesError,
    ZeroVectorError,
)
from spectral_abstraction import graphs, spectral
from spectral_abstraction.spectral import (
    DENSE_SOLVER_MAX_N,
    eigendecompose,
)

from conftest import random_connected_graph
from oracles import (
    array_equal_check_symmetric,
    charpoly_eigenvalues,
    loop_degenerate_groups,
    loop_sign_convention,
    loop_validate_spectrum,
    power_iteration_lambda2,
    probe_gram_schmidt_basis,
    union_find_components,
)


def spectrum_of(g, kind=sa.LaplacianKind.COMBINATORIAL, count=None):
    return sa.graph_spectrum(g, kind, count=count)


class TestClosedFormSpectra:
    def test_p3(self, p3):
        s = spectrum_of(p3)
        assert np.abs(s.eigenvalues - np.array([0.0, 1.0, 3.0])).max() < 1e-9

    def test_k4(self, k4):
        s = spectrum_of(k4)
        assert np.abs(s.eigenvalues - np.array([0.0, 4.0, 4.0, 4.0])).max() < 1e-9

    def test_c4(self, c4):
        s = spectrum_of(c4)
        assert np.abs(s.eigenvalues - np.array([0.0, 2.0, 2.0, 4.0])).max() < 1e-9

    def test_closed_forms_match_charpoly_oracle(self, p3, k4, c4):
        for g in (p3, k4, c4):
            L = np.asarray(sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL).matrix)
            ours = spectrum_of(g).eigenvalues
            theirs = charpoly_eigenvalues(L)
            assert np.abs(ours - theirs).max() < 1e-9

    def test_triangle_normalized_spectrum(self, triangle):
        s = spectrum_of(triangle, sa.LaplacianKind.NORMALIZED)
        assert np.abs(s.eigenvalues - np.array([0.0, 1.5, 1.5])).max() < 1e-9


class TestSpectrumShape:
    def test_ascending_order(self, bridged_triangles):
        vals = spectrum_of(bridged_triangles).eigenvalues
        assert np.all(np.diff(vals) >= 0)

    def test_orthonormal_eigenvectors(self, bridged_triangles):
        V = spectrum_of(bridged_triangles).eigenvectors
        gram = V.T @ V
        assert np.abs(gram - np.eye(V.shape[1])).max() < 1e-9

    def test_eigen_residuals(self, bridged_triangles):
        s = spectrum_of(bridged_triangles)
        L = np.asarray(sa.laplacian(bridged_triangles, sa.LaplacianKind.COMBINATORIAL).matrix)
        res = L @ s.eigenvectors - s.eigenvectors * s.eigenvalues
        assert np.abs(res).max() < 1e-8

    def test_sign_convention_first_entry_positive(self, bridged_triangles):
        V = spectrum_of(bridged_triangles).eigenvectors
        for k in range(V.shape[1]):
            col = V[:, k]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0

    def test_repeat_calls_are_bitwise_identical(self, bridged_triangles):
        a = spectrum_of(bridged_triangles)
        b = spectrum_of(bridged_triangles)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @pytest.mark.parametrize("M", [[[1.0, 2.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]],
                             ids=["asymmetric", "nan"])
    def test_asymmetric_input_rejected(self, M):
        with pytest.raises(NotSymmetricError):
            eigendecompose(sa.LaplacianMatrix(matrix=np.array(M)))

    @pytest.mark.parametrize(
        "M, vals, vecs",
        [
            pytest.param(np.eye(2), [np.nan, 1.0], np.eye(2), id="eigenvalue"),
            pytest.param(np.eye(2), [1.0, 1.0], [[np.nan, 0.0], [0.0, 1.0]], id="eigenvector"),
            pytest.param([[np.nan, 0.0], [0.0, 1.0]], [0.0, 1.0], np.eye(2), id="matrix"),
        ],
    )
    def test_nan_fails_the_spectrum_checks(self, M, vals, vecs):
        with pytest.raises(ConvergenceFailureError):
            spectral._validate_spectrum(np.array(M), np.array(vals), np.array(vecs))


class TestDegenerateCanonicalization:
    def test_c4_fiedler_is_the_balanced_half_vector(self, c4):
        v = sa.fiedler_vector(spectrum_of(c4))
        assert np.abs(v - np.array([0.5, 0.5, -0.5, -0.5])).max() < 1e-9

    def test_degenerate_pair_spans_same_subspace_as_solver(self, c4):
        L = np.asarray(sa.laplacian(c4, sa.LaplacianKind.COMBINATORIAL).matrix)
        s = spectrum_of(c4)
        V = s.eigenvectors[:, 1:3]
        res = L @ V - 2.0 * V
        assert np.abs(res).max() < 1e-8

    @pytest.mark.parametrize(
        "graph, kind, lo",
        [
            ("c4", sa.LaplacianKind.COMBINATORIAL, 1),
            ("triangle", sa.LaplacianKind.NORMALIZED, 1),
            ("two_k3", sa.LaplacianKind.COMBINATORIAL, 0),
        ],
    )
    def test_pairs_match_the_probe_gram_schmidt_routine(self, request, graph, kind, lo):
        g = request.getfixturevalue(graph)
        M = np.asarray(sa.laplacian(g, kind).matrix)
        vals, vecs = np.linalg.eigh(M)
        assert (lo, lo + 2) in spectral._degenerate_groups(vals)
        expected = loop_sign_convention(probe_gram_schmidt_basis(vecs[:, lo : lo + 2]))
        ours = spectrum_of(g, kind).eigenvectors[:, lo : lo + 2]
        assert np.abs(ours - expected).max() < 1e-12

    def test_splitmix64_known_answer(self):
        out = spectral._splitmix64(np.zeros(1, dtype=np.uint64))
        assert int(out[0]) == 0xE220A8397B1DCDAF
        P = spectral._probe_matrix(3, 2)
        assert P[0, 1] == (int(spectral._splitmix64(np.ones(1, dtype=np.uint64))[0]) >> 11) * 2.0**-53 - 0.5
        assert np.array_equal(P[:, 0], np.array([1.0, 2.0, 3.0]) / 3)

    @pytest.mark.parametrize("n, d", [(6, 2), (40, 5)])
    def test_probes_that_miss_the_eigenspace_fail(self, n, d):
        # the ramp and the next d probes, so no choice of probes reaches span(V)
        P = spectral._probe_matrix(n, d + 1)
        Q, _ = np.linalg.qr(P, mode="complete")
        V = Q[:, d + 1 : 2 * d + 1]
        assert np.abs(V.T @ P).max() < 1e-12
        with pytest.raises(ConvergenceFailureError, match="probes fail to span"):
            spectral._canonical_subspace_basis(V)

    def test_eigenspaces_orthogonal_to_the_ramp_use_the_next_probes(self):
        # the 4x4 grid's lambda = 2 eigenspace is symmetric under reversing
        # node order, and the ramp is constant plus antisymmetric
        s = spectrum_of(_grid(4))
        lo, hi = next(g for g in spectral._degenerate_groups(s.eigenvalues) if s.eigenvalues[g[0]] > 1.5)
        V = s.eigenvectors[:, lo:hi]
        assert hi - lo == 2 and abs(s.eigenvalues[lo] - 2.0) < 1e-12
        assert np.abs(V.T @ spectral._probe_matrix(16, 1)).max() < 1e-12
        q, r = np.linalg.qr(V @ (V.T @ spectral._probe_matrix(16, 3)[:, 1:]))
        assert np.abs(V - loop_sign_convention(q * np.sign(np.diag(r)))).max() < 1e-12

    def test_disconnected_blocks_embed_as_coincident_points(self, two_k3):
        s = spectrum_of(two_k3)
        e = sa.spectral_embedding(s, 1)
        pts = np.asarray(e.coordinates).ravel()
        assert np.abs(pts[0] - pts[1]) < 1e-9
        assert np.abs(pts[0] - pts[2]) < 1e-9
        assert np.abs(pts[3] - pts[4]) < 1e-9
        assert np.abs(pts[0] - pts[3]) > 0.1


@given(seed=st.integers(0, 10**6), n=st.integers(2, 24))
@settings(max_examples=40, deadline=None)
def test_random_spectra_are_orthonormal_and_psd(seed, n):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    s = spectrum_of(g)
    V = s.eigenvectors
    assert np.abs(V.T @ V - np.eye(n)).max() < 1e-9
    assert s.eigenvalues[0] > -1e-10
    assert abs(s.eigenvalues[0]) < 1e-9
    # the vectorized group and sign rules against their loops, on ties
    # made by rounding, and on columns of random sign whose leading
    # entries fall below the sign tolerance in every other column
    for vals in (s.eigenvalues, np.round(s.eigenvalues, 1)):
        assert spectral._degenerate_groups(vals) == loop_degenerate_groups(vals)
    flipped = V * rng.choice([-1.0, 1.0], size=n)
    flipped[: n // 2, ::2] *= 1e-13
    expected = loop_sign_convention(flipped)
    assert np.array_equal(spectral._apply_sign_convention(flipped), expected)


@given(seed=st.integers(0, 10**6), n=st.integers(4, 20))
@example(seed=142544, n=19)  # lambda_3 is 1.0035 lambda_2: the oracle needs about 4 * 10^4 steps
@settings(max_examples=25, deadline=None)
def test_lambda2_matches_power_iteration(seed, n):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    L = np.asarray(sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL).matrix)
    ours = sa.algebraic_connectivity(spectrum_of(g))
    theirs = power_iteration_lambda2(L)
    assert abs(ours - theirs) < 1e-6 * max(1.0, abs(theirs))


class TestFiedler:
    def test_components_sum_to_zero(self, bridged_triangles):
        v = sa.fiedler_vector(spectrum_of(bridged_triangles))
        assert abs(v.sum()) < 1e-9

    def test_connectivity_detection_against_union_find(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(3, 14))
            edges = [
                (i, j, 1.0)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.25
            ]
            g = sa.graph_from_edges([f"n{i}" for i in range(n)], edges)
            lam2 = sa.algebraic_connectivity(spectrum_of(g))
            connected = len(union_find_components(n, edges)) == 1
            assert (lam2 > 1e-9) == connected

    def test_single_edge_split(self):
        g = sa.graph_from_edges(["a", "b"], [(0, 1, 1.0)])
        v = sa.fiedler_vector(spectrum_of(g))
        assert v[0] * v[1] < 0

    def test_disconnected_graph_rejected(self, two_k3):
        with pytest.raises(DisconnectedGraphError):
            sa.fiedler_vector(spectrum_of(two_k3))


class TestRayleigh:
    def test_at_eigenvector_returns_eigenvalue(self, bridged_triangles):
        L = sa.laplacian(bridged_triangles, sa.LaplacianKind.COMBINATORIAL)
        s = spectrum_of(bridged_triangles)
        for k in (1, 3, 5):
            r = sa.rayleigh_quotient(L, s.eigenvectors[:, k])
            assert abs(r - s.eigenvalues[k]) < 1e-9

    def test_zero_vector_rejected(self, triangle):
        L = sa.laplacian(triangle, sa.LaplacianKind.COMBINATORIAL)
        with pytest.raises(ZeroVectorError):
            sa.rayleigh_quotient(L, np.zeros(3))

    def test_wrong_length_rejected(self, triangle):
        L = sa.laplacian(triangle, sa.LaplacianKind.COMBINATORIAL)
        with pytest.raises(DimensionOutOfRangeError):
            sa.rayleigh_quotient(L, np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, triangle, bad):
        L = sa.laplacian(triangle, sa.LaplacianKind.COMBINATORIAL)
        with pytest.raises(InvalidArgumentError, match="^vector entries must be finite$"):
            sa.rayleigh_quotient(L, np.array([0.0, bad, 1.0]))


@given(seed=st.integers(0, 10**6), n=st.integers(3, 16))
@settings(max_examples=40, deadline=None)
def test_rayleigh_quotient_lies_within_spectrum(seed, n):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n)
    L = sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL)
    s = spectrum_of(g)
    x = rng.normal(size=n)
    r = sa.rayleigh_quotient(L, x)
    assert s.eigenvalues[0] - 1e-9 <= r <= s.eigenvalues[-1] + 1e-9


class TestPartialAndCount:
    def test_count_slices_the_full_spectrum(self, bridged_triangles):
        full = spectrum_of(bridged_triangles)
        part = spectrum_of(bridged_triangles, count=3)
        assert part.n_pairs == 3
        assert np.abs(part.eigenvalues - full.eigenvalues[:3]).max() < 1e-12
        assert np.abs(part.eigenvectors - full.eigenvectors[:, :3]).max() < 1e-10

    def test_partial_solver_agrees_with_dense(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX_N", 0)  # Lanczos, then the subset driver
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 40, p=0.2)
        L = sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL)
        dense = eigendecompose(L)
        sparse = eigendecompose(L, 5)
        assert np.abs(sparse.eigenvalues - dense.eigenvalues[:5]).max() < 1e-8

    def test_oversized_count_clamps_to_full_spectrum(self, triangle):
        s = spectrum_of(triangle, count=4)
        assert s.n_pairs == 3

    def test_partial_solver_rejects_nonpositive_count(self, triangle):
        L = sa.laplacian(triangle, sa.LaplacianKind.COMBINATORIAL)
        with pytest.raises(DimensionOutOfRangeError):
            eigendecompose(L, 0)


def _complete(n):
    return sa.graph_from_edges([f"v{i}" for i in range(n)], [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def _star(n):
    return sa.graph_from_edges([f"v{i}" for i in range(n)], [(0, i, 1.0) for i in range(1, n)])


def _copies(g, times):
    n = g.n
    edges = [(i + c * n, j + c * n, w) for c in range(times) for i, j, w in g.edges]
    return sa.graph_from_edges([f"v{i}" for i in range(n * times)], edges)


def _grid(a):
    """The a x a grid, nodes numbered row by row."""
    edges = [(r * a + c, r * a + c + 1, 1.0) for r in range(a) for c in range(a - 1)]
    edges += [(r * a + c, (r + 1) * a + c, 1.0) for r in range(a - 1) for c in range(a)]
    return sa.graph_from_edges([f"v{i}" for i in range(a * a)], edges)


@given(
    family=st.sampled_from(["complete", "star", "complete-copies", "star-copies", "grid"]),
    size=st.integers(3, 210),
    times=st.integers(2, 40),
    kind=st.sampled_from(list(sa.LaplacianKind)),
    seed=st.integers(0, 10**6),
)
@example(family="complete", size=201, times=2, kind=sa.LaplacianKind.COMBINATORIAL, seed=0)
@example(family="star", size=202, times=2, kind=sa.LaplacianKind.NORMALIZED, seed=1)
@example(family="complete-copies", size=70, times=3, kind=sa.LaplacianKind.COMBINATORIAL, seed=2)
@example(family="star-copies", size=6, times=40, kind=sa.LaplacianKind.COMBINATORIAL, seed=3)
@example(family="star-copies", size=8, times=34, kind=sa.LaplacianKind.COMBINATORIAL, seed=0)
@settings(max_examples=25, deadline=None)
def test_rotated_eigenspace_bases_give_the_same_canonical_basis(family, size, times, kind, seed):
    g = {
        "complete": lambda: _complete(size),
        "star": lambda: _star(size),
        "complete-copies": lambda: _copies(_complete(min(size, 300 // times)), times),
        "star-copies": lambda: _copies(_star(min(size, 300 // times)), times),
        "grid": lambda: _grid(size // 15 + 3),
    }[family]()
    vals, vecs = np.linalg.eigh(np.asarray(sa.laplacian(g, kind).matrix))
    rng = np.random.default_rng(seed)
    for lo, hi in spectral._degenerate_groups(vals):
        if hi - lo < 2:
            continue
        V = vecs[:, lo:hi]
        Q, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
        ours = spectral._canonical_subspace_basis(V)
        assert np.abs(ours - spectral._canonical_subspace_basis(V @ Q)).max() < 1e-10
        assert np.abs(ours.T @ ours - np.eye(hi - lo)).max() < 1e-12
        assert np.abs(V @ (V.T @ ours) - ours).max() < 1e-12


def _assert_subset_matches_full(g, kind, count):
    """The counted spectrum of a fresh graph against a truncated full solve.

    Eigenvalues within 1e-12; for every eigenvalue group of the full
    spectrum, the projector onto its kept columns within 1e-10. A group
    that straddles count keeps its leading canonical vectors, which match
    only if the subset solve canonicalized the whole group.
    """
    full = eigendecompose(sa.laplacian(g, kind))
    sub = sa.graph_spectrum(_twin(g), kind, count=count)
    assert sub.n_pairs == count
    assert np.abs(sub.eigenvalues - full.eigenvalues[:count]).max() < 1e-12
    for lo, hi in spectral._degenerate_groups(full.eigenvalues):
        if lo >= count:
            break
        a = sub.eigenvectors[:, lo : min(hi, count)]
        b = full.eigenvectors[:, lo : min(hi, count)]
        assert np.abs(a @ a.T - b @ b.T).max() < 1e-10, (lo, hi)


class TestSubsetSolves:
    @pytest.mark.parametrize(
        "g,count",
        [
            pytest.param(_complete(12), 2, id="K12"),
            pytest.param(_complete(12), 11, id="K12-all-but-one"),
            pytest.param(_star(9), 2, id="star"),
            pytest.param(_copies(random_connected_graph(np.random.default_rng(7), 7), 3), 2, id="copies-2"),
            pytest.param(_copies(random_connected_graph(np.random.default_rng(7), 7), 3), 4, id="copies-4"),
            pytest.param(_copies(_complete(4), 2), 3, id="two-K4"),
        ],
    )
    @pytest.mark.parametrize("kind", list(sa.LaplacianKind))
    def test_groups_that_straddle_count(self, g, count, kind):
        _assert_subset_matches_full(g, kind, count)

    @pytest.mark.parametrize(
        "g,asked",
        [
            pytest.param(_complete(12), [3, 6, 12], id="K12-widens-to-every-pair"),
            pytest.param(random_connected_graph(np.random.default_rng(8), 30, p=0.2), [3], id="gap-after-count"),
        ],
    )
    def test_the_request_widens_until_a_gap_closes_the_kept_group(self, monkeypatch, g, asked):
        calls = []
        real = spectral._mrrr

        def recording(M, m):
            calls.append(m)
            return real(M, m)

        monkeypatch.setattr(spectral, "_mrrr", recording)
        sa.graph_spectrum(g, count=2)
        assert calls == asked

    def test_a_wrong_vector_from_the_subset_driver_fails_the_checks(self, monkeypatch):
        real = spectral._mrrr

        def perturbed(M, m):
            vals, vecs = real(M, m)
            vecs = vecs.copy()
            vecs[0, 1] += 1e-6
            return vals, vecs

        monkeypatch.setattr(spectral, "_mrrr", perturbed)
        g = random_connected_graph(np.random.default_rng(9), 12)
        with pytest.raises(ConvergenceFailureError):
            sa.graph_spectrum(g, count=2)

    @pytest.mark.parametrize("count", [0, -1])
    def test_a_count_below_one_is_rejected(self, triangle, count):
        with pytest.raises(DimensionOutOfRangeError):
            sa.graph_spectrum(triangle, count=count)


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 24),
    frac=st.floats(0.0, 1.0),
    kind=st.sampled_from(list(sa.LaplacianKind)),
)
@settings(max_examples=60, deadline=None)
def test_random_subset_spectra_match_the_full_solve(seed, n, frac, kind):
    g = random_connected_graph(np.random.default_rng(seed), n, p=0.3)
    count = 1 + int(frac * (n - 2))
    _assert_subset_matches_full(g, kind, count)


def _cycle(n):
    return sa.graph_from_edges([f"v{i}" for i in range(n)], [(i, (i + 1) % n, 1.0) for i in range(n)])


def _hypercube(d):
    n = 2**d
    edges = [(i, i ^ (1 << b), 1.0) for i in range(n) for b in range(d) if i < i ^ (1 << b)]
    return sa.graph_from_edges([f"v{i}" for i in range(n)], edges)


class TestLanczosRoute:
    """Counted solves sent through shift-invert Lanczos by a dense limit of 0."""

    @pytest.mark.parametrize(
        "g,count",
        [
            pytest.param(_complete(12), 2, id="K12"),
            pytest.param(_star(9), 2, id="star"),
            pytest.param(_copies(_complete(4), 2), 3, id="two-K4"),
            pytest.param(_grid(5), 2, id="grid"),
            pytest.param(_hypercube(4), 3, id="Q4"),
        ],
    )
    @pytest.mark.parametrize("kind", list(sa.LaplacianKind))
    def test_groups_that_straddle_count(self, monkeypatch, g, count, kind):
        monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX_N", 0)
        _assert_subset_matches_full(g, kind, count)

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_lanczos_equals_the_subset_driver_on_a_cycle(self, monkeypatch, count):
        # C20's nonzero eigenvalues come in pairs, so counts 2 and 4 cut a group
        L = sa.laplacian(_cycle(20), sa.LaplacianKind.COMBINATORIAL)
        subset = eigendecompose(L, count)
        monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX_N", 0)
        lanczos = eigendecompose(L, count)
        assert np.abs(lanczos.eigenvalues - subset.eigenvalues).max() < 1e-10
        assert np.abs(lanczos.eigenvectors - subset.eigenvectors).max() < 1e-10

    def test_widening_past_the_first_doubling_goes_to_the_subset_driver(self, monkeypatch):
        calls = _record_drivers(monkeypatch)
        monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX_N", 0)
        eigendecompose(sa.laplacian(_complete(24), sa.LaplacianKind.COMBINATORIAL), 2)
        assert calls == [("lanczos", 3), ("lanczos", 6), ("subset", 12), ("subset", 24)]
        calls.clear()
        s = eigendecompose(sa.laplacian(_cycle(6), sa.LaplacianKind.COMBINATORIAL), 5)
        assert calls == [("subset", 6)] and s.n_pairs == 5

    def test_up_to_the_dense_limit_every_counted_request_goes_to_the_subset_driver(self, monkeypatch):
        calls = _record_drivers(monkeypatch)
        g = _complete(24)
        eigendecompose(sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL), 2)
        sa.graph_spectrum(g, count=2)
        assert calls == [("subset", 3), ("subset", 6), ("subset", 12), ("subset", 24)] * 2

    def test_a_widened_request_that_fails_in_the_subset_driver_names_it(self, monkeypatch):
        def failing(M, m):
            raise np.linalg.LinAlgError("Internal Error.")

        monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX_N", 0)
        monkeypatch.setattr(spectral, "_mrrr", failing)
        with pytest.raises(ConvergenceFailureError, match=r"^dense subset eigensolver failed: Internal Error\.$"):
            eigendecompose(sa.laplacian(_complete(24), sa.LaplacianKind.COMBINATORIAL), 2)

    def test_a_subset_the_driver_fails_on_widens_straight_to_every_pair(self, monkeypatch):
        lapack = spectral._lapack()
        calls = []

        def dsyevr(M, **kwargs):
            calls.append(kwargs["iu"])
            out = lapack.dsyevr(M, **kwargs)
            return (*out[:4], 1) if kwargs["iu"] == 6 else out  # info = 1 on the second subset

        monkeypatch.setattr(
            spectral, "_lapack", lambda: SimpleNamespace(dsyevd=lapack.dsyevd, dsyevr=dsyevr, dsyevr_lwork=lapack.dsyevr_lwork)
        )
        _assert_subset_matches_full(_complete(24), sa.LaplacianKind.COMBINATORIAL, 2)
        assert calls == [3, 6, 24]

    def test_eleven_components_cut_inside_a_group_of_equal_eigenvalues(self):
        # combinatorial eigenvalues 0 (x11), 1 (x4), 2 (x4), 3 (x2), 4; dsyevr has
        # failed on this matrix at every iu from 12 to 16 but 15, and a request
        # for two pairs widens from m = 6 to 12
        edges = [(0, 5), (1, 17), (2, 9), (3, 5), (4, 8), (4, 18), (5, 13), (6, 7), (11, 19), (12, 17), (14, 16)]
        g = sa.graph_from_edges([f"v{i}" for i in range(22)], [(i, j, 1.0) for i, j in edges])
        _assert_subset_matches_full(g, sa.LaplacianKind.COMBINATORIAL, 2)

    def test_a_lapack_error_in_the_subset_driver_is_a_convergence_failure(self, monkeypatch):
        lapack = spectral._lapack()

        def dsyevr(*args, **kwargs):
            return (*lapack.dsyevr(*args, **kwargs)[:4], 1)  # info = 1

        monkeypatch.setattr(spectral, "_lapack", lambda: SimpleNamespace(dsyevr=dsyevr, dsyevr_lwork=lapack.dsyevr_lwork))
        with pytest.raises(ConvergenceFailureError, match=r"^dense subset eigensolver failed: Internal Error\.$"):
            eigendecompose(sa.laplacian(_complete(6), sa.LaplacianKind.COMBINATORIAL), 2)


def _record_drivers(monkeypatch):
    """("lanczos" or "subset", m) of each counted driver call, in call order."""
    import scipy.sparse.linalg

    calls = []
    real_eigsh, real_mrrr = scipy.sparse.linalg.eigsh, spectral._mrrr

    def eigsh(*args, **kwargs):
        calls.append(("lanczos", kwargs["k"]))
        return real_eigsh(*args, **kwargs)

    def mrrr(M, m):
        calls.append(("subset", m))
        return real_mrrr(M, m)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
    monkeypatch.setattr(spectral, "_mrrr", mrrr)
    return calls


_CROSS_ROUTE_GRAPHS = (
    [pytest.param(_cycle(n), id=f"C{n}") for n in range(5, 31, 5)]
    + [pytest.param(_grid(a), id=f"grid{a}") for a in range(3, 8)]
    + [pytest.param(_complete(n), id=f"K{n}") for n in (6, 10, 16)]
    + [pytest.param(_star(n), id=f"star{n}") for n in (6, 11)]
    + [pytest.param(_hypercube(d), id=f"Q{d}") for d in (3, 4, 5)]
)


@pytest.mark.parametrize("g", _CROSS_ROUTE_GRAPHS)
def test_recursive_bipartition_does_not_depend_on_the_counted_route(monkeypatch, g):
    """Every counted solve through Lanczos gives the subset driver's partitions."""
    subset = [sa.recursive_bipartition(g, k).assignment.tolist() for k in (2, 3, 4)]
    monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX_N", 0)
    assert [sa.recursive_bipartition(g, k).assignment.tolist() for k in (2, 3, 4)] == subset


class TestEmbedding:
    def test_columns_skip_the_constant_eigenvector(self, bridged_triangles):
        s = spectrum_of(bridged_triangles)
        e = sa.spectral_embedding(s, 2)
        assert e.dim == 2
        assert np.array_equal(np.asarray(e.coordinates), s.eigenvectors[:, 1:3])

    def test_dimension_bounds(self, triangle):
        s = spectrum_of(triangle)
        with pytest.raises(DimensionOutOfRangeError):
            sa.spectral_embedding(s, 3)
        with pytest.raises(DimensionOutOfRangeError):
            sa.spectral_embedding(s, 0)

    def test_fiedler_error_on_trivial_graph(self):
        g = sa.graph_from_edges(["a"], [])
        s = spectrum_of(g)
        with pytest.raises(TooFewNodesError):
            sa.fiedler_vector(s)

    def test_too_few_pairs_rejected(self, bridged_triangles):
        s = spectrum_of(bridged_triangles, count=2)
        sa.spectral_embedding(s, 1)
        with pytest.raises(DimensionOutOfRangeError, match="holds 2 pairs"):
            sa.spectral_embedding(s, 2)

    def test_list_coordinates_become_a_read_only_float_array(self):
        e = sa.Embedding(coordinates=[[0, 1], [2, 3], [4, 5]], dim=2)
        assert e.coordinates.dtype == np.float64 and e.coordinates.shape == (3, 2)
        assert not e.coordinates.flags.writeable
        assert e.n == 3

    def test_the_embedding_keeps_its_own_copy_of_float64_coordinates(self):
        coords = np.zeros((3, 1))
        e = sa.Embedding(coordinates=coords, dim=1)
        assert coords.flags.writeable and not np.shares_memory(coords, e.coordinates)

    @pytest.mark.parametrize("coords", [np.zeros((3, 1)), np.zeros(3), np.zeros((3, 5, 1))])
    def test_coordinates_must_have_dim_columns(self, coords):
        with pytest.raises(DimensionMismatchError):
            sa.Embedding(coordinates=coords, dim=5 if coords.ndim == 2 else 3)


def test_large_counted_spectrum_uses_lanczos_and_matches_closed_form(monkeypatch):
    # above DENSE_SOLVER_MAX_N a counted spectrum must come from Lanczos;
    # the path graph P_n has lambda_k = 2 - 2 cos(pi k / n) with
    # eigenvectors cos(pi k (j + 1/2) / n), whose first entries are positive
    calls = _record_drivers(monkeypatch)
    n = DENSE_SOLVER_MAX_N + 52
    g = sa.graph_from_edges([f"v{i}" for i in range(n)], [(i, i + 1, 1.0) for i in range(n - 1)])
    s = sa.graph_spectrum(g, count=4)
    assert calls == [("lanczos", 5)]  # P_n's eigenvalues are simple, so m = 5 needs no widening
    k = np.arange(4)
    assert s.n_pairs == 4
    assert g._spectra == {}  # Lanczos results are never stored
    assert np.abs(s.eigenvalues - (2.0 - 2.0 * np.cos(np.pi * k / n))).max() < 1e-12
    expected = np.cos(np.pi * np.outer(np.arange(n) + 0.5, k) / n)
    expected /= np.linalg.norm(expected, axis=0)
    assert np.abs(s.eigenvectors - expected).max() < 1e-9


def test_lanczos_non_convergence_is_a_convergence_failure(monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("No convergence (3 iterations)", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX_N", 0)
    g = random_connected_graph(np.random.default_rng(5), 12)
    with pytest.raises(ConvergenceFailureError, match=r"^Lanczos solver failed: .*No convergence \(3 iterations\)"):
        eigendecompose(sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL), 3)


@pytest.mark.parametrize("seed", range(4))
def test_the_lapack_drivers_return_their_pairs_ascending(seed):
    # eigendecompose takes every solver's pairs in the order they come
    g = sa.sbm_generate(4, 12, 0.6, 0.05, seed=seed)
    M = sa.laplacian(g, sa.LaplacianKind.NORMALIZED).matrix
    for vals in (spectral._dsyevd(M)[0], spectral._mrrr(M, 20)[0]):
        assert (np.diff(vals) >= 0).all()


def test_lanczos_sorts_the_pairs_arpack_returns(monkeypatch):
    import scipy.sparse.linalg

    real = scipy.sparse.linalg.eigsh

    def reversed_eigsh(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        return vals[::-1], vecs[:, ::-1]

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", reversed_eigsh)
    monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX_N", 0)
    g = random_connected_graph(np.random.default_rng(7), 14)
    M = sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL).matrix
    vals, vecs = spectral._lanczos(M, 5)
    assert (np.diff(vals) >= 0).all()
    assert np.abs(M @ vecs - vecs * vals).max() < 1e-10
    expected = eigendecompose(sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL), 4)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", real)
    assert _same_bytes(expected, eigendecompose(sa.laplacian(g, sa.LaplacianKind.COMBINATORIAL), 4))


def _twin(g):
    """An equal graph with no stored spectra."""
    return sa.graph_from_edges(g.labels, g.edges)


def _same_bytes(a, b):
    return a.eigenvalues.tobytes() == b.eigenvalues.tobytes() and a.eigenvectors.tobytes() == b.eigenvectors.tobytes()


class TestStoredSpectra:
    @pytest.mark.parametrize("kind", list(sa.LaplacianKind))
    def test_a_full_spectrum_is_stored_and_equals_a_fresh_solve(self, kind):
        g = random_connected_graph(np.random.default_rng(11), 30, p=0.2)
        s = sa.graph_spectrum(g, kind)
        assert g._spectra == {kind: s}
        assert sa.graph_spectrum(g, kind) is s
        assert _same_bytes(s, eigendecompose(sa.laplacian(_twin(g), kind)))

    def test_kinds_are_stored_apart(self, dense_solves):
        g = random_connected_graph(np.random.default_rng(12), 20)
        for kind in list(sa.LaplacianKind) * 2:
            sa.graph_spectrum(g, kind)
        assert dense_solves == [("full", 20), ("full", 20)]
        assert set(g._spectra) == set(sa.LaplacianKind)

    def test_a_counted_request_on_a_fresh_graph_stores_nothing(self, dense_solves):
        g = random_connected_graph(np.random.default_rng(13), 20)
        sa.graph_spectrum(g, count=2)
        sa.graph_spectrum(g, count=2)
        assert g._spectra == {}
        assert dense_solves == [("subset", 20), ("subset", 20)]

    @pytest.mark.parametrize("count", [1, 2, 5, 19])
    def test_a_counted_request_ignores_the_stored_spectrum(self, dense_solves, count):
        g = random_connected_graph(np.random.default_rng(14), 20)
        full = sa.graph_spectrum(g)
        part = sa.graph_spectrum(g, count=count)
        fresh = sa.graph_spectrum(_twin(g), count=count)
        assert dense_solves == [("full", 20), ("subset", 20), ("subset", 20)]
        assert _same_bytes(part, fresh)
        assert g._spectra == {sa.LaplacianKind.COMBINATORIAL: full}

    @pytest.mark.parametrize("count", [20, 25])
    def test_a_count_of_n_or_more_is_a_full_request(self, dense_solves, count):
        g = random_connected_graph(np.random.default_rng(14), 20)
        s = sa.graph_spectrum(g, count=count)
        assert g._spectra == {sa.LaplacianKind.COMBINATORIAL: s}
        assert sa.graph_spectrum(g) is s
        assert dense_solves == [("full", 20)]

    @pytest.mark.parametrize("kind", ["combinatorial", None, ["normalized"]])
    def test_an_unknown_kind_is_rejected_and_stores_nothing(self, triangle, kind):
        with pytest.raises(InvalidArgumentError):
            sa.graph_spectrum(triangle, kind)
        assert triangle._spectra == {}

    def test_equality_hash_and_repr_ignore_stored_spectra(self):
        g = random_connected_graph(np.random.default_rng(15), 10)
        twin = _twin(g)
        before = (repr(g), hash(g))
        for kind in sa.LaplacianKind:
            sa.graph_spectrum(g, kind)
        assert g == twin and twin == g
        assert (repr(g), hash(g)) == before == (repr(twin), hash(twin))
        assert "_spectra" not in repr(g)


class TestMrrrDriver:
    """_mrrr calls LAPACK's dsyevr itself, with a workspace size kept per n."""

    @pytest.mark.parametrize("n", [2, 3, 24, 97, 192])
    def test_equals_scipy_eigh_byte_for_byte(self, n):
        import scipy.linalg

        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, n))
        laplacian = sa.laplacian(random_connected_graph(rng, n, p=0.2), sa.LaplacianKind.COMBINATORIAL)
        # one cached workspace serves every m at this n
        for M in (A + A.T, np.asarray(laplacian.matrix)):
            for m in sorted({1, 2, min(3, n), n // 2 or 1, n}):
                vals, vecs = spectral._mrrr(M, m)
                ref_vals, ref_vecs = scipy.linalg.eigh(M, subset_by_index=[0, m - 1], driver="evr")
                assert vals.shape == (m,) and vecs.shape == (n, m)
                assert vals.tobytes() == ref_vals.tobytes()
                assert vecs.tobytes() == ref_vecs.tobytes()


def _weighted(n, seed):
    """A connected graph with real weights spread over four decades."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, p=0.3)
    edges = [(i, j, w * 10.0 ** rng.uniform(-2, 2)) for i, j, w in g.edges]
    return sa.graph_from_edges(list(g.labels), edges)


class TestDsyevdDriver:
    """A full request runs LAPACK's dsyevd over one Fortran-order copy of the matrix."""

    @pytest.mark.parametrize("kind", list(sa.LaplacianKind))
    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(sa.graph_from_edges([f"v{i}" for i in range(41)], [(i, i + 1, 1.0) for i in range(40)]), id="path41"),
            pytest.param(_grid(9), id="grid9"),
            pytest.param(sa.sbm_generate(4, 30, 0.4, 0.03, seed=6), id="sbm120"),
            pytest.param(_weighted(90, 3), id="weighted90"),
        ],
    )
    def test_a_full_spectrum_matches_numpys_eigh_canonicalized(self, g, kind):
        # two bindings of two OpenBLAS builds: close, not necessarily the same bytes
        M = np.asarray(sa.laplacian(g, kind).matrix)
        vals, vecs = np.linalg.eigh(M)
        groups = spectral._degenerate_groups(vals)
        expected = spectral._canonicalize(groups, np.ascontiguousarray(vecs))
        s = eigendecompose(sa.laplacian(g, kind))
        assert spectral._degenerate_groups(s.eigenvalues) == groups
        assert np.abs(s.eigenvalues - vals).max() <= 1e-12 * vals[-1]
        assert np.abs(s.eigenvectors - expected).max() <= 1e-10

    def test_a_grid_has_repeated_eigenvalues(self):
        vals = eigendecompose(sa.laplacian(_grid(9), sa.LaplacianKind.COMBINATORIAL)).eigenvalues
        assert max(hi - lo for lo, hi in spectral._degenerate_groups(vals)) >= 2

    def test_the_eigenvectors_overwrite_the_copy_and_the_matrix_is_untouched(self, monkeypatch):
        M = np.asarray(sa.laplacian(_weighted(30, 1), sa.LaplacianKind.NORMALIZED).matrix)
        before = M.tobytes()
        copies = []
        lapack = spectral._lapack()

        def dsyevd(a, **kwargs):
            copies.append(a)
            return lapack.dsyevd(a, **kwargs)

        monkeypatch.setattr(spectral, "_lapack", lambda: SimpleNamespace(dsyevd=dsyevd))
        vals, vecs = spectral._dsyevd(M)
        assert vecs is copies[0] and vecs.flags.f_contiguous
        assert M.tobytes() == before
        assert np.abs(M @ vecs - vecs * vals).max() < 1e-12

    def test_a_lapack_error_in_the_full_driver_is_a_convergence_failure(self, monkeypatch):
        lapack = spectral._lapack()

        def dsyevd(*args, **kwargs):
            return (*lapack.dsyevd(*args, **kwargs)[:2], 1)  # info = 1

        monkeypatch.setattr(spectral, "_lapack", lambda: SimpleNamespace(dsyevd=dsyevd))
        with pytest.raises(ConvergenceFailureError, match=r"^dense eigensolver failed: Eigenvalues did not converge$"):
            eigendecompose(sa.laplacian(_complete(6), sa.LaplacianKind.COMBINATORIAL))

    def test_a_full_solve_holds_about_three_matrices_beside_the_laplacian(self):
        # the Fortran copy that becomes the eigenvectors and dsyevd's 2n^2 workspace;
        # np.linalg.eigh held a fourth, its separate output (4.06 x 8n^2 here)
        import tracemalloc

        g = sa.sbm_generate(4, 100, 0.2, 0.02, seed=1)
        eigendecompose(sa.laplacian(_complete(6), sa.LaplacianKind.COMBINATORIAL))  # loads the LAPACK module
        for kind in sa.LaplacianKind:
            L = sa.laplacian(g, kind)
            tracemalloc.start()
            try:
                eigendecompose(L)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3.1 * 8 * L.n**2, peak / (8 * L.n**2)


def _failure(check, *args):
    """The message a check raises ConvergenceFailureError with, or None when it passes."""
    try:
        check(*args)
    except ConvergenceFailureError as exc:
        return str(exc)
    return None


class TestCheckMessages:
    def test_a_negative_first_eigenvalue_fails_semidefiniteness(self):
        with pytest.raises(ConvergenceFailureError) as info:
            spectral._validate_spectrum(np.eye(2), np.array([-1e-9, 1.0]), np.eye(2))
        assert str(info.value) == "spectrum violates positive semidefiniteness: lambda_1 = -1e-09"

    def test_a_stretched_vector_fails_orthonormality(self):
        vecs = np.diag([1.0, 1.0 + 1e-6])
        with pytest.raises(ConvergenceFailureError) as info:
            spectral._validate_spectrum(np.diag([0.0, 1.0]), np.array([0.0, 1.0]), vecs)
        assert str(info.value) == "eigenvectors lost orthonormality (2.00e-06)"

    def test_the_residual_message_names_the_lowest_failing_pair(self):
        M = np.diag([0.0, 1.0, 2.0, 3.0])
        vals = np.array([0.0, 1.0 + 1e-6, 2.0, 3.0 + 1e-3])
        with pytest.raises(ConvergenceFailureError) as info:
            spectral._validate_spectrum(M, vals, np.eye(4))
        assert str(info.value) == "residual for eigenpair 1 is 1.00e-06, bound 1.00e-08"

    @pytest.mark.parametrize(
        "M, message",
        [
            pytest.param(np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)", id="not-square"),
            pytest.param([[1.0, 2.0], [0.0, 1.0]], "matrix asymmetry 2.00e+00 exceeds 1e-12", id="asymmetric"),
            pytest.param([[1.0, 1e-12], [0.0, 1.0]], None, id="within-tolerance"),
            pytest.param([[np.nan, 0.0], [0.0, 1.0]], "matrix asymmetry nan exceeds 1e-12", id="nan"),
            pytest.param([[np.inf, 0.0], [0.0, 1.0]], "matrix asymmetry nan exceeds 1e-12", id="inf"),
        ],
    )
    def test_symmetry_check(self, M, message):
        if message is None:
            graphs._check_symmetric(np.array(M))
            return
        with pytest.raises(NotSymmetricError) as info:
            graphs._check_symmetric(np.array(M))
        assert str(info.value) == message

    @staticmethod
    def _symmetry_outcome(check, M):
        try:
            check(M)
        except NotSymmetricError as exc:
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 1024])
    def test_the_tiled_symmetry_check_decides_as_one_whole_comparison(self, n):
        """One asymmetric, NaN or infinite entry in a diagonal, off-diagonal or last partial tile."""
        b = graphs._SYMMETRY_TILE
        assert b == 128  # the sizes above are 1, 2, b - 1, b, b + 1 and 2b + 1
        A = np.random.default_rng(n).random((n, n))
        S = A + A.T
        places = {(min(1, n - 1), 0), (n - 1, 0), (0, n - 1), (n - 1, max(n - 2, 0)), (n - 1, n - 1)}
        if n > b:  # either side of a tile edge
            places |= {(b, b - 1), (n - 1, b)}
        outcomes = set()

        def same_outcome(M):
            assert graphs._exactly_symmetric(M) == np.array_equal(M, M.T)
            outcome = self._symmetry_outcome(graphs._check_symmetric, M)
            assert outcome == self._symmetry_outcome(array_equal_check_symmetric, M)
            outcomes.add(outcome and outcome[1].split()[2])

        same_outcome(S)
        for r, c in sorted(places):
            x, mirror = S[r, c], S[c, r]
            for value in (x + 1e-13, x + 1.0, np.nan, np.inf, -np.inf):
                S[r, c] = value
                same_outcome(S)
            S[r, c] = S[c, r] = np.inf  # symmetric, but not finite
            same_outcome(S)
            S[r, c], S[c, r] = x, mirror
        assert None in outcomes and "nan" in outcomes and (n == 1 or "1.00e+00" in outcomes)

    @pytest.mark.parametrize("shape", [(0,), (3,), (2, 3), (3, 2), (129, 128), (1, 0), (2, 2, 2)])
    def test_a_non_square_shape_is_refused_as_before(self, shape):
        M = np.zeros(shape)
        outcome = self._symmetry_outcome(graphs._check_symmetric, M)
        assert outcome == self._symmetry_outcome(array_equal_check_symmetric, M)
        assert outcome == (NotSymmetricError, f"expected a square matrix, got shape {shape}")


@pytest.mark.parametrize("n", [63, 64, 65, 129, 200])
@pytest.mark.parametrize("where", ["first", "block-edge", "last"])
def test_validate_spectrum_matches_the_loop_over_several_row_blocks(n, where):
    # the residual is formed _RESIDUAL_BLOCK rows at a time
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n))
    M = A @ A.T
    vals, vecs = np.linalg.eigh(M)
    assert _failure(spectral._validate_spectrum, M, vals, vecs) is None
    k = {"first": 0, "block-edge": min(n - 1, spectral._RESIDUAL_BLOCK), "last": n - 1}[where]
    vals = vals.copy()
    vals[k] += 2e-8 * max(1.0, abs(vals[k]))
    message = _failure(spectral._validate_spectrum, M, vals, vecs)
    assert message is not None and message.startswith(f"residual for eigenpair {k} ")
    assert message == _failure(loop_validate_spectrum, M, vals, vecs)


@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 12),
    shifts=st.lists(st.sampled_from([0.0, 0.5, 1 - 1e-5, 1 - 1e-7, 1 - 1e-12, 1.0, 1 + 1e-12, 2.0]), min_size=12, max_size=12),
    sign=st.sampled_from([-1.0, 1.0]),
    psd_shift=st.sampled_from([0.0, 1.0, 1 + 1e-9, 2.0]),
    stretch=st.sampled_from([0.0, 5e-10, 1e-9, 2e-9]),
)
@settings(max_examples=300, deadline=None)
def test_validate_spectrum_matches_the_per_column_loop(seed, n, shifts, sign, psd_shift, stretch):
    """Eigenvalues moved by about their residual bound reach the exact per-column decision."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
    vals, vecs = np.linalg.eigh(A @ A.T)
    m = int(rng.integers(1, n + 1))
    vals, vecs = vals[:m].copy(), vecs[:, :m].copy()
    vals += sign * np.array(shifts[:m]) * 1e-8 * np.maximum(1.0, np.abs(vals))
    vals[0] -= psd_shift * 1e-10
    vecs[:, -1] *= 1.0 + stretch
    M = A @ A.T
    assert _failure(spectral._validate_spectrum, M, vals, vecs) == _failure(loop_validate_spectrum, M, vals, vecs)

