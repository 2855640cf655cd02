"""Eigenmode decay model: prediction, fitting, and spectrum comparison."""

from __future__ import annotations

import numpy as np
import pytest

import spectral_abstraction as sa
from spectral_abstraction.errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    InvalidArgumentError,
    NotSymmetricError,
)
from spectral_abstraction import structfunc
from spectral_abstraction.structfunc import FcModel, fit_fc, predict_fc, spectra_similarity

from conftest import random_connected_graph
from oracles import dense_decay_matrix, dense_fit_fc, series_expm


def disconnected_graph(rng: np.random.Generator) -> sa.Graph:
    """Two random connected components side by side: lambda = 0 twice."""
    a = random_connected_graph(rng, 5)
    b = random_connected_graph(rng, 7)
    edges = list(a.edges) + [(i + a.n, j + a.n, w) for i, j, w in b.edges]
    return sa.graph_from_edges([f"v{i}" for i in range(a.n + b.n)], edges)


FIT_GRAPHS = {
    "random": lambda rng: random_connected_graph(rng, 12),
    "sbm": lambda rng: sa.sbm_generate(3, 6, 0.8, 0.1, seed=int(rng.integers(1000))),
    "disconnected": disconnected_graph,
}


class TestPredictFc:
    def test_beta_zero_unit_scale_is_identity(self, bridged_triangles):
        F = predict_fc(bridged_triangles, FcModel(beta=0.0, scale=1.0, offset=0.0))
        assert np.abs(F - np.eye(6)).max() < 1e-12

    def test_zero_scale_is_offset_times_identity(self, c4):
        F = predict_fc(c4, FcModel(beta=2.0, scale=0.0, offset=0.7))
        assert np.abs(F - 0.7 * np.eye(4)).max() < 1e-15

    def test_p3_matches_power_series_exponential(self, p3):
        L = np.asarray(sa.laplacian(p3, sa.LaplacianKind.NORMALIZED).matrix)
        F = predict_fc(p3, FcModel(beta=1.0, scale=1.0, offset=0.0))
        assert np.abs(F - series_expm(-L)).max() < 1e-9

    def test_eigen_sum_matches_series_for_larger_beta(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 12)
        L = np.asarray(sa.laplacian(g, sa.LaplacianKind.NORMALIZED).matrix)
        for beta in (0.5, 1.0, 3.5):
            F = predict_fc(g, FcModel(beta=beta, scale=1.0, offset=0.0))
            assert np.abs(F - series_expm(-beta * L)).max() < 1e-9

    def test_output_is_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            m = FcModel(
                beta=float(rng.uniform(0, 4)),
                scale=float(rng.uniform(0.1, 3)),
                offset=float(rng.uniform(0, 1)),
            )
            F = predict_fc(g, m)
            assert np.abs(F - F.T).max() < 1e-12
            assert np.linalg.eigvalsh(F).min() >= -1e-9

    def test_offset_free_model_inherits_structural_eigenvectors(self):
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 10)
        s = sa.graph_spectrum(g, sa.LaplacianKind.NORMALIZED)
        F = predict_fc(g, FcModel(beta=0.8, scale=1.5, offset=0.0))
        _vals, vecs = np.linalg.eigh(F)
        # principal angles between the two full eigenbases
        sv = np.linalg.svd(vecs.T @ s.eigenvectors, compute_uv=False)
        assert np.abs(sv - 1.0).max() < 1e-6

    def test_combinatorial_kind_switch(self, p3):
        L = np.asarray(sa.laplacian(p3, sa.LaplacianKind.COMBINATORIAL).matrix)
        F = predict_fc(
            p3, FcModel(beta=1.0, scale=1.0, offset=0.0), kind=sa.LaplacianKind.COMBINATORIAL
        )
        assert np.abs(F - series_expm(-L)).max() < 1e-9

    @pytest.mark.parametrize("graph", sorted(FIT_GRAPHS))
    @pytest.mark.parametrize("kind", list(sa.LaplacianKind))
    def test_symmetric_product_matches_the_symmetrized_general_product(self, graph, kind):
        rng = np.random.default_rng(17)
        s = sa.graph_spectrum(FIT_GRAPHS[graph](rng), kind)
        for beta in (0.0, 0.3, 1.3, 4.2, 10.0):
            E = structfunc._decay_matrix(s, beta)
            ref = dense_decay_matrix(s, beta)
            assert np.array_equal(E, E.T)
            assert np.abs(E - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("kind", list(sa.LaplacianKind))
    def test_closed_form_eigenvalues_match_the_predicted_matrix(self, kind):
        rng = np.random.default_rng(23)
        for graph in sorted(FIT_GRAPHS):
            g = FIT_GRAPHS[graph](rng)
            for m in (
                FcModel(beta=0.77, scale=2.0, offset=0.1),
                FcModel(beta=4.2, scale=-1.5, offset=0.3),
                FcModel(beta=0.0, scale=0.5, offset=0.0),
            ):
                closed = structfunc._model_eigenvalues(g, m, kind)
                dense = np.linalg.eigvalsh(predict_fc(g, m, kind))
                assert np.abs(closed - dense).max() <= 1e-12 * abs(m.scale)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            FcModel(beta=-0.1, scale=1.0, offset=0.0)
        with pytest.raises(ValueError):
            FcModel(beta=1.0, scale=float("inf"), offset=0.0)


class TestFitFc:
    def test_round_trip_parameter_grid(self):
        rng = np.random.default_rng(4)
        graphs = [
            random_connected_graph(rng, 8),
            random_connected_graph(rng, 12),
            sa.sbm_generate(2, 5, 0.9, 0.1, seed=2),
        ]
        for g in graphs:
            for beta in (0.3, 1.3, 4.0):
                for scale in (0.5, 2.0):
                    truth = FcModel(beta=beta, scale=scale, offset=0.1)
                    observed = predict_fc(g, truth)
                    model, err = fit_fc(g, observed)
                    assert err < 1e-8
                    assert abs(model.beta - truth.beta) < 1e-3
                    assert abs(model.scale - truth.scale) < 1e-3
                    assert abs(model.offset - truth.offset) < 1e-3

    def test_identity_observed_fits_exactly_without_identifiability(self, bridged_triangles):
        _model, err = fit_fc(bridged_triangles, np.eye(6))
        assert err < 1e-8

    def test_noisy_observation_keeps_beta_close(self):
        g = sa.sbm_generate(3, 10, 0.8, 0.05, seed=6)
        truth = FcModel(beta=1.3, scale=2.0, offset=0.1)
        rng = np.random.default_rng(0)
        noise = rng.normal(scale=1e-3, size=(30, 30))
        observed = predict_fc(g, truth) + (noise + noise.T) / 2.0
        model, err = fit_fc(g, observed)
        assert err <= 30 * 1e-3
        assert abs(model.beta - truth.beta) < 0.05

    @pytest.mark.parametrize("beta, on_grid", [(1.0, True), (1.37, False)], ids=["grid-point-wins", "refined-wins"])
    def test_beta_is_a_python_float(self, beta, on_grid):
        g = sa.sbm_generate(3, 6, 0.8, 0.1, seed=5)
        model, _ = fit_fc(g, predict_fc(g, FcModel(beta=beta, scale=2.0, offset=0.1)))
        assert (model.beta in np.linspace(0.0, 10.0, 101).tolist()) == on_grid
        assert abs(model.beta - beta) < 1e-9
        assert type(model.beta) is float

    def test_shape_and_symmetry_validation(self, triangle):
        with pytest.raises(DimensionMismatchError):
            fit_fc(triangle, np.eye(4))
        with pytest.raises(DimensionMismatchError, match="square"):
            fit_fc(triangle, np.zeros((3, 4)))
        bad = np.eye(3)
        bad[0, 1] = 1e-3
        with pytest.raises(NotSymmetricError):
            fit_fc(triangle, bad)


class TestFitFcMatchesDenseSearch:
    """The eigenbasis search against the former dense reconstruction per beta."""

    @pytest.mark.parametrize("graph", sorted(FIT_GRAPHS))
    @pytest.mark.parametrize("kind", list(sa.LaplacianKind))
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_same_fit_as_dense_search(self, graph, kind, noise):
        rng = np.random.default_rng(31)
        for beta in (0.77, 1.3, 4.2):
            g = FIT_GRAPHS[graph](rng)
            observed = predict_fc(g, FcModel(beta=beta, scale=2.0, offset=0.1), kind=kind)
            z = rng.normal(scale=noise, size=observed.shape)
            observed = observed + (z + z.T) / 2.0
            model, err = fit_fc(g, observed, kind)
            ref, ref_err = dense_fit_fc(g, observed, kind)
            if noise == 0.0:
                assert abs(err - ref_err) <= 1e-12
            else:
                assert abs(err - ref_err) <= 1e-9 * ref_err
            assert abs(model.beta - ref.beta) <= 1e-6
            assert abs(model.scale - ref.scale) <= 1e-6
            assert abs(model.offset - ref.offset) <= 1e-6

    def test_one_dense_reconstruction_per_fit(self, monkeypatch):
        g = sa.sbm_generate(3, 6, 0.8, 0.1, seed=5)
        rng = np.random.default_rng(2)
        z = rng.normal(scale=0.01, size=(g.n, g.n))
        observed = predict_fc(g, FcModel(beta=1.3, scale=2.0, offset=0.1)) + (z + z.T) / 2.0
        betas = []
        decay = structfunc._decay_matrix

        def counted(s, beta):
            betas.append(beta)
            return decay(s, beta)

        monkeypatch.setattr(structfunc, "_decay_matrix", counted)
        model, _ = fit_fc(g, observed)
        assert betas == [model.beta]

    def test_disconnected_graph_has_a_repeated_zero_eigenvalue(self):
        g = disconnected_graph(np.random.default_rng(31))
        for kind in sa.LaplacianKind:
            assert (np.abs(sa.graph_spectrum(g, kind).eigenvalues) < 1e-9).sum() == 2


class TestNonFiniteMatrices:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_fit_rejects_a_non_finite_cell(self, bad):
        g = sa.sbm_generate(2, 4, 0.9, 0.2, seed=1)
        observed = predict_fc(g, FcModel(beta=1.0, scale=1.0, offset=0.1))
        observed[2, 5] = observed[5, 2] = bad
        with pytest.raises(InvalidArgumentError, match="matrix entries must be finite"):
            fit_fc(g, observed)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_spectra_similarity_rejects_a_non_finite_cell(self, bad):
        a = np.diag([1.0, 2.0, 3.0])
        b = np.diag([1.0, 2.0, 4.0])
        b[0, 0] = bad
        with pytest.raises(InvalidArgumentError, match="matrix entries must be finite"):
            spectra_similarity(a, b)
        with pytest.raises(InvalidArgumentError, match="matrix entries must be finite"):
            spectra_similarity(b, a)


class TestSpectraSimilarity:
    def test_identical_matrices_score_one(self, c4):
        F = predict_fc(c4, FcModel(beta=1.0, scale=1.0, offset=0.0))
        assert abs(spectra_similarity(F, F) - 1.0) < 1e-12

    def test_affine_map_scores_one(self, c4):
        F = predict_fc(c4, FcModel(beta=1.0, scale=1.0, offset=0.0))
        G = 2.0 * F + 3.0 * np.eye(4)
        assert abs(spectra_similarity(F, G) - 1.0) < 1e-9

    def test_sorting_removes_diagonal_order(self):
        a = np.diag([1.0, 2.0, 3.0])
        b = np.diag([3.0, 2.0, 1.0])
        assert abs(spectra_similarity(a, b) - 1.0) < 1e-12

    def test_invariant_under_orthogonal_conjugation(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(5, 5))
        a = (X + X.T) / 2.0
        Y = rng.normal(size=(5, 5))
        b = (Y + Y.T) / 2.0
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        base = spectra_similarity(a, b)
        conj = spectra_similarity(Q.T @ a @ Q, b)
        assert abs(base - conj) < 1e-9

    def test_result_lies_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            X = rng.normal(size=(4, 4))
            Y = rng.normal(size=(4, 4))
            r = spectra_similarity((X + X.T) / 2, (Y + Y.T) / 2)
            assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12

    def test_flat_spectrum_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            spectra_similarity(np.eye(3), np.diag([1.0, 2.0, 3.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            spectra_similarity(np.eye(3), np.eye(4))

    def test_too_small_matrices_rejected(self):
        with pytest.raises(DimensionMismatchError):
            spectra_similarity(np.eye(2), np.eye(2))


def test_fit_then_predict_solves_the_laplacian_once(dense_solves):
    g = sa.sbm_generate(3, 8, 0.7, 0.1, seed=4)
    twin = sa.graph_from_edges(g.labels, g.edges)
    observed = predict_fc(twin, FcModel(beta=0.8, scale=1.5, offset=0.2))
    dense_solves.clear()
    model, _ = fit_fc(g, observed)
    predicted = predict_fc(g, model)
    assert dense_solves == [("full", g.n)]
    assert predicted.tobytes() == predict_fc(sa.graph_from_edges(g.labels, g.edges), model).tobytes()
