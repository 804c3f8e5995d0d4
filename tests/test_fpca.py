import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemorph.curvetools import uniform_params
from curvemorph.fpca import (
    mfpca,
    mfpca_fit,
    mfpca_project,
    mfpca_reconstruct,
    select_components,
    trapezoid_weights,
    ufpca,
)


def mf_inner(models_grid, a_blocks, b_blocks):
    w = trapezoid_weights(models_grid)
    return sum(float(np.sum(w * ab * bb)) for ab, bb in zip(a_blocks, b_blocks))


def fit_three_coordinate_model(values, grid, j_p, j_out=None):
    models = [ufpca(values[:, :, p], grid, j_p) for p in range(3)]
    return mfpca(models, j_out=j_out)


class TestUfpca:
    def test_rank_one_process(self):
        grid = uniform_params(50)
        rng = np.random.default_rng(0)
        coef = rng.normal(size=(40, 1))
        samples = coef * np.sin(2 * np.pi * grid)
        model = ufpca(samples, grid, j_p=5)
        assert model.eigenvalues[0] / model.eigenvalues.sum() > 0.9999
        phi = np.sin(2 * np.pi * grid)
        phi = phi / np.sqrt(np.sum(trapezoid_weights(grid) * phi**2))
        align = abs(float(np.sum(trapezoid_weights(grid) * model.basis[0, :, 0] * phi)))
        assert align == pytest.approx(1.0, abs=1e-6)

    def test_identical_curves_zero_spectrum(self):
        grid = uniform_params(30)
        samples = np.tile(np.sin(grid), (10, 1))
        model = ufpca(samples, grid, j_p=5)
        assert np.max(model.eigenvalues) < 1e-20

    def test_full_rank_reconstruction(self):
        grid = uniform_params(30)
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(200, 30))
        model = ufpca(samples, grid, j_p=30)
        recon = model.mean[:, 0] + model.scores @ model.basis[:, :, 0]
        assert np.max(np.abs(recon - samples)) < 1e-8

    def test_orthonormal_under_quadrature(self):
        grid = uniform_params(40)
        samples = np.random.default_rng(2).normal(size=(60, 40))
        model = ufpca(samples, grid, j_p=10)
        w = trapezoid_weights(grid)
        gram = (model.basis[:, :, 0] * w) @ model.basis[:, :, 0].T
        assert np.max(np.abs(gram - np.eye(10))) < 1e-6

    def test_jp_too_large(self):
        grid = uniform_params(20)
        samples = np.random.default_rng(3).normal(size=(5, 20))
        with pytest.raises(ValueError):
            ufpca(samples, grid, j_p=10)

    def test_noise_cov_subtraction_cleans_spectrum(self):
        grid = uniform_params(30)
        rng = np.random.default_rng(4)
        sigma = 0.3
        signal = rng.normal(size=(300, 1)) * np.sin(2 * np.pi * grid)
        noisy = signal + rng.normal(0, sigma, size=(300, 30))
        plain = ufpca(noisy, grid, j_p=20)
        corrected = ufpca(noisy, grid, j_p=20, noise_cov=sigma**2 * np.eye(30))
        assert corrected.eigenvalues[1:].sum() < 0.2 * plain.eigenvalues[1:].sum()

    def test_pve_truncation(self):
        grid = uniform_params(30)
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(50, 1)) * np.sin(2 * np.pi * grid) + 0.01 * rng.normal(size=(50, 30))
        model = ufpca(samples, grid, j_p=20, pve=0.99)
        assert model.eigenvalues.shape[0] < 20
        assert model.scores.shape[1] == model.eigenvalues.shape[0]


class TestMfpca:
    def test_independent_rank_one_blocks(self):
        grid = uniform_params(40)
        rng = np.random.default_rng(2)
        n = 500
        phi = np.sqrt(2.0) * np.sin(np.pi * grid)  # unit L2 norm on [0, 1]
        values = np.zeros((n, 40, 3))
        sample_vars = []
        for p, sd in enumerate(np.sqrt([4.0, 1.0, 0.25])):
            coef = rng.normal(0, sd, size=(n, 1))
            sample_vars.append(coef.var(ddof=1))
            values[:, :, p] = coef * phi
        model = fit_three_coordinate_model(values, grid, j_p=5)
        # 2% against the realized coefficient variances (sample cross-correlation
        # perturbs the eigenvalues), 5% against the population values
        for got, realized, expected in zip(model.eigenvalues[:3], sorted(sample_vars, reverse=True), [4.0, 1.0, 0.25]):
            assert got == pytest.approx(realized, rel=2e-2)
            assert got == pytest.approx(expected, rel=0.05)

    def test_full_rank_karhunen_loeve_roundtrip(self):
        grid = uniform_params(25)
        rng = np.random.default_rng(7)
        values = rng.normal(size=(40, 25, 3))
        model = fit_three_coordinate_model(values, grid, j_p=25)
        recon = mfpca_reconstruct(model, model.scores, model.eigenvalues.shape[0])
        for i in range(40):
            diff = [recon[i, :, p] - values[i, :, p] for p in range(3)]
            err = np.sqrt(mf_inner(grid, diff, diff))
            assert err < 1e-6

    def test_zero_coordinate_contributes_nothing(self):
        grid = uniform_params(30)
        rng = np.random.default_rng(8)
        values = np.zeros((30, 30, 3))
        values[:, :, 0] = rng.normal(size=(30, 1)) * np.sin(2 * np.pi * grid)
        values[:, :, 1] = rng.normal(size=(30, 1)) * np.cos(2 * np.pi * grid)
        model = fit_three_coordinate_model(values, grid, j_p=5)
        for j in range(model.eigenvalues.shape[0]):
            assert np.max(np.abs(model.basis[j, :, 2])) < 1e-6 or model.eigenvalues[j] < 1e-18

    def test_orthonormal_eigenfunctions(self):
        grid = uniform_params(30)
        rng = np.random.default_rng(9)
        values = rng.normal(size=(50, 30, 3))
        model = fit_three_coordinate_model(values, grid, j_p=10)
        assert np.array_equal(model.weights, trapezoid_weights(grid))
        k = model.eigenvalues.shape[0]
        for i in range(k):
            for j in range(i, k):
                ip = mf_inner(grid, [model.basis[i, :, p] for p in range(3)], [model.basis[j, :, p] for p in range(3)])
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-5)

    def test_score_covariance_is_diagonal_spectrum(self):
        grid = uniform_params(30)
        rng = np.random.default_rng(10)
        values = rng.normal(size=(60, 30, 3))
        model = fit_three_coordinate_model(values, grid, j_p=8)
        cov = model.scores.T @ model.scores / (60 - 1)
        assert np.max(np.abs(cov - np.diag(model.eigenvalues))) < 1e-6

    def test_total_variance_matches_quadrature(self):
        grid = uniform_params(30)
        rng = np.random.default_rng(11)
        values = rng.normal(size=(80, 30, 3))
        model = fit_three_coordinate_model(values, grid, j_p=30)
        w = trapezoid_weights(grid)
        total = 0.0
        for p in range(3):
            centered = values[:, :, p] - values[:, :, p].mean(axis=0)
            k_diag = np.sum(centered**2, axis=0) / (80 - 1)
            total += float(np.sum(w * k_diag))
        assert model.eigenvalues.sum() == pytest.approx(total, rel=1e-6)

    def test_mismatched_sample_count(self):
        grid = uniform_params(20)
        rng = np.random.default_rng(12)
        models = [ufpca(rng.normal(size=(10, 20)), grid, 3) for _ in range(2)]
        models.append(ufpca(rng.normal(size=(11, 20)), grid, 3))
        with pytest.raises(ValueError):
            mfpca(models)

    def test_only_univariate_models_combine(self):
        grid = uniform_params(20)
        values = np.random.default_rng(13).normal(size=(10, 20, 3))
        models = [ufpca(values[:, :, p], grid, 3) for p in range(3)]
        assert all(u.mean.shape == (20, 1) and u.basis.shape == (3, 20, 1) for u in models)
        models[2] = mfpca(models)
        with pytest.raises(ValueError, match="^expected univariate models"):
            mfpca(models)


class TestMfpcaFit:
    @pytest.mark.parametrize("n,m_target", [(12, 30), (40, 5), (40, 30)])
    def test_is_ufpca_per_coordinate_then_mfpca(self, n, m_target):
        grid = uniform_params(20)
        rng = np.random.default_rng(n + m_target)
        values = rng.normal(size=(n, 20, 3))
        noise_covs = [s2 * np.eye(20) for s2 in (0.01, 0.02, 0.03)]
        j_p = min(n - 1, 20, m_target)
        models = [ufpca(values[:, :, p], grid, j_p, noise_cov=noise_covs[p], pve=0.9) for p in range(3)]
        expected = mfpca(models, j_out=min(m_target, sum(u.eigenvalues.shape[0] for u in models)))
        model = mfpca_fit(values, grid, m_target, noise_covs, pve=0.9)
        assert np.array_equal(model.eigenvalues, expected.eigenvalues)
        assert np.array_equal(model.scores, expected.scores)
        assert np.array_equal(model.basis, expected.basis) and np.array_equal(model.mean, expected.mean)

    def test_caps_the_component_count(self):
        values = np.random.default_rng(3).normal(size=(40, 20, 3))
        assert mfpca_fit(values, uniform_params(20), 5).eigenvalues.shape == (5,)


class TestMfpcaProject:
    def _model_and_values(self):
        grid = uniform_params(30)
        rng = np.random.default_rng(13)
        values = rng.normal(size=(50, 30, 3))
        model = fit_three_coordinate_model(values, grid, j_p=10)
        return model, values, grid

    def test_training_data_reproduces_scores(self):
        model, values, _ = self._model_and_values()
        projected = mfpca_project(model, values)
        assert np.max(np.abs(projected - model.scores)) < 1e-8

    def test_mean_curve_projects_to_zero(self):
        model, _, _ = self._model_and_values()
        assert np.max(np.abs(mfpca_project(model, model.mean[None]))) < 1e-8

    def test_eigen_direction_projects_to_eigen_score(self):
        model, _, _ = self._model_and_values()
        lam = model.eigenvalues[0]
        curve = model.mean + np.sqrt(lam) * model.basis[0]
        score = mfpca_project(model, curve[None])[0]
        expected = np.zeros_like(score)
        expected[0] = np.sqrt(lam)
        assert np.max(np.abs(score - expected)) < 1e-8

    def test_grid_mismatch(self):
        model, values, _ = self._model_and_values()
        with pytest.raises(ValueError, match="grid"):
            mfpca_project(model, values[:, :20])


class TestSelectComponents:
    def test_exactly_at_threshold(self):
        assert select_components(np.array([95.0, 5.0]), 0.95) == 1

    def test_cumulative_example(self):
        assert select_components(np.array([0.5, 0.3, 0.15, 0.05]), 0.95) == 3

    def test_single_eigenvalue(self):
        assert select_components(np.array([2.0]), 0.95) == 1

    def test_all_zero_error(self):
        with pytest.raises(ValueError, match="no variance"):
            select_components(np.zeros(4))

    def test_threshold_one_on_a_spectrum_whose_last_fraction_rounds_below_one(self):
        eigenvalues = np.full(10, 0.1)
        assert np.cumsum(eigenvalues)[-1] / eigenvalues.sum() < 1.0
        assert select_components(eigenvalues, 1.0) == 10

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40).filter(lambda v: sum(v) > 0),
        st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0)),
    )
    @settings(max_examples=200)
    def test_count_lies_within_the_spectrum(self, values, threshold):
        ev = np.sort(np.asarray(values))[::-1]
        assert 1 <= select_components(ev, threshold) <= ev.size

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=12).filter(lambda v: sum(v) > 0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80)
    def test_monotone_in_threshold(self, values, t1, t2):
        ev = np.sort(np.asarray(values))[::-1]
        lo, hi = sorted([t1, t2])
        assert select_components(ev, lo) <= select_components(ev, hi)
