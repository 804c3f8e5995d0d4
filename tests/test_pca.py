import numpy as np
import pytest

from curvemorph.fpca import mfpca_project, mfpca_reconstruct
from curvemorph.pca import pca_fit


class TestPcaFit:
    def test_rank_one_line(self):
        rng = np.random.default_rng(0)
        v = np.array([1.0, -2.0, 0.5, 3.0, 0.0, -1.5])
        v = v / np.linalg.norm(v)
        data = (rng.normal(size=(20, 1)) * v).reshape(20, 2, 3)
        model = pca_fit(data)
        assert model.eigenvalues[0] > 0
        assert model.eigenvalues[1:].max() < 1e-20
        assert abs(abs(model.basis[0].ravel() @ v) - 1.0) < 1e-10

    def test_isotropic_symmetric_data(self):
        # three unit vectors at 120 degrees in the xy plane: both principal variances equal
        angles = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        data = np.stack([np.cos(angles), np.sin(angles), np.zeros(3)], axis=1)[:, None, :]
        model = pca_fit(data)
        assert model.eigenvalues[0] == pytest.approx(model.eigenvalues[1], abs=1e-10)

    def test_full_rank_roundtrip(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(10, 4, 3))
        model = pca_fit(data)
        for i in range(10):
            recon = mfpca_reconstruct(model, model.scores[i], model.basis.shape[0])
            assert np.max(np.abs(recon - data[i])) < 1e-8

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            pca_fit(np.ones((1, 2, 3)))

    def test_needs_a_stack_of_3d_configurations(self):
        for shape in ((4, 6), (4, 2, 2)):
            with pytest.raises(ValueError, match="^need an \\(n, N, 3\\) stack with n >= 2$"):
                pca_fit(np.ones(shape))

    def test_loadings_orthonormal(self):
        rng = np.random.default_rng(2)
        model = pca_fit(rng.normal(size=(15, 3, 3)))
        assert model.basis.shape == (9, 3, 3) and np.array_equal(model.weights, np.ones(3))
        loadings = model.basis.reshape(9, 9)
        gram = loadings @ loadings.T
        assert np.max(np.abs(gram - np.eye(9))) < 1e-8


class TestPcaReconstruct:
    def test_zero_components_is_consensus(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(8, 3, 3))
        model = pca_fit(data)
        recon = mfpca_reconstruct(model, model.scores[0], 0)
        consensus = model.mean
        assert np.array_equal(recon, consensus)
        assert np.allclose(consensus, data.mean(axis=0), atol=0)

    def test_error_nonincreasing_in_k(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(12, 5, 3))
        model = pca_fit(data)
        for i in range(12):
            errs = []
            for k in range(model.basis.shape[0] + 1):
                recon = mfpca_reconstruct(model, model.scores[i], k)
                errs.append(np.sum((recon - data[i]) ** 2))
            assert all(errs[j + 1] <= errs[j] + 1e-12 for j in range(len(errs) - 1))

    def test_k_out_of_range(self):
        model = pca_fit(np.random.default_rng(5).normal(size=(6, 2, 3)))
        with pytest.raises(ValueError):
            mfpca_reconstruct(model, model.scores[0], model.basis.shape[0] + 1)


class TestInvariants:
    def test_eigenvalue_sum_is_total_variance(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(25, 4, 3))
        model = pca_fit(data)
        centered = data - data.mean(axis=0)
        total = np.sum(centered**2) / (25 - 1)
        assert model.eigenvalues.sum() == pytest.approx(total, rel=1e-8)

    def test_scores_uncorrelated(self):
        rng = np.random.default_rng(7)
        model = pca_fit(rng.normal(size=(30, 3, 3)))
        cov = model.scores.T @ model.scores / (30 - 1)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-8 * model.eigenvalues[0]

    def test_truncation_error_identity(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(20, 4, 3))
        model = pca_fit(data)
        for k in (0, 3, 7, model.basis.shape[0]):
            total_sq = 0.0
            for i in range(20):
                recon = mfpca_reconstruct(model, model.scores[i], k)
                total_sq += np.sum((recon - data[i]) ** 2)
            expected = model.eigenvalues[k:].sum() * (20 - 1)
            assert total_sq == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_project_matches_scores(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(18, 3, 3))
        model = pca_fit(data)
        assert np.max(np.abs(mfpca_project(model, data) - model.scores)) < 1e-10

    def test_landmark_major_order(self):
        # a configuration is read as (x1, y1, z1, x2, ...): the mean and the
        # loadings follow that order
        pts = np.arange(36, dtype=float).reshape(2, 6, 3)
        model = pca_fit(pts)
        assert np.array_equal(model.mean.ravel()[:6], [9, 10, 11, 12, 13, 14])
        assert np.allclose(model.basis[0].ravel(), np.full(18, 1 / np.sqrt(18)))
