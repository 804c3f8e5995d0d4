"""Classical PCA on (n, N, 3) stacks of landmark configurations.

Each configuration is read as one row of 3N values, landmark-major and
coordinate-minor (x1, y1, z1, x2, ...), fixed so loadings are comparable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from curvemorph.fpca import fix_signs


@dataclass
class PcaModel:
    mean_vector: np.ndarray  # (3N,)
    loadings: np.ndarray  # (k_max, 3N), orthonormal rows
    eigenvalues: np.ndarray  # (k_max,)
    scores: np.ndarray  # (n, k_max)

    @property
    def k_max(self) -> int:
        return self.loadings.shape[0]


def pca_fit(points: np.ndarray) -> PcaModel:
    """Eigen-decomposition of the centered sample covariance of an (n, N, 3) stack (SVD route)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] != 3 or points.shape[0] < 2:
        raise ValueError("need an (n, N, 3) stack with n >= 2")
    x = points.reshape(points.shape[0], -1)
    n = x.shape[0]
    mean = x.mean(axis=0)
    centered = x - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    k_max = min(n - 1, x.shape[1])
    eigenvalues = svals[:k_max] ** 2 / (n - 1)
    loadings = fix_signs(vt[:k_max].T).T
    scores = centered @ loadings.T
    return PcaModel(mean_vector=mean, loadings=loadings, eigenvalues=eigenvalues, scores=scores)


def pca_project(model: PcaModel, points: np.ndarray) -> np.ndarray:
    """Scores of an (n, N, 3) stack of held-out configurations."""
    points = np.asarray(points, dtype=float)
    return (points.reshape(points.shape[0], -1) - model.mean_vector) @ model.loadings.T


def pca_reconstruct(model: PcaModel, scores: np.ndarray, k: int) -> np.ndarray:
    """Rank-k approximations added back to the mean: (..., K) scores give (..., N, 3) configurations."""
    scores = np.asarray(scores, dtype=float)
    if not 0 <= k <= model.k_max:
        raise ValueError("component count out of range")
    vec = model.mean_vector + scores[..., :k] @ model.loadings[:k]
    return vec.reshape(*vec.shape[:-1], -1, 3)
