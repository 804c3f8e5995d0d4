"""Classical PCA on flattened landmark configurations.

Flattening is landmark-major, coordinate-minor (x1, y1, z1, x2, ...), fixed
so loadings are comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def flatten_configurations(points: np.ndarray) -> np.ndarray:
    """Stack an (n, N, 3) array into (n, 3N) rows, landmark-major."""
    points = np.asarray(points, dtype=float)
    return points.reshape(points.shape[0], -1)


def _fix_signs_rows(rows: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(rows), axis=1)
    signs = np.sign(rows[np.arange(rows.shape[0]), idx])
    signs[signs == 0] = 1.0
    return rows * signs[:, None]


@dataclass
class PcaModel:
    mean_vector: np.ndarray  # (3N,)
    loadings: np.ndarray  # (k_max, 3N), orthonormal rows
    eigenvalues: np.ndarray  # (k_max,)
    scores: np.ndarray  # (n, k_max)

    @property
    def k_max(self) -> int:
        return self.loadings.shape[0]


def pca_fit(flattened: np.ndarray) -> PcaModel:
    """Eigen-decomposition of the column-centered sample covariance (SVD route)."""
    x = np.asarray(flattened, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need an n x d matrix with n >= 2")
    n = x.shape[0]
    mean = x.mean(axis=0)
    centered = x - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    k_max = min(n - 1, x.shape[1])
    eigenvalues = svals[:k_max] ** 2 / (n - 1)
    loadings = _fix_signs_rows(vt[:k_max])
    scores = centered @ loadings.T
    return PcaModel(mean_vector=mean, loadings=loadings, eigenvalues=eigenvalues, scores=scores)


def pca_project(model: PcaModel, flattened: np.ndarray) -> np.ndarray:
    return (np.asarray(flattened, dtype=float) - model.mean_vector) @ model.loadings.T


def pca_reconstruct(model: PcaModel, scores: np.ndarray, k: int) -> np.ndarray:
    """Rank-k approximations added back to the mean: (..., K) scores give (..., N, 3) configurations."""
    scores = np.asarray(scores, dtype=float)
    if not 0 <= k <= model.k_max:
        raise ValueError("component count out of range")
    vec = model.mean_vector + scores[..., :k] @ model.loadings[:k]
    return vec.reshape(*vec.shape[:-1], -1, 3)
