"""Classical PCA on (n, N, 3) stacks of landmark configurations.

Each configuration is read as one row of 3N values, landmark-major and
coordinate-minor (x1, y1, z1, x2, ...), fixed so loadings are comparable
across runs.  The fit is a ``fpca.ComponentModel`` with unit weights, so
``fpca.mfpca_project`` and ``fpca.mfpca_reconstruct`` project and
reconstruct configurations.
"""

from __future__ import annotations

import numpy as np

from curvemorph.fpca import ComponentModel, fix_signs


def pca_fit(points: np.ndarray) -> ComponentModel:
    """Eigen-decomposition of the centered sample covariance of an (n, N, 3) stack (SVD route).

    Keeps min(n - 1, 3N) components, each loading reshaped to (N, 3).
    """
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
    return ComponentModel(
        mean=mean.reshape(-1, 3),
        basis=loadings.reshape(k_max, -1, 3),
        weights=np.ones(points.shape[1]),
        eigenvalues=eigenvalues,
        scores=scores,
    )
