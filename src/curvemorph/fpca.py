"""Functional PCA on a dense common grid, univariate per coordinate and multivariate.

The multivariate estimator follows the score-matrix route: univariate FPCA
per coordinate, concatenated scores Xi, eigen-decomposition of
Z = Xi' Xi / (n - 1), and multivariate eigenfunctions assembled as linear
combinations of the univariate ones.  Its ``ComponentModel`` is also what
``pca.pca_fit`` returns, so ``mfpca_project`` and ``mfpca_reconstruct``
serve both decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Quadrature weights for the trapezoid rule on an arbitrary grid."""
    grid = np.asarray(grid, dtype=float)
    d = np.diff(grid)
    w = np.zeros_like(grid)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


@dataclass
class ComponentModel:
    """A fitted principal-component model of (M, P) curves or configurations.

    The J basis elements are orthonormal under the quadrature ``weights``:
    the sum over m and p of weights[m] * basis[i, m, p] * basis[j, m, p] is 1
    for i = j and 0 otherwise.  MFPCA models carry the trapezoid weights of
    their grid and PCA models unit weights on their N landmarks, both with
    P = 3; ``ufpca`` models are one coordinate, P = 1.
    """

    mean: np.ndarray  # (M, P)
    basis: np.ndarray  # (J, M, P)
    weights: np.ndarray  # (M,)
    eigenvalues: np.ndarray  # (J,)
    scores: np.ndarray  # (n, J)


def ufpca(
    samples: np.ndarray,
    grid: np.ndarray,
    j_p: int,
    noise_cov: np.ndarray | None = None,
    pve: float | None = None,
) -> ComponentModel:
    """Univariate FPCA of n curves sampled on a common grid: a ``ComponentModel`` with P = 1.

    Curves are centered by the sample mean; the covariance function
    K(s, t) = sum_i X_i(s) X_i(t) / (n - 1) is diagonalised as a
    quadrature-weighted symmetric eigenproblem, and scores are quadrature
    inner products against the eigenfunctions.  The model's mean is (M, 1),
    its basis the (J_p, M, 1) eigenfunctions, orthonormal under the grid's
    trapezoid weights.

    ``noise_cov`` is an optional measurement-error covariance subtracted from
    the empirical covariance before the decomposition, so this coordinate's
    eigenvalues reflect signal rather than noise (scores are still
    projections of the observed curves).  ``pve`` truncates the retained
    components at the smallest count reaching that fraction of
    (noise-corrected) variance, never exceeding ``j_p``.  ``mfpca`` takes its
    spectrum from the covariance of these scores, so the correction reaches
    the multivariate spectrum only through which components the ``pve`` cut
    keeps.
    """
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n, m = samples.shape
    if n < 2:
        raise ValueError("need at least 2 curves")
    if m != grid.shape[0]:
        raise ValueError("samples and grid disagree")
    if j_p > min(n - 1, m):
        raise ValueError(f"j_p={j_p} exceeds min(n - 1, grid length)")

    mean_fn = samples.mean(axis=0)
    centered = samples - mean_fn
    cov = centered.T @ centered / (n - 1)
    if noise_cov is not None:
        cov = cov - noise_cov

    w = trapezoid_weights(grid)
    sw = np.sqrt(w)
    sym = sw[:, None] * cov * sw[None, :]
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals)[::-1][:j_p]
    evals = np.clip(evals[order], 0.0, None)
    if pve is not None and evals.sum() > 0:
        keep = select_components(evals, pve)
        order = order[:keep]
        evals = evals[:keep]
    phi = fix_signs(evecs[:, order] / sw[:, None]).T  # (J_p, M)

    scores = centered @ (w[None, :] * phi).T  # (n, J_p)
    return ComponentModel(mean=mean_fn[:, None], basis=phi[:, :, None], weights=w, eigenvalues=evals, scores=scores)


def mfpca(models: list[ComponentModel], j_out: int | None = None) -> ComponentModel:
    """Combine three per-coordinate ``ufpca`` models (P = 1) into a multivariate decomposition (P = 3).

    The model's mean stacks the coordinates' mean functions, and its basis the
    multivariate eigenfunctions, orthonormal under the first model's weights.
    """
    if len(models) != 3:
        raise ValueError("expected one univariate model per coordinate")
    if any(u.mean.shape[1] != 1 for u in models):
        raise ValueError("expected univariate models (one coordinate each)")
    n = models[0].scores.shape[0]
    if any(u.scores.shape[0] != n for u in models):
        raise ValueError("univariate models disagree on sample count")
    j_blocks = [u.scores.shape[1] for u in models]
    j_total = sum(j_blocks)
    if j_out is None:
        j_out = j_total
    if not 1 <= j_out <= j_total:
        raise ValueError("j_out must lie in [1, sum of univariate components]")

    xi = np.concatenate([u.scores for u in models], axis=1)  # (n, J)
    z_hat = xi.T @ xi / (n - 1)
    evals, evecs = np.linalg.eigh(z_hat)
    order = np.argsort(evals)[::-1][:j_out]
    evals = np.clip(evals[order], 0.0, None)
    vecs = fix_signs(evecs[:, order])  # (J, J_out)

    # each coordinate's (J_p, J_out) block of vecs combines its eigenfunctions into (J_out, M)
    blocks = np.split(vecs, np.cumsum(j_blocks)[:-1])
    return ComponentModel(
        mean=np.concatenate([u.mean for u in models], axis=1),
        basis=np.stack([block.T @ u.basis[:, :, 0] for u, block in zip(models, blocks)], axis=-1),
        weights=models[0].weights,
        eigenvalues=evals,
        scores=xi @ vecs,
    )


def mfpca_fit(
    values: np.ndarray, grid: np.ndarray, m_target: int, noise_covs: np.ndarray | None = None, pve: float | None = None
) -> ComponentModel:
    """MFPCA of an (n, M, 3) stack: ``ufpca`` of each coordinate (its (M, M) ``noise_covs`` row, ``pve``), then ``mfpca``.

    Each coordinate keeps at most min(n - 1, M, m_target) components, and the whole model at most ``m_target``.
    The noise covariances change the multivariate spectrum only through which
    components the ``pve`` cut keeps in each coordinate; without a cut the
    spectrum is the plain one.
    """
    n, m, _ = values.shape
    j_p = min(n - 1, m, m_target)
    models = [
        ufpca(values[:, :, p], grid, j_p, noise_cov=None if noise_covs is None else noise_covs[p], pve=pve)
        for p in range(3)
    ]
    j_total = sum(u.eigenvalues.shape[0] for u in models)
    return mfpca(models, j_out=min(m_target, j_total))


def mfpca_project(model: ComponentModel, new_samples: np.ndarray) -> np.ndarray:
    """Scores of an (n, M, 3) stack of held-out curves or configurations against a fitted model.

    Each centered specimen's weighted inner product with every basis element.
    """
    new_samples = np.asarray(new_samples, dtype=float)
    if new_samples.shape[1:] != model.mean.shape:
        raise ValueError("grid mismatch with the fitted model")
    weighted = (model.basis * model.weights[:, None]).reshape(-1, model.mean.size)
    return (new_samples - model.mean).reshape(-1, model.mean.size) @ weighted.T


def mfpca_reconstruct(model: ComponentModel, scores: np.ndarray, k: int) -> np.ndarray:
    """Truncated expansions: the mean plus the k leading score-weighted basis elements.

    (..., K) scores give (..., M, 3) curves or configurations.
    """
    scores = np.asarray(scores, dtype=float)
    if not 0 <= k <= model.eigenvalues.shape[0]:
        raise ValueError("component count out of range")
    # (k, mean.size), not (k, -1): a reshape of zero rows cannot infer its width
    flat = scores[..., :k] @ model.basis[:k].reshape(k, model.mean.size)
    return model.mean + flat.reshape(*flat.shape[:-1], *model.mean.shape)


def select_components(eigenvalues: np.ndarray, threshold: float = 0.95) -> int:
    """Smallest k whose leading eigenvalues reach the cumulative-variance threshold; at most their count."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.size == 0 or np.any(eigenvalues < -1e-12):
        raise ValueError("eigenvalues must be nonnegative")
    total = eigenvalues.sum()
    if total <= 0.0:
        raise ValueError("no variance")
    fractions = np.cumsum(eigenvalues) / total
    # the last fraction can round below 1, and a threshold of 1 would then land past the end
    return int(min(np.searchsorted(fractions, threshold, side="left") + 1, eigenvalues.size))
