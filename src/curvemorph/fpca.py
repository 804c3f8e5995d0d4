"""Functional PCA on a dense common grid, univariate per coordinate and multivariate.

The multivariate estimator follows the score-matrix route: univariate FPCA
per coordinate, concatenated scores Xi, eigen-decomposition of
Z = Xi' Xi / (n - 1), and multivariate eigenfunctions assembled as linear
combinations of the univariate ones.
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


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


@dataclass
class UnivariateFpcaModel:
    """Eigen-decomposition of one coordinate's empirical covariance function."""

    grid: np.ndarray
    mean_fn: np.ndarray  # (M,)
    eigenfunctions: np.ndarray  # (J_p, M), orthonormal under trapezoid quadrature
    eigenvalues: np.ndarray  # (J_p,)
    scores: np.ndarray  # (n, J_p)


@dataclass
class MfpcaModel:
    """Multivariate FPCA built from three per-coordinate univariate models."""

    univariate: list[UnivariateFpcaModel]
    eigenvalues: np.ndarray  # (J_out,)
    eigvecs: np.ndarray  # (J, J_out)
    eigenfunctions: list[np.ndarray]  # per coordinate, (J_out, M)
    scores: np.ndarray  # (n, J_out)

    @property
    def mean_functions(self) -> np.ndarray:
        return np.stack([u.mean_fn for u in self.univariate], axis=1)  # (M, 3)


def ufpca(
    samples: np.ndarray,
    grid: np.ndarray,
    j_p: int,
    noise_cov: np.ndarray | None = None,
    pve: float | None = None,
) -> UnivariateFpcaModel:
    """Univariate FPCA of n curves sampled on a common grid.

    Curves are centered by the sample mean; the covariance function
    K(s, t) = sum_i X_i(s) X_i(t) / (n - 1) is diagonalised as a
    quadrature-weighted symmetric eigenproblem, and scores are quadrature
    inner products against the eigenfunctions.

    ``noise_cov`` is an optional measurement-error covariance subtracted from
    the empirical covariance before the decomposition, so the spectrum
    reflects signal rather than noise (scores are still projections of the
    observed curves).  ``pve`` truncates the retained components at the
    smallest count reaching that fraction of (noise-corrected) variance,
    never exceeding ``j_p``.
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
    phi = _fix_signs(evecs[:, order] / sw[:, None]).T  # (J_p, M)

    scores = centered @ (w[None, :] * phi).T  # (n, J_p)
    return UnivariateFpcaModel(grid=grid, mean_fn=mean_fn, eigenfunctions=phi, eigenvalues=evals, scores=scores)


def mfpca(models: list[UnivariateFpcaModel], j_out: int | None = None) -> MfpcaModel:
    """Combine per-coordinate univariate models into a multivariate decomposition."""
    if len(models) != 3:
        raise ValueError("expected one univariate model per coordinate")
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
    vecs = _fix_signs(evecs[:, order])  # (J, J_out)

    eigenfunctions = []
    start = 0
    for u, jb in zip(models, j_blocks):
        block = vecs[start : start + jb]  # (J_p, J_out)
        eigenfunctions.append(block.T @ u.eigenfunctions)  # (J_out, M)
        start += jb
    scores = xi @ vecs
    return MfpcaModel(
        univariate=list(models),
        eigenvalues=evals,
        eigvecs=vecs,
        eigenfunctions=eigenfunctions,
        scores=scores,
    )


def mfpca_project(model: MfpcaModel, new_samples: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Scores of held-out curves against a fitted model.

    ``new_samples`` holds one (n, M) array per coordinate; curves are
    centered by the training means and projected through the training
    eigenfunctions.
    """
    if len(new_samples) != 3:
        raise ValueError("expected one sample block per coordinate")
    xi_blocks = []
    for u, block in zip(model.univariate, new_samples):
        block = np.asarray(block, dtype=float)
        if block.shape[1] != u.grid.shape[0]:
            raise ValueError("grid mismatch with the fitted model")
        w = trapezoid_weights(u.grid)
        xi_blocks.append((block - u.mean_fn) @ (w[None, :] * u.eigenfunctions).T)
    xi = np.concatenate(xi_blocks, axis=1)
    return xi @ model.eigvecs


def mfpca_reconstruct(model: MfpcaModel, scores: np.ndarray, k: int) -> np.ndarray:
    """Truncated Karhunen-Loeve curves: mean + sum of k leading score-weighted eigenfunctions.

    (..., K) scores give (..., M, 3) curves.
    """
    scores = np.asarray(scores, dtype=float)
    if not 0 <= k <= model.eigenvalues.shape[0]:
        raise ValueError("component count out of range")
    return model.mean_functions + np.stack([scores[..., :k] @ f[:k] for f in model.eigenfunctions], axis=-1)


def select_components(eigenvalues: np.ndarray, threshold: float = 0.95) -> int:
    """Smallest k whose leading eigenvalues reach the cumulative-variance threshold."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if eigenvalues.size == 0 or np.any(eigenvalues < -1e-12):
        raise ValueError("eigenvalues must be nonnegative")
    total = eigenvalues.sum()
    if total <= 0.0:
        raise ValueError("no variance")
    fractions = np.cumsum(eigenvalues) / total
    return int(np.searchsorted(fractions, threshold, side="left") + 1)
