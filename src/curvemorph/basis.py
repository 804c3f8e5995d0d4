"""Cubic B-spline design matrices and least-squares smoothing of 3D curves."""

from __future__ import annotations

import numpy as np

ORDER = 4  # B-spline order of every basis: cubic


def design_matrix(n_basis: int, grid: np.ndarray) -> np.ndarray:
    """Dense (len(grid), n_basis) matrix of the open-uniform cubic B-splines at ``grid``.

    The knots have multiplicity ``ORDER`` at 0 and 1 and equally spaced
    interior knots.  Each row comes from de Boor's recursion (de Boor,
    *A Practical Guide to Splines*, 1978) on the knot interval
    t[ell] <= x < t[ell + 1], with x = 1 in the last interval; the
    operations and their order are those of scipy's ``_deBoor_D``, so the
    matrix is bitwise ``scipy.interpolate.BSpline.design_matrix``'s.  On
    these knots t[ell + n] > t[ell + n - j] in every step, so no
    denominator is zero.
    """
    if n_basis < ORDER:
        raise ValueError("n_basis must be at least the order")
    x = np.asarray(grid, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("evaluation grid must lie in [0, 1]")
    interior = np.linspace(0.0, 1.0, n_basis - ORDER + 2)[1:-1]
    t = np.concatenate([np.zeros(ORDER), interior, np.ones(ORDER)])
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, ORDER - 1, n_basis - 1)
    h = np.zeros((x.size, ORDER))
    h[:, 0] = 1.0
    for j in range(1, ORDER):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for n in range(1, j + 1):
            right, left = t[ell + n], t[ell + n - j]
            w = prev[:, n - 1] / (right - left)
            h[:, n - 1] += w * (right - x)
            h[:, n] = w * (x - left)
    # Row i is nonzero in columns ell[i] - 3 .. ell[i].  The values are added
    # onto zeros, as scipy's sparse-to-dense step does.
    dense = np.zeros((x.size, n_basis))
    dense[np.arange(x.size)[:, None], ell[:, None] - (ORDER - 1) + np.arange(ORDER)] += h
    return dense


def fit_coefficients(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Ordinary least-squares coefficients of ``design`` for each column of ``values``.

    Rejects fewer samples than basis functions and designs whose singular
    values span more than 1e12.
    """
    if design.shape[0] < design.shape[1]:
        raise ValueError("underdetermined smoothing")
    coef, _, _, sing = np.linalg.lstsq(design, values, rcond=None)
    if sing[-1] <= 0 or sing[0] / sing[-1] > 1e12:
        raise ValueError("ill-conditioned smoothing design")
    return coef
