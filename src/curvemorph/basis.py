"""Cubic B-spline basis construction and least-squares smoothing of 3D curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

ORDER = 4  # B-spline order of every basis: cubic


@dataclass
class BSplineBasis:
    """Open-uniform cubic B-spline basis on [0, 1] (order ``ORDER``)."""

    n_basis: int
    knots: np.ndarray

    def design_matrix(self, grid: np.ndarray) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        if grid.size == 0:
            return np.zeros((0, self.n_basis))
        if np.any(grid < 0.0) or np.any(grid > 1.0):
            raise ValueError("evaluation grid must lie in [0, 1]")
        return BSpline.design_matrix(grid, self.knots, ORDER - 1, extrapolate=False).toarray()


def build_basis(n_basis: int = 10) -> BSplineBasis:
    """Open-uniform knots: endpoint multiplicity ``ORDER``, equally spaced interior knots."""
    if n_basis < ORDER:
        raise ValueError("n_basis must be at least the order")
    interior = np.linspace(0.0, 1.0, n_basis - ORDER + 2)[1:-1]
    knots = np.concatenate([np.zeros(ORDER), interior, np.ones(ORDER)])
    return BSplineBasis(n_basis=n_basis, knots=knots)


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
