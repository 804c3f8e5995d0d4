"""Cubic B-spline basis construction and least-squares smoothing of 3D curves."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from curvemorph.curvetools import SampledCurve

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


@dataclass
class FunctionalObject:
    """A 3D curve expressed by basis coefficients, one column per coordinate."""

    basis: BSplineBasis
    coefficients: np.ndarray  # (n_basis, 3)

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.shape != (self.basis.n_basis, 3):
            raise ValueError("coefficients must be n_basis x 3")
        if not np.all(np.isfinite(coef)):
            raise ValueError("non-finite coefficients")
        self.coefficients = coef


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


def smooth(curve: SampledCurve, basis: BSplineBasis) -> FunctionalObject:
    """Per-coordinate ordinary least-squares fit of the basis to the samples."""
    coef = fit_coefficients(basis.design_matrix(curve.params), curve.values)
    return FunctionalObject(basis=basis, coefficients=coef)


def evaluate(f: FunctionalObject, grid: np.ndarray) -> np.ndarray:
    """Basis matrix times coefficients at the requested grid points."""
    return f.basis.design_matrix(grid) @ f.coefficients
