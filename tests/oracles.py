"""Reference functions that only the tests call.

Per-curve smoothing and SRVF operations on wrapper objects, built on the
kernels of ``curvemorph.basis`` and ``curvemorph.srvf``.  The
pipelines run the same arithmetic on stacked arrays (``fit_coefficients``
with one design per stack, ``srvf.align_step``); the tests use these as
oracles for those array paths and as readable distance and warp-action
helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from curvemorph.basis import BSplineBasis, fit_coefficients
from curvemorph.curvetools import SampledCurve
from curvemorph.srvf import SrvfCurve, WarpingFunction, _l2_norm_sq, _rotation, _warp_values


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


def smooth(curve: SampledCurve, basis: BSplineBasis) -> FunctionalObject:
    """Per-coordinate ordinary least-squares fit of the basis to the samples."""
    coef = fit_coefficients(basis.design_matrix(curve.params), curve.values)
    return FunctionalObject(basis=basis, coefficients=coef)


def evaluate(f: FunctionalObject, grid: np.ndarray) -> np.ndarray:
    """Basis matrix times coefficients at the requested grid points."""
    return f.basis.design_matrix(grid) @ f.coefficients


def elastic_distance_sq(a: SrvfCurve, b: SrvfCurve) -> float:
    """Squared L2 distance between two SRVFs on a common grid."""
    return _l2_norm_sq(a.params, a.q - b.q)


def warp_action(q: SrvfCurve, gamma: WarpingFunction) -> SrvfCurve:
    """Group action of a warp on an SRVF: (q o gamma) * sqrt(gamma')."""
    if gamma.gamma.shape[0] != q.n_samples:
        raise ValueError("warp and SRVF must share a grid length")
    return SrvfCurve(q.params.copy(), _warp_values(q.params, q.q, gamma.gamma))


def rotation_align_srvf(q: SrvfCurve, template: SrvfCurve) -> tuple[SrvfCurve, np.ndarray]:
    """Rotate an SRVF onto a template, minimizing the quadrature-weighted L2 distance."""
    if q.n_samples != template.n_samples:
        raise ValueError("SRVFs must share a grid")
    r = _rotation(q.q, template.q)
    return SrvfCurve(q.params.copy(), q.q @ r), r
