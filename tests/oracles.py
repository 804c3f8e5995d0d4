"""Reference functions that only the tests call.

Per-curve resampling, arc-length reparameterisation, smoothing and SRVF
operations on wrapper objects, built on the kernels of
``curvemorph.basis`` and ``curvemorph.srvf``.  The pipelines run the same
arithmetic on stacked arrays (``curvetools.resample_uniform`` and
``curvetools.reparameterise_arclength`` on (K, N, 3) stacks,
``fit_coefficients`` with one design per stack, ``srvf.align_step``); the
tests use these as oracles for those array paths and as readable
distance and warp-action helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from curvemorph.basis import BSplineBasis, fit_coefficients
from curvemorph.curvetools import uniform_params
from curvemorph.srvf import SrvfCurve, WarpingFunction, _l2_norm_sq, _rotation, _warp_values


@dataclass
class SampledCurve:
    """A 3D curve sampled at strictly increasing parameters on [0, 1]."""

    params: np.ndarray  # (M,), params[0] == 0, params[-1] == 1
    values: np.ndarray  # (M, 3)

    def __post_init__(self):
        t = np.asarray(self.params, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 2 or v.shape != (t.shape[0], 3):
            raise ValueError(f"params/values shape mismatch: {t.shape} vs {v.shape}")
        if t.shape[0] < 3:
            raise ValueError("curve needs at least 3 samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("non-finite curve data")
        if np.any(np.diff(t) <= 0):
            raise ValueError("params must be strictly increasing")
        if abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
            raise ValueError("params must start at 0 and end at 1")
        self.params = t
        self.values = v


def curve_from_points(points: np.ndarray) -> SampledCurve:
    """Wrap an ordered point matrix as a curve on the uniform index grid."""
    points = np.asarray(points, dtype=float)
    return SampledCurve(uniform_params(points.shape[0]), points)


def cumulative_arclength(curve: SampledCurve) -> np.ndarray:
    """Cumulative chord length s with s[0] = 0 and s[-1] = total length.

    Summing polyline segment lengths is exact for the piecewise-linear
    interpretation used throughout.
    """
    seg = np.linalg.norm(np.diff(curve.values, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _interp_columns(x_new: np.ndarray, x: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.column_stack([np.interp(x_new, x, values[:, j]) for j in range(values.shape[1])])


def arclength_reparameterise(curve: SampledCurve, m: int) -> SampledCurve:
    """Resample the curve towards constant speed: ``m`` points of nearly equal chords.

    Output sits on ``m`` uniform parameters.  The first pass places point i
    on the input polyline (by monotone linear interpolation) where the
    cumulative arc length reaches i/(m-1) of the total; each further round
    re-spaces the nodes by the arc length of the polygon through them, which
    moves the chords towards equal length.  The rounds stop once no node
    moves by 1e-14 or more, or after 60 rounds: on noisy polylines they can
    stop short of equal chords, and the iteration need not converge at all.
    Every output point lies on the input polyline, and the endpoints are
    exact.
    """
    if m < 3:
        raise ValueError("m must be at least 3")
    s = cumulative_arclength(curve)
    total = s[-1]
    if total <= 0.0:
        raise ValueError("degenerate curve")

    t_nodes = np.interp(np.linspace(0.0, total, m), s, curve.params)
    for _ in range(60):
        values = _interp_columns(t_nodes, curve.params, curve.values)
        seg = np.linalg.norm(np.diff(values, axis=0), axis=1)
        s_m = np.concatenate([[0.0], np.cumsum(seg)])
        if s_m[-1] <= 0.0:
            break
        t_new = np.interp(np.linspace(0.0, s_m[-1], m), s_m, t_nodes)
        shift = np.max(np.abs(t_new - t_nodes))
        t_nodes = t_new
        if shift < 1e-14:
            break
    new_values = _interp_columns(t_nodes, curve.params, curve.values)
    new_values[0] = curve.values[0]
    new_values[-1] = curve.values[-1]
    return SampledCurve(uniform_params(m), new_values)


def resample_uniform(curve: SampledCurve, m: int) -> SampledCurve:
    """Linear interpolation onto m uniform parameters in the original parameterisation."""
    if m < 3:
        raise ValueError("m must be at least 3")
    grid = uniform_params(m)
    new_values = _interp_columns(grid, curve.params, curve.values)
    new_values[0] = curve.values[0]
    new_values[-1] = curve.values[-1]
    return SampledCurve(grid, new_values)


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
