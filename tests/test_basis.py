import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemorph.basis import ORDER, build_basis
from curvemorph.curvetools import SampledCurve, uniform_params

from oracles import evaluate, smooth


def curve_of(fn, m=30):
    t = uniform_params(m)
    vals = np.asarray(fn(t), dtype=float)
    return SampledCurve(t, vals)


class TestBuildBasis:
    def test_bernstein_endpoint(self):
        basis = build_basis(n_basis=4)
        row = basis.design_matrix(np.array([0.0]))[0]
        assert np.allclose(row, [1.0, 0, 0, 0], atol=1e-14)
        row1 = basis.design_matrix(np.array([1.0]))[0]
        assert np.allclose(row1, [0, 0, 0, 1.0], atol=1e-14)

    def test_partition_of_unity(self):
        basis = build_basis(n_basis=10)
        rows = basis.design_matrix(uniform_params(101))
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-12

    def test_too_few_basis_functions(self):
        with pytest.raises(ValueError):
            build_basis(n_basis=3)

    @settings(max_examples=20)
    @given(st.integers(min_value=4, max_value=25))
    def test_knot_count(self, n_basis):
        basis = build_basis(n_basis=n_basis)
        assert basis.knots.shape[0] == n_basis + ORDER


class TestSmooth:
    def test_constant_curve(self):
        curve = curve_of(lambda t: np.tile([2.0, -1.0, 0.5], (t.size, 1)))
        f = smooth(curve, build_basis())
        fitted = evaluate(f, curve.params)
        assert np.max(np.abs(fitted - curve.values)) < 1e-10

    def test_cubic_polynomial_in_span(self):
        curve = curve_of(lambda t: np.stack([t**3 - 0.5 * t, t**2, 1 + t], axis=1))
        f = smooth(curve, build_basis())
        fitted = evaluate(f, curve.params)
        assert np.max(np.abs(fitted - curve.values)) < 1e-9

    def test_helix_fit_quality(self):
        curve = curve_of(lambda t: np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), t], axis=1), m=30)
        f = smooth(curve, build_basis())
        residual = evaluate(f, curve.params) - curve.values
        assert np.max(np.abs(residual)) < 0.05

    def test_underdetermined(self):
        t = uniform_params(8)
        with pytest.raises(ValueError, match="underdetermined"):
            smooth(SampledCurve(t, np.stack([t, t, t], axis=1)), build_basis(n_basis=10))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        basis = build_basis()
        t = uniform_params(40)
        va = rng.normal(size=(40, 3))
        vb = rng.normal(size=(40, 3))
        fa = smooth(SampledCurve(t, va), basis)
        fb = smooth(SampledCurve(t, vb), basis)
        fab = smooth(SampledCurve(t, 2.0 * va + 3.0 * vb), basis)
        assert np.allclose(fab.coefficients, 2.0 * fa.coefficients + 3.0 * fb.coefficients, atol=1e-10)


class TestEvaluate:
    def test_reproduces_in_span_data_at_nodes(self):
        curve = curve_of(lambda t: np.stack([t**2, t, 0 * t + 1], axis=1))
        f = smooth(curve, build_basis())
        assert np.max(np.abs(evaluate(f, curve.params) - curve.values)) < 1e-9

    def test_empty_grid(self):
        curve = curve_of(lambda t: np.stack([t, t, t], axis=1))
        f = smooth(curve, build_basis())
        out = evaluate(f, np.array([]))
        assert out.shape == (0, 3)

    def test_linear_midpoint_exact(self):
        curve = curve_of(lambda t: np.outer(t, [2.0, 0.0, -1.0]))
        f = smooth(curve, build_basis())
        mid = evaluate(f, np.array([0.5]))[0]
        assert np.allclose(mid, [1.0, 0.0, -0.5], atol=1e-10)

    def test_out_of_domain(self):
        curve = curve_of(lambda t: np.stack([t, t, t], axis=1))
        f = smooth(curve, build_basis())
        with pytest.raises(ValueError):
            evaluate(f, np.array([0.5, 1.2]))
