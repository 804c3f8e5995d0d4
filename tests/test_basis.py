import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemorph.basis import ORDER, design_matrix
from curvemorph.curvetools import uniform_params

from helpers import bitwise_equal
from oracles import SampledCurve, build_basis, evaluate, smooth


def curve_of(fn, m=30):
    t = uniform_params(m)
    vals = np.asarray(fn(t), dtype=float)
    return SampledCurve(t, vals)


class TestDesignMatrix:
    def test_bernstein_endpoint(self):
        row = design_matrix(4, np.array([0.0]))[0]
        assert np.allclose(row, [1.0, 0, 0, 0], atol=1e-14)
        row1 = design_matrix(4, np.array([1.0]))[0]
        assert np.allclose(row1, [0, 0, 0, 1.0], atol=1e-14)

    def test_partition_of_unity(self):
        rows = design_matrix(10, uniform_params(101))
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) < 1e-12

    def test_too_few_basis_functions(self):
        with pytest.raises(ValueError, match="at least the order"):
            design_matrix(3, uniform_params(10))

    def test_out_of_domain(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            design_matrix(10, np.array([0.5, 1.2]))

    @settings(max_examples=20)
    @given(st.integers(min_value=ORDER, max_value=25), st.integers(min_value=0, max_value=40))
    def test_shape(self, n_basis, m):
        assert design_matrix(n_basis, np.linspace(0.0, 1.0, m)).shape == (m, n_basis)

    def test_negative_zero_reads_positive_zero(self):
        """Values are added onto zeros, as scipy's sparse-to-dense step does."""
        grid = np.array([-0.0, 0.5, 1.0])
        assert bitwise_equal(design_matrix(7, grid), build_basis(7).design_matrix(grid))
        assert not np.signbit(design_matrix(7, grid)).any()


@st.composite
def basis_and_grid(draw):
    """n_basis in 4..120 and a sorted grid in [0, 1] holding 0, 1 and some knot values."""
    n_basis = draw(st.integers(min_value=ORDER, max_value=120))
    interior = build_basis(n_basis).knots[ORDER:-ORDER]
    knots = draw(st.lists(st.sampled_from(interior), max_size=8)) if interior.size else []
    points = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=40))
    return n_basis, np.sort(np.array([0.0, 1.0, *knots, *points]))


class TestDesignMatrixMatchesScipyOracle:
    """Bitwise the scipy design matrix of the oracle basis, values and sign bits."""

    @settings(max_examples=200, deadline=None)
    @given(basis_and_grid())
    def test_random_sorted_grids(self, case):
        n_basis, grid = case
        assert bitwise_equal(design_matrix(n_basis, grid), build_basis(n_basis).design_matrix(grid))

    def test_uniform_grid_sweep(self):
        """Every uniform grid of 3..259 points for n_basis 4..120.

        Each row depends on its own point only, so one matrix at all the
        grids' points, stacked, holds every grid's matrix.
        """
        stacked = np.concatenate([uniform_params(m) for m in range(3, 260)])
        for n_basis in range(ORDER, 121):
            assert bitwise_equal(design_matrix(n_basis, stacked), build_basis(n_basis).design_matrix(stacked)), n_basis


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
