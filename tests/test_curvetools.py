import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

from curvemorph.curvetools import (
    SampledCurve,
    arclength_reparameterise,
    cumulative_arclength,
    curve_from_points,
    derivative,
    resample_uniform,
    uniform_params,
)


def helix(t):
    t = np.asarray(t, dtype=float)
    return np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), t], axis=-1)


class TestDerivative:
    def test_linear_exact(self):
        t = uniform_params(20)
        d = derivative(np.stack([t, 0 * t, 0 * t], axis=1), t)
        assert np.allclose(d, np.tile([1.0, 0, 0], (20, 1)), atol=1e-12)

    def test_quadratic_interior(self):
        t = uniform_params(101)
        d = derivative(np.stack([t**2, 0 * t, 0 * t], axis=1), t)
        assert np.max(np.abs(d[1:-1, 0] - 2 * t[1:-1])) < 1e-3

    def test_minimal_curve(self):
        t = uniform_params(3)
        d = derivative(np.stack([t, t, t], axis=1), t)
        assert d.shape == (3, 3)


class TestCumulativeArclength:
    def test_straight_segment(self):
        t = uniform_params(17)
        values = np.outer(t, [3.0, 4.0, 0.0])
        s = cumulative_arclength(SampledCurve(t, values))
        assert s[0] == 0.0
        assert s[-1] == pytest.approx(5.0, abs=1e-9)

    def test_circle_circumference(self):
        t = uniform_params(200)
        values = np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t), 0 * t], axis=1)
        s = cumulative_arclength(SampledCurve(t, values))
        assert s[-1] == pytest.approx(2 * np.pi, abs=1e-3)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        curve = SampledCurve(uniform_params(30), rng.normal(size=(30, 3)))
        s = cumulative_arclength(curve)
        assert np.all(np.diff(s) >= 0)

    def test_similarity_behavior(self):
        rng = np.random.default_rng(1)
        t = uniform_params(40)
        values = helix(t)
        base = cumulative_arclength(SampledCurve(t, values))
        r = special_ortho_group.rvs(3, random_state=rng)
        moved = cumulative_arclength(SampledCurve(t, values @ r + rng.normal(size=3)))
        assert np.allclose(moved, base, atol=1e-10)
        scaled = cumulative_arclength(SampledCurve(t, 2.5 * values))
        assert np.allclose(scaled, 2.5 * base, rtol=1e-12)


class TestArclengthReparameterise:
    def test_uniform_line_fixed_point(self):
        t = uniform_params(25)
        curve = SampledCurve(t, np.outer(t, [1.0, 2.0, -1.0]))
        out = arclength_reparameterise(curve, 25)
        assert np.max(np.abs(out.values - curve.values)) < 1e-12

    def test_unevenly_sampled_helix_becomes_uniform(self):
        u = uniform_params(300)
        curve = SampledCurve(u, helix(u**2))
        out = arclength_reparameterise(curve, 120)
        chords = np.linalg.norm(np.diff(out.values, axis=0), axis=1)
        assert np.max(np.abs(chords - chords.mean())) / chords.mean() < 0.02

    def test_minimal_output_keeps_endpoints(self):
        t = uniform_params(50)
        curve = SampledCurve(t, helix(t))
        out = arclength_reparameterise(curve, 3)
        assert np.allclose(out.values[0], curve.values[0], atol=0)
        assert np.allclose(out.values[-1], curve.values[-1], atol=0)

    def test_idempotent(self):
        u = uniform_params(150)
        curve = SampledCurve(u, helix(u**2))
        once = arclength_reparameterise(curve, 80)
        twice = arclength_reparameterise(once, 80)
        assert np.max(np.abs(twice.values - once.values)) < 1e-9

    def test_preserves_total_length(self):
        u = uniform_params(200)
        curve = SampledCurve(u, helix(u**1.5))
        out = arclength_reparameterise(curve, 200)
        l_in = cumulative_arclength(curve)[-1]
        l_out = cumulative_arclength(out)[-1]
        assert l_out == pytest.approx(l_in, rel=1e-3)

    def test_degenerate_curve_error(self):
        t = uniform_params(5)
        with pytest.raises(ValueError, match="degenerate curve"):
            arclength_reparameterise(SampledCurve(t, np.zeros((5, 3))), 10)


class TestResampleUniform:
    def test_identity_on_matching_grid(self):
        t = uniform_params(30)
        curve = SampledCurve(t, helix(t))
        out = resample_uniform(curve, 30)
        assert np.allclose(out.values, curve.values, atol=1e-14)

    @settings(max_examples=20)
    @given(st.integers(min_value=3, max_value=120))
    def test_linear_exact_any_m(self, m):
        t = uniform_params(17)
        curve = SampledCurve(t, np.outer(t, [2.0, -1.0, 0.5]))
        out = resample_uniform(curve, m)
        expected = np.outer(uniform_params(m), [2.0, -1.0, 0.5])
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_sine_roundtrip(self):
        t = uniform_params(30)
        values = np.stack([np.sin(2 * np.pi * t), 0 * t, 0 * t], axis=1)
        curve = SampledCurve(t, values)
        back = resample_uniform(resample_uniform(curve, 100), 30)
        assert np.max(np.abs(back.values - values)) < 0.01

    def test_too_few_points_error(self):
        t = uniform_params(10)
        with pytest.raises(ValueError):
            resample_uniform(SampledCurve(t, helix(t)), 2)


class TestValidation:
    def test_nonmonotone_params(self):
        t = np.array([0.0, 0.5, 0.4, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            SampledCurve(t, np.zeros((4, 3)))

    def test_duplicate_params(self):
        t = np.array([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            SampledCurve(t, np.zeros((4, 3)))

    def test_curve_from_points_grid(self):
        pts = np.random.default_rng(2).normal(size=(9, 3))
        curve = curve_from_points(pts)
        assert np.allclose(curve.params, uniform_params(9))
        assert curve.values is not pts or np.shares_memory(curve.values, pts)
