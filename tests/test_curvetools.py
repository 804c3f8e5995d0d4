import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

from curvemorph.curvetools import (
    DegenerateCurveError,
    _cumulative_chords,
    _searchsorted_rows,
    derivative,
    reparameterise_arclength,
    resample_uniform,
    uniform_params,
)
import oracles
from oracles import SampledCurve, curve_from_points

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def helix(t):
    t = np.asarray(t, dtype=float)
    return np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), t], axis=-1)


def cumulative_arclength(curve):
    return _cumulative_chords(curve.values[None])[0]


def stack_of(curve):
    return curve.values[None]


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
        out = reparameterise_arclength(stack_of(curve), 25)[0]
        assert np.max(np.abs(out - curve.values)) < 1e-12

    def test_unevenly_sampled_helix_becomes_uniform(self):
        u = uniform_params(300)
        curve = SampledCurve(u, helix(u**2))
        out = reparameterise_arclength(stack_of(curve), 120)[0]
        chords = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert np.max(np.abs(chords - chords.mean())) / chords.mean() < 0.02

    def test_minimal_output_keeps_endpoints(self):
        t = uniform_params(50)
        curve = SampledCurve(t, helix(t))
        out = reparameterise_arclength(stack_of(curve), 3)[0]
        assert np.allclose(out[0], curve.values[0], atol=0)
        assert np.allclose(out[-1], curve.values[-1], atol=0)

    def test_idempotent(self):
        u = uniform_params(150)
        curve = SampledCurve(u, helix(u**2))
        once = reparameterise_arclength(stack_of(curve), 80)
        twice = reparameterise_arclength(once, 80)
        assert np.max(np.abs(twice - once)) < 1e-9

    def test_preserves_total_length(self):
        u = uniform_params(200)
        curve = SampledCurve(u, helix(u**1.5))
        out = reparameterise_arclength(stack_of(curve), 200)
        l_in = cumulative_arclength(curve)[-1]
        l_out = _cumulative_chords(out)[0, -1]
        assert l_out == pytest.approx(l_in, rel=1e-3)

    def test_degenerate_curve_error(self):
        with pytest.raises(ValueError, match="degenerate curve"):
            reparameterise_arclength(np.zeros((1, 5, 3)), 10)


class TestResampleUniform:
    def test_identity_on_matching_grid(self):
        t = uniform_params(30)
        curve = SampledCurve(t, helix(t))
        out = resample_uniform(stack_of(curve), 30)[0]
        assert np.allclose(out, curve.values, atol=1e-14)

    @settings(max_examples=20)
    @given(st.integers(min_value=3, max_value=120))
    def test_linear_exact_any_m(self, m):
        t = uniform_params(17)
        curve = SampledCurve(t, np.outer(t, [2.0, -1.0, 0.5]))
        out = resample_uniform(stack_of(curve), m)[0]
        expected = np.outer(uniform_params(m), [2.0, -1.0, 0.5])
        assert np.allclose(out, expected, atol=1e-12)

    def test_sine_roundtrip(self):
        t = uniform_params(30)
        values = np.stack([np.sin(2 * np.pi * t), 0 * t, 0 * t], axis=1)
        back = resample_uniform(resample_uniform(values[None], 100), 30)[0]
        assert np.max(np.abs(back - values)) < 0.01

    def test_too_few_points_error(self):
        t = uniform_params(10)
        with pytest.raises(ValueError):
            resample_uniform(helix(t)[None], 2)


@st.composite
def polyline_stacks(draw):
    """(K, N, 3) stacks with repeated consecutive points, collinear runs and signed zeros, and an output size m."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(3, 40))
    m = draw(st.integers(3, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.normal(size=(k, n, 3))
    for row in stack:
        for i in range(1, n):
            kind = rng.integers(4)
            if kind == 0:  # repeat the previous point
                row[i] = row[i - 1]
            elif kind == 1 and i >= 2:  # continue the previous segment's line
                row[i] = row[i - 1] + rng.uniform(0.0, 2.0) * (row[i - 1] - row[i - 2])
            elif kind == 2:
                row[i, rng.integers(3)] = rng.choice([0.0, -0.0])
    return stack, m


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackMatchesOracle:
    """The stack kernels against the per-curve loops of ``tests/oracles.py``, bitwise (signed zeros too)."""

    @staticmethod
    def loop(fn, stack, m):
        return np.stack([fn(curve_from_points(points), m).values for points in stack])

    @settings(max_examples=80, deadline=None)
    @given(polyline_stacks())
    def test_arclength_and_resample(self, case):
        stack, m = case
        try:
            expected = self.loop(oracles.arclength_reparameterise, stack, m)
        except ValueError:
            with pytest.raises(DegenerateCurveError):
                reparameterise_arclength(stack, m)
        else:
            assert bitwise_equal(reparameterise_arclength(stack, m), expected)
        assert bitwise_equal(resample_uniform(stack, m), self.loop(oracles.resample_uniform, stack, m))

    @pytest.mark.parametrize("m", [30, 60, 120])
    def test_benchmark_helix_replicate(self, m):
        spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        stack = np.stack([points for _, _, points in inputs.helix_replicate(1, 0, inputs.scaled_sizes(200))])
        assert stack.shape == (200, 30, 3)
        expected = self.loop(oracles.arclength_reparameterise, stack, m)
        assert bitwise_equal(reparameterise_arclength(stack, m), expected)

    def test_row_whose_polygon_has_no_length(self):
        # Three nodes equally spaced in arc length all land on A, so the first
        # round meets a polygon of length 0 and stops that row alone.
        a, b = np.zeros(3), np.array([1.0, 2.0, 0.5])
        stack = np.stack([np.stack([a, b, a, b, a]), helix(uniform_params(5))])
        expected = self.loop(oracles.arclength_reparameterise, stack, 3)
        assert bitwise_equal(reparameterise_arclength(stack, 3), expected)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_row_search_with_ties(self, k, n, m, seed):
        rng = np.random.default_rng(seed)
        xp = np.sort(rng.integers(0, 6, size=(k, n)), axis=1).astype(float)
        x = np.sort(rng.integers(0, 6, size=(k, m)), axis=1).astype(float)
        expected = np.stack([np.searchsorted(xp[r], x[r], side="right") for r in range(k)])
        assert np.array_equal(_searchsorted_rows(xp, x), expected)

    def test_degenerate_row_is_named(self):
        stack = np.stack([helix(uniform_params(12))] * 4)
        stack[2] = 1.5
        with pytest.raises(DegenerateCurveError, match="^degenerate curve: row 2$") as exc:
            reparameterise_arclength(stack, 10)
        assert exc.value.rows == [2]


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
