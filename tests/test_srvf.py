from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

from curvemorph import srvf
from curvemorph.curvetools import uniform_params
from curvemorph.srvf import (
    _DP_STEPS,
    _l2_norm_sq,
    KarcherResult,
    SrvfCurve,
    WarpingFunction,
    estimate_warp,
    from_srvf,
    identity_warp,
    invert_warp,
    karcher_mean,
    soft_warp,
    to_srvf,
)

from oracles import SampledCurve, elastic_distance_sq, rotation_align_srvf, warp_action


def helix_curve(m, power=1.0):
    t = uniform_params(m)
    tau = 2 * np.pi * t**power
    return SampledCurve(t, np.stack([np.sin(tau), np.cos(tau), t**power], axis=1))


def smooth_random_q(m, seed, n_modes=4):
    """A smooth synthetic SRVF built from a few random Fourier modes."""
    rng = np.random.default_rng(seed)
    t = uniform_params(m)
    q = np.zeros((m, 3))
    for k in range(1, n_modes + 1):
        q += rng.normal(size=3) / k * np.sin(np.pi * k * t)[:, None]
        q += rng.normal(size=3) / k * np.cos(np.pi * k * t)[:, None]
    return SrvfCurve(t, q)


def power_warp(m, u):
    t = uniform_params(m)
    return WarpingFunction(t, t**u)


def bump_warp(m, a=0.08):
    """Smooth warp with slope bounded away from zero."""
    t = uniform_params(m)
    return WarpingFunction(t, t + a * np.sin(np.pi * t) ** 2)


class TestToSrvf:
    def test_unit_speed_line(self):
        t = uniform_params(40)
        q = to_srvf(np.stack([t, 0 * t, 0 * t], axis=1), t)
        assert np.allclose(q, np.tile([1.0, 0, 0], (40, 1)), atol=1e-12)

    def test_speed_two_line(self):
        t = uniform_params(40)
        q = to_srvf(np.stack([2 * t, 0 * t, 0 * t], axis=1), t)
        assert np.allclose(q, np.tile([np.sqrt(2.0), 0, 0], (40, 1)), atol=1e-12)

    def test_translation_invariance(self):
        curve = helix_curve(60)
        shifted = SampledCurve(curve.params, curve.values + np.array([5.0, 5.0, 5.0]))
        # identical up to rounding of the shifted differences
        assert np.allclose(to_srvf(shifted.values, shifted.params), to_srvf(curve.values, curve.params), atol=1e-12)

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=30)
    def test_scaling_covariance(self, c):
        curve = helix_curve(50)
        scaled = SampledCurve(curve.params, c * curve.values)
        assert np.allclose(to_srvf(scaled.values, scaled.params), np.sqrt(c) * to_srvf(curve.values, curve.params), atol=1e-10)


class TestFromSrvf:
    def test_constant_q_gives_line(self):
        t = uniform_params(30)
        f = from_srvf(np.tile([1.0, 0, 0], (30, 1)), t)
        assert np.allclose(f, np.stack([t, 0 * t, 0 * t], axis=1), atol=1e-12)

    def test_roundtrip_on_helix(self):
        curve = helix_curve(200)
        back = from_srvf(to_srvf(curve.values, curve.params), curve.params) + curve.values[0]
        assert np.max(np.abs(back - curve.values)) < 5e-3

    def test_zero_q_constant_curve(self):
        t = uniform_params(25)
        f0 = np.array([1.0, -2.0, 3.0])
        f = from_srvf(np.zeros((25, 3)), t) + f0
        assert np.allclose(f, np.tile(f0, (25, 1)), atol=0)


class TestWarpAction:
    def test_identity_warp(self):
        q = smooth_random_q(80, seed=0)
        out = warp_action(q, identity_warp(80))
        assert np.max(np.abs(out.q - q.q)) < 1e-12

    def test_norm_preservation(self):
        q = smooth_random_q(500, seed=1)
        warped = warp_action(q, power_warp(500, 1.3))  # includes a vanishing-slope endpoint
        n0 = np.sqrt(elastic_distance_sq(q, SrvfCurve(q.params, np.zeros_like(q.q))))
        n1 = np.sqrt(elastic_distance_sq(warped, SrvfCurve(q.params, np.zeros_like(q.q))))
        assert abs(n1 - n0) / n0 < 1e-2

    def test_inverse_composition_recovers(self):
        q = smooth_random_q(500, seed=2)
        gamma = bump_warp(500)
        roundtrip = warp_action(warp_action(q, gamma), invert_warp(gamma))
        scale = np.max(np.abs(q.q))
        assert np.max(np.abs(roundtrip.q - q.q)) / scale < 2e-2

    def test_rejects_mismatched_grid(self):
        with pytest.raises(ValueError):
            warp_action(smooth_random_q(50, 0), identity_warp(40))


class TestEstimateWarp:
    def test_equal_inputs_give_identity(self):
        q = smooth_random_q(60, seed=3)
        warp = estimate_warp(q, q, lam=0.0)
        cell = 1.0 / 59
        assert np.max(np.abs(warp.gamma - warp.params)) <= cell + 1e-12

    def test_recovers_synthetic_warp(self):
        q_target = smooth_random_q(100, seed=4)
        gamma0 = power_warp(100, 1.2)
        q_source = warp_action(q_target, gamma0)
        before = elastic_distance_sq(q_target, q_source)
        warp = estimate_warp(q_target, q_source, lam=0.0)
        after = elastic_distance_sq(q_target, warp_action(q_source, warp))
        assert after <= 0.2 * before

    def test_huge_penalty_gives_identity(self):
        q_target = smooth_random_q(60, seed=5)
        q_source = smooth_random_q(60, seed=6)
        warp = estimate_warp(q_target, q_source, lam=1e6)
        cell = 1.0 / 59
        assert np.max(np.abs(warp.gamma - warp.params)) <= cell + 1e-12

    def test_alignment_never_hurts(self):
        for seed in range(5):
            q1 = smooth_random_q(70, seed=10 + seed)
            q2 = smooth_random_q(70, seed=20 + seed)
            warp = estimate_warp(q1, q2, lam=0.0)
            aligned = elastic_distance_sq(q1, warp_action(q2, warp))
            assert aligned <= elastic_distance_sq(q1, q2) + 1e-9

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid too small"):
            estimate_warp(smooth_random_q(4, 0), smooth_random_q(4, 1))

    @pytest.mark.parametrize("m", [5, 6])
    def test_smallest_grids(self, m):
        for seed in range(4):
            q1, q2 = smooth_random_q(m, seed), smooth_random_q(m, seed + 10)
            warp = estimate_warp(q1, q2, lam=0.01)
            assert np.all(np.diff(warp.gamma) > 0)
            assert elastic_distance_sq(q1, warp_action(q2, warp)) <= elastic_distance_sq(q1, q2) + 1e-12


# The loop kernels that the stacked ones replaced, kept verbatim as oracles.
def _edge_costs(q_target: np.ndarray, q_source: np.ndarray, dt: float, lam: float) -> list[np.ndarray]:
    """Per-step matrices C[i, j] = cost of the lattice edge ending at node (i, j).

    The edge from (i - di, j - dj) is a linear warp segment of slope
    s = dj / di; its cost is the trapezoid quadrature of
    |q_target(t) - sqrt(s) * q_source(gamma(t))|^2 over the segment plus the
    roughness penalty lam * (sqrt(s) - 1)^2 * di * dt.
    """
    m = q_target.shape[0]
    nt2 = np.sum(q_target**2, axis=1)
    # Cross terms q_target[m'] . q_source(l + f) cached per fractional offset f.
    frac_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def cross_for(frac: float) -> tuple[np.ndarray, np.ndarray]:
        if frac not in frac_cache:
            if frac == 0.0:
                s_interp = q_source
            else:
                s_interp = (1.0 - frac) * q_source[:-1] + frac * q_source[1:]
            frac_cache[frac] = (q_target @ s_interp.T, np.sum(s_interp**2, axis=1))
        return frac_cache[frac]

    costs = []
    for di, dj in _DP_STEPS:
        slope = dj / di
        sqrt_s = np.sqrt(slope)
        c = np.zeros((m, m))
        # Trapezoid weights over the di + 1 rows the edge spans.
        weights = np.full(di + 1, dt)
        weights[0] = weights[-1] = 0.5 * dt
        for r in range(di + 1):
            pos = slope * r
            off = int(np.floor(pos + 1e-12))
            frac = pos - off
            if frac < 1e-12:
                frac = 0.0
            cross, ns2 = cross_for(frac)
            # G[m', l] = |q_t[m'] - sqrt(s) q_s[l + frac]|^2 evaluated at
            # m' = i - di + r, l = j - dj + off, realised via array shifts.
            rows = slice(r, m - di + r)
            lim = cross.shape[1]
            cols = slice(off, min(lim, m - dj + off))
            block = (
                nt2[rows, None]
                + slope * ns2[None, cols]
                - 2.0 * sqrt_s * cross[rows, cols]
            )
            width = block.shape[1]
            c[di:, dj : dj + width] += weights[r] * block
        c += lam * (sqrt_s - 1.0) ** 2 * (di * dt)
        costs.append(c)
    return costs


def _dp_warp(q_target: SrvfCurve, q_source: SrvfCurve, lam: float) -> WarpingFunction:
    """Single-grid DP over the slope-constrained node lattice."""
    m = q_target.n_samples
    t = q_target.params
    dt = float(t[1] - t[0])
    costs = _edge_costs(q_target.q, q_source.q, dt, lam)

    inf = np.inf
    dist = np.full((m, m), inf)
    dist[0, 0] = 0.0
    best_step = np.zeros((m, m), dtype=np.int8)
    n_steps = len(_DP_STEPS)
    cand = np.empty((n_steps, m))
    for i in range(1, m):
        cand.fill(inf)
        for k, (di, dj) in enumerate(_DP_STEPS):
            if di > i:
                continue
            cand[k, dj:] = dist[i - di, : m - dj] + costs[k][i, dj:]
        best_step[i] = np.argmin(cand, axis=0)
        dist[i] = cand[best_step[i], np.arange(m)]

    # Backtrack the node path from (m-1, m-1).
    path_i, path_j = [m - 1], [m - 1]
    i, j = m - 1, m - 1
    while i > 0:
        di, dj = _DP_STEPS[best_step[i, j]]
        i, j = i - di, j - dj
        path_i.append(i)
        path_j.append(j)
    path_i.reverse()
    path_j.reverse()
    gamma = np.interp(t, t[path_i], t[path_j])
    gamma[0], gamma[-1] = 0.0, 1.0
    return WarpingFunction(t.copy(), gamma)


class TestStackedKernelsMatchLoopOracle:
    """Stacked edge costs and the row-gather recursion against the loop kernels."""

    @given(
        st.integers(min_value=6, max_value=80),
        st.sampled_from([0.0, 0.01, 1.0]),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_costs_paths_and_warps(self, m, lam, seed):
        q_target, q_source = smooth_random_q(m, seed), smooth_random_q(m, seed + 1)
        t = q_target.params
        dt = float(t[1] - t[0])
        oracle = np.stack(_edge_costs(q_target.q, q_source.q, dt, lam))
        stacked = srvf._edge_costs(q_target.q, q_source.q, dt, lam)
        assert stacked.shape == oracle.shape
        # Only cells i >= di, j >= dj are edges inside the grid; the DP reads no other.
        for k, (di, dj) in enumerate(_DP_STEPS):
            valid_oracle, valid = oracle[k, di:, dj:], stacked[k, di:, dj:]
            if valid.size:
                assert np.max(np.abs(valid - valid_oracle)) <= 1e-12 * np.max(np.abs(valid_oracle))

        # The recursion is exact: on the oracle's costs it retraces the oracle's path.
        path_i, path_j = srvf._dp_path(oracle)
        gamma = np.interp(t, t[path_i], t[path_j])
        gamma[0], gamma[-1] = 0.0, 1.0
        assert np.array_equal(gamma, _dp_warp(q_target, q_source, lam).gamma)

        warp = estimate_warp(q_target, q_source, lam)
        with mock.patch.object(srvf, "_dp_warp", _dp_warp):
            oracle_warp = estimate_warp(q_target, q_source, lam)
        assert np.max(np.abs(warp.gamma - oracle_warp.gamma)) <= 1e-12


class TestSoftWarp:
    def test_alpha_zero_identity(self):
        gamma = power_warp(40, 1.4)
        out = soft_warp(gamma, 0.0)
        assert np.allclose(out.gamma, out.params, atol=0)

    def test_alpha_one_unchanged(self):
        gamma = power_warp(40, 1.4)
        assert np.array_equal(soft_warp(gamma, 1.0).gamma, gamma.gamma)

    def test_hand_value(self):
        t = uniform_params(5)  # includes t = 0.5
        gamma = WarpingFunction(t, t**2)
        out = soft_warp(gamma, 0.6)
        assert out.gamma[2] == pytest.approx(0.35, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=50)
    def test_output_always_valid(self, alpha, u):
        out = soft_warp(power_warp(30, u), alpha)
        assert out.gamma[0] == 0.0 and out.gamma[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(out.gamma) >= 1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            soft_warp(identity_warp(10), 1.5)


class TestRotationAlign:
    def test_identity_when_equal(self):
        q = smooth_random_q(50, seed=7)
        aligned, r = rotation_align_srvf(q, q)
        assert np.allclose(r, np.eye(3), atol=1e-10)
        assert np.allclose(aligned.q, q.q, atol=1e-10)

    def test_recovers_rotation(self):
        rng = np.random.default_rng(8)
        q = smooth_random_q(50, seed=9)
        r0 = special_ortho_group.rvs(3, random_state=rng)
        rotated = SrvfCurve(q.params, q.q @ r0)
        aligned, _ = rotation_align_srvf(rotated, q)
        assert np.max(np.abs(aligned.q - q.q)) < 1e-6

    def test_never_increases_distance(self):
        for seed in range(5):
            q = smooth_random_q(60, seed=30 + seed)
            tmpl = smooth_random_q(60, seed=40 + seed)
            aligned, _ = rotation_align_srvf(q, tmpl)
            assert elastic_distance_sq(aligned, tmpl) <= elastic_distance_sq(q, tmpl) + 1e-12


class TestKarcherMean:
    def test_identical_curves(self):
        q = smooth_random_q(50, seed=11)
        qs = [SrvfCurve(q.params, q.q.copy()) for _ in range(4)]
        result = karcher_mean(qs)
        assert np.max(np.abs(result.template.q - q.q)) < 1e-10

    def test_warped_pair_aligns(self):
        q = smooth_random_q(200, seed=12)
        warped = warp_action(q, bump_warp(200))
        result = karcher_mean([q, warped])
        a, b = result.aligned
        rel = np.sqrt(elastic_distance_sq(a, b) / elastic_distance_sq(q, SrvfCurve(q.params, np.zeros_like(q.q))))
        assert rel < 0.05

    def test_single_iteration_template_is_mean(self):
        qs = [smooth_random_q(40, seed=50 + i) for i in range(3)]
        result = karcher_mean(qs, max_iter=1)
        mean_q = np.mean([a.q for a in result.aligned], axis=0)
        assert np.array_equal(result.template.q, mean_q)

    def test_variance_monotone(self):
        qs = [smooth_random_q(60, seed=60 + i) for i in range(6)]
        result = karcher_mean(qs, max_iter=8)
        v = result.variance_history
        assert all(v[i + 1] <= v[i] + 1e-9 for i in range(len(v) - 1))

    def test_returns_warps_and_rotations(self):
        qs = [smooth_random_q(40, seed=70 + i) for i in range(3)]
        result = karcher_mean(qs, max_iter=3)
        assert len(result.aligned) == len(result.warps) == len(result.rotations) == 3


def _karcher_mean_loop(
    qs: list[SrvfCurve],
    max_iter: int = 20,
    tol: float = 1e-6,
    lam: float = 0.0,
    alpha: float = 1.0,
    rotate: bool = True,
) -> KarcherResult:
    """Reference: the per-specimen object loop that ``align_step`` replaced."""
    if len(qs) < 2:
        raise ValueError("karcher_mean needs at least 2 curves")
    m = qs[0].n_samples
    if any(q.n_samples != m for q in qs):
        raise ValueError("SRVFs must share a grid")
    t = qs[0].params

    def align_all(template: SrvfCurve, prev_warps: list[WarpingFunction]):
        aligned, warps, rotations = [], [], []
        for q, prev in zip(qs, prev_warps):
            if rotate:
                # Estimate the rotation on the warp-corrected version so the
                # pointwise correspondence it relies on is meaningful.
                _, r = rotation_align_srvf(warp_action(q, prev), template)
                q_rot = SrvfCurve(q.params.copy(), q.q @ r)
            else:
                q_rot, r = q, np.eye(3)
            warp = estimate_warp(template, q_rot, lam)
            if alpha < 1.0:
                warp = soft_warp(warp, alpha)
            aligned.append(warp_action(q_rot, warp))
            warps.append(warp)
            rotations.append(r)
        return aligned, warps, rotations

    template = SrvfCurve(t.copy(), np.mean([q.q for q in qs], axis=0))
    state = None
    variance_history: list[float] = []
    current_warps = [identity_warp(m) for _ in qs]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        aligned, warps, rotations = align_all(template, current_warps)
        mean_q = np.mean([a.q for a in aligned], axis=0)
        variance = sum(_l2_norm_sq(t, a.q - mean_q) for a in aligned)
        if variance_history and variance > variance_history[-1] + 1e-12:
            iterations -= 1  # keep the previous, better iterate
            break
        variance_history.append(variance)
        current_warps = warps
        new_template = SrvfCurve(t.copy(), mean_q)
        change = np.sqrt(_l2_norm_sq(t, new_template.q - template.q))
        template = new_template
        state = (aligned, warps, rotations)
        if change < tol:
            converged = True
            break

    if state is None:  # max_iter == 0 degenerate call
        state = align_all(template, current_warps)
        template = SrvfCurve(t.copy(), np.mean([a.q for a in state[0]], axis=0))
    aligned, warps, rotations = state

    mean_gamma = np.mean([w.gamma for w in warps], axis=0)
    if np.max(np.abs(mean_gamma - t)) > 1e-12:
        correction = invert_warp(WarpingFunction(t, mean_gamma))
        warps = [
            WarpingFunction(t, np.interp(correction.gamma, t, w.gamma)) for w in warps
        ]
        aligned = [warp_action(a, correction) for a in aligned]
        template = SrvfCurve(t.copy(), np.mean([a.q for a in aligned], axis=0))
    return KarcherResult(template, aligned, warps, rotations, iterations, converged, variance_history)


class TestKarcherMatchesObjectLoopOracle:
    """The array loop over ``align_step`` against the per-specimen object loop, bit for bit."""

    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("m", [6, 30, 61])
    @pytest.mark.parametrize("lam,alpha", [(0.0, 1.0), (0.01, 0.6)])
    def test_every_field_equal(self, k, m, lam, alpha):
        for seed in range(3):
            qs = [smooth_random_q(m, seed=100 * seed + 10 * k + i) for i in range(k)]
            result = karcher_mean(qs, lam=lam, alpha=alpha)
            expected = _karcher_mean_loop(qs, lam=lam, alpha=alpha)
            assert np.array_equal(result.template.params, expected.template.params)
            assert np.array_equal(result.template.q, expected.template.q)
            assert len(result.aligned) == len(result.warps) == len(result.rotations) == k
            for a, b in zip(result.aligned, expected.aligned):
                assert np.array_equal(a.params, b.params) and np.array_equal(a.q, b.q)
            for a, b in zip(result.warps, expected.warps):
                assert np.array_equal(a.params, b.params) and np.array_equal(a.gamma, b.gamma)
            for a, b in zip(result.rotations, expected.rotations):
                assert np.array_equal(a, b)
            assert result.iterations == expected.iterations
            assert result.converged == expected.converged
            assert np.array_equal(result.variance_history, expected.variance_history)

    def test_max_iter_below_one_is_rejected(self):
        qs = [smooth_random_q(20, seed=i) for i in range(3)]
        with pytest.raises(ValueError, match="max_iter >= 1"):
            karcher_mean(qs, max_iter=0)

    def test_curves_off_the_first_grid_are_rejected(self):
        qs = [smooth_random_q(20, seed=i) for i in range(3)]
        shifted = qs[2].params.copy()
        shifted[5] += 1e-12  # still a valid SRVF grid, but not the template's
        qs[2] = SrvfCurve(shifted, qs[2].q)
        with pytest.raises(ValueError, match="share a grid"):
            karcher_mean(qs)


class TestWarpingFunctionValidation:
    def test_endpoint_violation(self):
        t = uniform_params(10)
        with pytest.raises(ValueError):
            WarpingFunction(t, t * 0.9)

    def test_non_monotone(self):
        t = uniform_params(10)
        g = t.copy()
        g[4], g[5] = g[5], g[4]
        with pytest.raises(ValueError, match="strictly increasing"):
            WarpingFunction(t, g)
