import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    align_step,
    estimate_warp,
    from_srvf,
    karcher_mean,
    to_srvf,
)

from helpers import bitwise_equal
from oracles import (
    SampledCurve,
    elastic_distance_sq,
    identity_warp,
    invert_warp,
    rotation_align_srvf,
    soft_warp,
    warp_action,
)


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


def phase_varied_curves(seed: int, k: int = 6, m: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Grid and (k, m, 3) helices sampled at t^u with u ~ U(0.7, 1.4), each bent by one smooth bump."""
    rng = np.random.default_rng(seed)
    t = uniform_params(m)
    curves = []
    for i in range(k):
        u = rng.uniform(0.7, 1.4)
        tau = 2 * np.pi * t**u
        bump = 0.1 * np.sin(np.pi * (i + 1) * t)[:, None] * rng.normal(size=3)
        curves.append(np.stack([np.sin(tau), np.cos(tau), t**u], axis=1) + bump)
    return t, np.stack(curves)


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

    def test_a_tie_keeps_the_dp_warp(self):
        q_target, q_source = smooth_random_q(30, 1), smooth_random_q(30, 2)
        t = q_target.params
        # The identity returned as the DP warp scores exactly the identity's objective.
        tied = t.copy()
        with mock.patch.object(srvf, "_dp_warp", return_value=tied):
            assert estimate_warp(q_target, q_source, 0.01).gamma is tied

    def test_identity_when_it_scores_strictly_better(self):
        q = smooth_random_q(30, 1)
        worse = bump_warp(30).gamma
        with mock.patch.object(srvf, "_dp_warp", return_value=worse):
            warp = estimate_warp(q, q, 0.01)
        assert warp.gamma is not worse and np.array_equal(warp.gamma, q.params)

    @pytest.mark.parametrize("lam", [-1e-12, -0.5, float("nan")])
    def test_negative_penalty_is_rejected_before_the_search(self, lam):
        q = smooth_random_q(30, 1)
        with mock.patch.object(srvf, "_dp_warp", side_effect=AssertionError("the warp search ran")):
            with pytest.raises(ValueError, match="^lam must be >= 0$"):
                estimate_warp(q, q, lam)

    @pytest.mark.parametrize("source_m", [30, 31])
    def test_curves_on_different_grids_are_rejected(self, source_m):
        q_target, q_source = smooth_random_q(30, 1), smooth_random_q(source_m, 2)
        moved = q_source.params.copy()
        moved[7] += 1e-10  # still a valid SRVF grid, but not the target's
        with pytest.raises(ValueError, match="^SRVFs must share a grid$"):
            estimate_warp(q_target, SrvfCurve(moved, q_source.q))

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


def _dp_warp(q_target: SrvfCurve, q_source: SrvfCurve, lam: float) -> np.ndarray:
    """(M,) warp values of the single-grid DP over the slope-constrained node lattice."""
    m = q_target.params.shape[0]
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
    return gamma


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
        assert np.array_equal(gamma, _dp_warp(q_target, q_source, lam))

        warp = estimate_warp(q_target, q_source, lam)
        with mock.patch.object(srvf, "_dp_warp", _dp_warp):
            oracle_warp = estimate_warp(q_target, q_source, lam)
        assert np.max(np.abs(warp.gamma - oracle_warp.gamma)) <= 1e-12


def _warp_values_np(t: np.ndarray, q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Reference: ``srvf._warp_values`` with its gradient from ``np.gradient``."""
    gdot = np.gradient(g, t, edge_order=1)
    warped = np.column_stack([np.interp(g, t, q[:, j]) for j in range(3)])
    return warped * np.sqrt(np.maximum(gdot, 0.0))[:, None]


def _estimate_warp_np(q_target: SrvfCurve, q_source: SrvfCurve, lam: float) -> WarpingFunction:
    """Reference: ``estimate_warp`` with its guard evaluating both objectives through numpy."""
    m = q_target.params.shape[0]
    t = q_target.params
    warp = WarpingFunction(t.copy(), srvf._dp_warp(q_target, q_source, lam))

    def objective(g: np.ndarray) -> float:
        gdot = np.gradient(g, t, edge_order=1)
        pen = lam * float(np.trapezoid((np.sqrt(np.maximum(gdot, 0.0)) - 1.0) ** 2, t))
        return _l2_norm_sq(t, q_target.q - _warp_values_np(q_source.params, q_source.q, g)) + pen

    if objective(warp.gamma) > objective(uniform_params(m)):
        return identity_warp(m)
    return warp


def node_path_warp(m: int, seed: int) -> np.ndarray:
    """Warp values through a random monotone path of grid nodes, so many values fall exactly on nodes."""
    rng = np.random.default_rng(seed)
    t = uniform_params(m)
    path = [(0, 0)]
    while True:
        di, dj = rng.integers(1, 3, size=2)
        i, j = path[-1][0] + di, path[-1][1] + dj
        if max(i, j) >= m - 1:
            break
        path.append((i, j))
    path_i, path_j = np.array(path + [(m - 1, m - 1)]).T
    return np.interp(t, t[path_i], t[path_j])


class TestGuardAndWarpActionMatchNumpyOracle:
    """Gradients from cached per-grid coefficients and the identity's cached terms against numpy, bit for bit."""

    @given(
        st.integers(min_value=5, max_value=130),
        st.sampled_from([0.0, 0.01, 1.0]),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(["identity", "dp", "soft", "nodes"]),
        st.booleans(),
    )
    # Grids of 2^k + 1 points have equal steps, where numpy takes its uniform branch.
    @example(5, 0.01, 1, "dp", False)
    @example(9, 1.0, 2, "nodes", True)
    @example(33, 0.0, 3, "soft", False)
    @example(129, 0.01, 4, "identity", True)
    @settings(max_examples=60, deadline=None)
    def test_warps_actions_and_guard(self, m, lam, seed, kind, near):
        q_target = smooth_random_q(m, seed)
        # A nearby source lets the identity win the guard as well.
        noise = 1e-3 * np.random.default_rng(seed).normal(size=(m, 3))
        q_source = SrvfCurve(q_target.params, q_target.q + noise) if near else smooth_random_q(m, seed + 1)
        t = q_target.params
        dp = srvf._dp_warp(q_target, q_source, lam)
        g = {
            "identity": t.copy(),
            "dp": dp,
            "soft": soft_warp(WarpingFunction(t.copy(), dp), 0.6).gamma,
            "nodes": node_path_warp(m, seed),
        }[kind]
        assert bitwise_equal(srvf._gradient(g, t), np.gradient(g, t, edge_order=1))
        assert bitwise_equal(srvf._warp_values(t, q_source.q, g), _warp_values_np(t, q_source.q, g))

        root, roughness = srvf._identity_terms(t.tobytes())
        assert bitwise_equal(q_source.q * root[:, None], _warp_values_np(t, q_source.q, t))
        assert roughness == float(np.trapezoid((np.sqrt(np.maximum(np.gradient(t, t), 0.0)) - 1.0) ** 2, t))

        def both():
            return estimate_warp(q_target, q_source, lam).gamma, _estimate_warp_np(q_target, q_source, lam).gamma

        assert bitwise_equal(*both())
        with mock.patch.object(srvf, "_dp_warp", return_value=g):
            assert bitwise_equal(*both())

    def test_uniform_branch_exactly_where_numpy_takes_it(self):
        uniform = []
        for m in range(2, 300):
            dx = np.diff(uniform_params(m))
            interior, _, _ = srvf._gradient_coefficients(uniform_params(m).tobytes())
            assert (len(interior) == 1) == bool((dx == dx[0]).all())
            uniform += [m] * (len(interior) == 1)
        assert uniform == [2, 3, 5, 9, 17, 33, 65, 129, 257]


def _edge_costs_fresh_gathers(q_target, q_source, dt, lam):
    """Reference: ``srvf._edge_costs`` gathering into new arrays on every call."""
    idx_t, idx_lo, idx_hi, w_t, w_lo, w_hi = srvf._edge_tables(q_target.shape[0])
    q_t, q_s = q_target.ravel(), q_source.ravel()
    a = q_t[idx_t] * w_t
    b = q_s[idx_lo] * w_lo + q_s[idx_hi] * w_hi
    costs = np.matmul(a, b.transpose(0, 2, 1))
    costs *= -2.0
    costs += np.einsum("kir,kir->ki", a, a)[:, :, None]
    costs += np.einsum("kjr,kjr->kj", b, b)[:, None, :]
    costs *= dt
    costs += (lam * (np.sqrt(srvf._DP_DJ / srvf._DP_DI) - 1.0) ** 2 * (srvf._DP_DI * dt))[:, None, None]
    return costs


class TestEdgeCostGatherBuffers:
    """``_edge_costs`` gathers into per-thread buffers, kept per grid size and, on the target side, per template."""

    def test_bitwise_fresh_gathers_across_grid_sizes(self):
        results = []
        for seed, m in enumerate([30, 30, 12, 60, 30]):
            q_target, q_source = smooth_random_q(m, seed), smooth_random_q(m, seed + 7)
            dt = float(q_target.params[1])
            results.append((srvf._edge_costs(q_target.q, q_source.q, dt, 0.01), q_target.q, q_source.q, dt))
        # Every result is still its own array after later calls reused the buffers.
        for costs, q_t, q_s, dt in results:
            assert bitwise_equal(costs, _edge_costs_fresh_gathers(q_t, q_s, dt, 0.01))

    def test_one_template_many_sources_and_a_template_changed_in_place(self):
        q_target = smooth_random_q(30, 1).q.copy()
        dt = 1.0 / 29
        for seed in range(2, 8):
            if seed == 5:
                q_target[4] += 1e-3  # same array, new values: the target must be gathered again
            q_source = smooth_random_q(30, seed).q
            costs = srvf._edge_costs(q_target, q_source, dt, 0.01)
            assert bitwise_equal(costs, _edge_costs_fresh_gathers(q_target, q_source, dt, 0.01))

    def test_threads_do_not_share_buffers(self):
        """More threads than cores, switching often, on two grid sizes: no call sees another's gathers."""
        cases = [(smooth_random_q(m, seed), smooth_random_q(m, seed + 1)) for seed, m in enumerate([20, 40] * 4)]

        def costs(case):
            q_target, q_source = case
            return [srvf._edge_costs(q_target.q, q_source.q, 0.05, 0.0) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                per_case = [future.result(timeout=60) for future in [pool.submit(costs, case) for case in cases]]
        finally:
            sys.setswitchinterval(interval)
        for (q_target, q_source), results in zip(cases, per_case):
            expected = _edge_costs_fresh_gathers(q_target.q, q_source.q, 0.05, 0.0)
            assert all(bitwise_equal(r, expected) for r in results)

    def test_threads_alternating_templates_see_only_their_own_target_gather(self):
        """Each thread alternates between two templates of its own on one grid size; every result is its own."""
        cases = [tuple(smooth_random_q(30, 3 * k + i) for i in range(3)) for k in range(6)]

        def costs(case):
            first, second, q_source = case
            return [srvf._edge_costs((first, second)[n % 2].q, q_source.q, 0.05, 0.0) for n in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                per_case = [future.result(timeout=60) for future in [pool.submit(costs, case) for case in cases]]
        finally:
            sys.setswitchinterval(interval)
        for (first, second, q_source), results in zip(cases, per_case):
            expected = [_edge_costs_fresh_gathers(q.q, q_source.q, 0.05, 0.0) for q in (first, second)]
            assert all(bitwise_equal(r, expected[n % 2]) for n, r in enumerate(results))

    @pytest.mark.parametrize(
        "m,new_template",
        [pytest.param(m, new, id=f"{m}-new-template" if new else str(m)) for new in (False, True) for m in (30, 60, 120)],
    )
    def test_warm_call_allocates_less_than_one_gather(self, m, new_template):
        q_target, q_source = smooth_random_q(m, 1), smooth_random_q(m, 2)
        dt = float(q_target.params[1])
        srvf._edge_costs(q_target.q, q_source.q, dt, 0.1)
        if new_template:
            q_target = smooth_random_q(m, 3)
        tracemalloc.start()
        try:
            costs = srvf._edge_costs(q_target.q, q_source.q, dt, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gather_bytes = len(_DP_STEPS) * m * 3 * (srvf._DP_DEPTH + 1) * 8
        assert peak - costs.nbytes < gather_bytes


def blended_warp(warp: WarpingFunction, alpha: float) -> np.ndarray:
    """The warp values ``align_step`` returns with blend ``alpha`` when the warp search finds ``warp``."""
    m = warp.params.shape[0]
    with mock.patch.object(srvf, "estimate_warp", return_value=warp):
        _, _, gamma, _ = align_step(smooth_random_q(m, 1).q, smooth_random_q(m, 2), None, 0.0, alpha)
    return gamma


class TestSoftWarp:
    """The soft blend alpha * gamma + (1 - alpha) * identity inside ``align_step``, and the range of alpha."""

    def test_alpha_zero_identity(self):
        gamma = power_warp(40, 1.4)
        out = blended_warp(gamma, 0.0)
        assert np.allclose(out, gamma.params, atol=0)

    def test_alpha_one_unchanged(self):
        gamma = power_warp(40, 1.4)
        assert np.array_equal(blended_warp(gamma, 1.0), gamma.gamma)

    def test_hand_value(self):
        t = uniform_params(5)  # includes t = 0.5
        gamma = WarpingFunction(t, t**2)
        out = blended_warp(gamma, 0.6)
        assert out[2] == pytest.approx(0.35, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=50)
    def test_output_always_valid(self, alpha, u):
        out = blended_warp(power_warp(30, u), alpha)
        assert out[0] == 0.0 and out[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(out) >= 1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 1.0 + 1e-12, -0.5, float("nan")])
    def test_alpha_out_of_range(self, alpha):
        qs = [smooth_random_q(10, seed=i) for i in range(3)]
        with mock.patch.object(srvf, "estimate_warp", side_effect=AssertionError("a warp search ran")):
            with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\]$"):
                karcher_mean(qs, alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("near", [False, True])
    def test_blend_is_bitwise_the_oracle_soft_warp(self, alpha, near):
        template = smooth_random_q(30, 3)
        # A nearby curve makes the search return the identity, a far one the DP warp.
        q = template.q + 1e-3 * np.random.default_rng(4).normal(size=(30, 3)) if near else smooth_random_q(30, 5).q
        rotated, action, gamma, _ = align_step(q, template, None, 0.01, alpha)
        warp = estimate_warp(template, SrvfCurve(template.params, rotated), 0.01)
        assert np.array_equal(warp.gamma, warp.params) == near
        expected = soft_warp(warp, alpha)
        assert bitwise_equal(gamma, expected.gamma)
        assert bitwise_equal(action, warp_action(SrvfCurve(template.params, rotated), expected).q)


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

    def test_single_iteration_template_is_mean(self, monkeypatch):
        qs = [smooth_random_q(40, seed=50 + i) for i in range(3)]
        monkeypatch.setattr(srvf, "_KARCHER_MAX_ITER", 1)
        result = karcher_mean(qs)
        mean_q = np.mean([a.q for a in result.aligned], axis=0)
        assert np.array_equal(result.template.q, mean_q)

    def test_variance_monotone(self, monkeypatch):
        qs = [smooth_random_q(60, seed=60 + i) for i in range(6)]
        monkeypatch.setattr(srvf, "_KARCHER_MAX_ITER", 8)
        result = karcher_mean(qs)
        v = result.variance_history
        assert all(v[i + 1] <= v[i] + 1e-9 for i in range(len(v) - 1))

    def test_returns_warps_and_rotations(self, monkeypatch):
        qs = [smooth_random_q(40, seed=70 + i) for i in range(3)]
        monkeypatch.setattr(srvf, "_KARCHER_MAX_ITER", 3)
        result = karcher_mean(qs)
        assert len(result.aligned) == 3
        assert result.warps.shape == (3, 40) and result.rotations.shape == (3, 3, 3)

    @pytest.mark.parametrize("lam", [-1e-12, -0.01, float("nan")])
    def test_negative_penalty_is_rejected_before_any_warp_search(self, lam):
        qs = [smooth_random_q(10, seed=i) for i in range(3)]
        with mock.patch.object(srvf, "estimate_warp", side_effect=AssertionError("a warp search ran")):
            with pytest.raises(ValueError, match="^lam must be >= 0$"):
                karcher_mean(qs, lam=lam, alpha=0.6)

    def test_stopping_rule_is_scale_free(self):
        # Scaling a curve by 4^k scales its SRVF by 2^k and every variance by
        # 4^k, all exactly, so a rule on variance ratios decides alike at every
        # scale.  A template-move test of 1e-6 stopped the 4^-5 set at 15
        # iterations, the 4^0 set at 16 and the 4^5 set at 17.
        t, curves = phase_varied_curves(seed=5)
        results = [karcher_mean([SrvfCurve(t, q) for q in to_srvf(curves * 4.0**k, t)]) for k in (-5, 0, 5)]
        base = results[1]
        assert base.converged and 2 < base.iterations < 20
        for result in results:
            assert (result.iterations, result.converged) == (base.iterations, base.converged)
            for got, expected in zip(result.warps, base.warps):
                assert np.max(np.abs(got - expected)) <= 1e-12

    def test_stopping_rule(self):
        t, curves = phase_varied_curves(seed=5)
        result = karcher_mean([SrvfCurve(t, q) for q in to_srvf(curves, t)])
        v = result.variance_history
        assert len(v) == result.iterations
        assert v[-2] - v[-1] <= 1e-3 * v[-1]
        assert all(v[i - 1] - v[i] > 1e-3 * v[i] for i in range(1, len(v) - 1))

    def test_variance_rise_keeps_the_previous_iterate_as_converged(self, monkeypatch):
        qs = [smooth_random_q(61, seed=120 + i) for i in range(2)]
        result = karcher_mean(qs, lam=0.01, alpha=0.6)
        v = result.variance_history
        assert result.converged and result.iterations == len(v) == 2
        assert v[0] - v[1] > 1e-3 * v[1]  # the variance rose at iteration 3; the rule did not stop it
        monkeypatch.setattr(srvf, "_KARCHER_MAX_ITER", 2)
        capped = karcher_mean(qs, lam=0.01, alpha=0.6)
        assert not capped.converged
        assert np.array_equal(result.template.q, capped.template.q)

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_iteration_cap_is_not_converged(self, max_iter, monkeypatch):
        t, curves = phase_varied_curves(seed=5)
        monkeypatch.setattr(srvf, "_KARCHER_MAX_ITER", max_iter)
        result = karcher_mean([SrvfCurve(t, q) for q in to_srvf(curves, t)])
        assert (result.iterations, result.converged) == (max_iter, False)
        assert len(result.variance_history) == max_iter


def karcher_arrays(result: KarcherResult) -> list[np.ndarray]:
    return [result.template.params, result.template.q, result.warps, result.rotations,
            *(a for c in result.aligned for a in (c.params, c.q))]


class TestKarcherMemo:
    """``karcher_mean`` computes each input once per process and shares the read-only result."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        srvf._karcher_loop.cache_clear()

    @staticmethod
    def curves(m: int = 20) -> list[SrvfCurve]:
        return [smooth_random_q(m, seed=200 + i) for i in range(3)]

    def test_a_repeated_call_returns_the_same_result_bitwise_a_fresh_one(self):
        qs = self.curves()
        first = karcher_mean(qs, lam=0.01, alpha=0.6)
        copies = [SrvfCurve(q.params.copy(), q.q.copy()) for q in qs]
        assert karcher_mean(copies, lam=0.01, alpha=0.6) is first
        srvf._karcher_loop.cache_clear()
        fresh = karcher_mean(qs, lam=0.01, alpha=0.6)
        assert fresh is not first
        assert (fresh.iterations, fresh.converged, len(fresh.aligned)) == (first.iterations, first.converged, len(first.aligned))
        assert bitwise_equal(fresh.variance_history, first.variance_history)
        assert all(bitwise_equal(a, b) for a, b in zip(karcher_arrays(fresh), karcher_arrays(first)))

    @pytest.mark.parametrize("change", ["lam", "alpha", "value", "grid", "max_iter"])
    def test_changing_one_input_misses(self, change, monkeypatch):
        qs, lam, alpha = self.curves(), 0.01, 0.6
        base = karcher_mean(qs, lam=lam, alpha=alpha)
        if change == "lam":
            lam = 0.02
        elif change == "alpha":
            alpha = 0.7
        elif change == "value":
            q = qs[1].q.copy()
            q[4, 2] = np.nextafter(q[4, 2], np.inf)
            qs[1] = SrvfCurve(qs[1].params, q)
        elif change == "grid":
            qs = self.curves(m=21)
        else:
            monkeypatch.setattr(srvf, "_KARCHER_MAX_ITER", 2)
        assert karcher_mean(qs, lam=lam, alpha=alpha) is not base
        assert srvf._karcher_loop.cache_info().misses == 2

    def test_the_shared_arrays_reject_writes(self):
        for array in karcher_arrays(karcher_mean(self.curves())):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    @pytest.mark.parametrize(
        "case,message",
        [("one curve", "needs at least 2 curves"), ("lam", "lam must be >= 0"),
         ("alpha", r"alpha must lie in \[0, 1\]"), ("grid", "SRVFs must share a grid")],
    )
    def test_input_checks_run_before_the_lookup(self, case, message):
        qs = self.curves()
        karcher_mean(qs, lam=0.01, alpha=0.6)
        before = srvf._karcher_loop.cache_info()
        lam, alpha = (-0.01 if case == "lam" else 0.01), (1.5 if case == "alpha" else 0.6)
        if case == "one curve":
            qs = qs[:1]
        elif case == "grid":
            qs = qs + [smooth_random_q(21, seed=9)]
        with mock.patch.object(srvf, "estimate_warp", side_effect=AssertionError("a warp search ran")):
            with pytest.raises(ValueError, match=message):
                karcher_mean(qs, lam=lam, alpha=alpha)
        assert srvf._karcher_loop.cache_info() == before


def _karcher_mean_loop(
    qs: list[SrvfCurve],
    max_iter: int = 20,
    tol: float = 1e-3,
    lam: float = 0.0,
    alpha: float = 1.0,
    rotate: bool = True,
) -> KarcherResult:
    """Reference: the per-specimen object loop that ``align_step`` replaced."""
    if len(qs) < 2:
        raise ValueError("karcher_mean needs at least 2 curves")
    m = qs[0].params.shape[0]
    if any(q.params.shape[0] != m for q in qs):
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
        if variance_history and variance > variance_history[-1] * (1.0 + 1e-12):
            iterations -= 1  # keep the previous, better iterate
            converged = True
            break
        variance_history.append(variance)
        current_warps = warps
        template = SrvfCurve(t.copy(), mean_q)
        state = (aligned, warps, rotations)
        # Stop once the variance falls by no more than tol of itself.
        if len(variance_history) >= 2 and variance_history[-2] - variance <= tol * variance:
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
            assert len(result.aligned) == len(expected.aligned) == k
            assert result.warps.shape == (k, m) and result.rotations.shape == (k, 3, 3)
            for a, b in zip(result.aligned, expected.aligned):
                assert np.array_equal(a.params, b.params) and np.array_equal(a.q, b.q)
            for a, b in zip(result.warps, expected.warps):
                assert np.array_equal(result.template.params, b.params) and np.array_equal(a, b.gamma)
            for a, b in zip(result.rotations, expected.rotations):
                assert np.array_equal(a, b)
            assert result.iterations == expected.iterations
            assert result.converged == expected.converged
            assert np.array_equal(result.variance_history, expected.variance_history)

    def test_curves_off_the_first_grid_are_rejected(self):
        qs = [smooth_random_q(20, seed=i) for i in range(3)]
        shifted = qs[2].params.copy()
        shifted[5] += 1e-12  # still a valid SRVF grid, but not the template's
        qs[2] = SrvfCurve(shifted, qs[2].q)
        with pytest.raises(ValueError, match="share a grid"):
            karcher_mean(qs)


class TestSrvfCurveValidation:
    @pytest.mark.parametrize("m", [5, 30, 31])
    def test_grid_within_1e_9_of_uniform(self, m):
        t, q = uniform_params(m), np.zeros((m, 3))
        for _ in range(2):  # the second pass checks against the cached grid
            moved = t.copy()
            moved[m // 2] += 5e-10
            assert SrvfCurve(moved, q).params is moved
            moved[m // 2] += 1e-9
            with pytest.raises(ValueError, match="grid must be uniform"):
                SrvfCurve(moved, q)


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
