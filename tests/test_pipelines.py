from unittest import mock

import numpy as np
import pytest

from curvemorph import pipelines
from curvemorph.basis import build_basis
from curvemorph.curvetools import uniform_params
from curvemorph.landmarks import LandmarkConfiguration
from curvemorph.pipelines import (
    _GRID_CACHE_SIZE,
    _grid_cache,
    _preprocess,
    _recenter,
    _registration_basis_size,
    _smooth_stack,
    FittedPipeline,
    PIPELINE_IDS,
    PipelineSettings,
    canonical_pipeline_id,
    evaluate_mse,
    fit_pipeline,
    run_pipeline,
    superimpose,
)
from curvemorph.simgen import SimConfig, generate_replicate
from curvemorph.srvf import SrvfCurve, estimate_warp, from_srvf, soft_warp, to_srvf

from helpers import phase_family, score_rel, separated_mode_family
from oracles import arclength_reparameterise, curve_from_points, evaluate, resample_uniform, rotation_align_srvf, smooth, warp_action


class TestIdsAndSettings:
    def test_canonical_ids(self):
        assert canonical_pipeline_id("gm") == "GM"
        assert canonical_pipeline_id("arc-soft-srv-fdm") == "ArcSoftSrvFdm"
        assert canonical_pipeline_id("ELASTIC_SRV_FDM") == "ElasticSrvFdm"
        with pytest.raises(ValueError, match="unknown pipeline"):
            canonical_pipeline_id("pca")

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            PipelineSettings(alpha_soft=1.5)
        with pytest.raises(ValueError):
            PipelineSettings(n_points=2)

    def test_too_few_specimens(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_pipeline("GM", phase_family(n=3))

    def test_mismatched_landmark_counts(self):
        configs = phase_family(n=4) + phase_family(n=1, m=40)
        with pytest.raises(ValueError, match="landmark counts"):
            fit_pipeline("GM", configs)


class TestChains:
    def test_soft_chain_reads_alpha_and_lambda_from_settings(self):
        data = phase_family(n=8, m=40, spread=0.4)
        elastic = run_pipeline("ElasticSrvFdm", data, PipelineSettings(n_points=40))
        soft = run_pipeline("SoftSrvFdm", data, PipelineSettings(n_points=40, alpha_soft=1.0, lambda_soft=0.0))
        assert np.array_equal(soft.scores, elastic.scores)
        assert np.array_equal(soft.fitted.transform(data), elastic.fitted.transform(data))
        assert soft.mse_mean == elastic.mse_mean
        default_soft = run_pipeline("SoftSrvFdm", data, PipelineSettings(n_points=40))
        assert not np.array_equal(default_soft.scores, elastic.scores)


class TestRunPipeline:
    def test_no_variance_error(self):
        pts = phase_family(n=1)[0].points
        identical = [LandmarkConfiguration(f"s{i}", pts.copy(), "g") for i in range(5)]
        with pytest.raises(ValueError, match="no variance"):
            run_pipeline("GM", identical)

    def test_simulation_k95_fdm_small_gm_large(self):
        data = generate_replicate(SimConfig(seed=20260811), 0)
        fdm = run_pipeline("FDM", data)
        gm = run_pipeline("GM", data)
        assert fdm.k95 <= 5
        assert gm.k95 >= 8
        assert fdm.k95 < gm.k95

    def test_output_shape_contract(self):
        data = phase_family(n=8)
        out = run_pipeline("FDM", data)
        assert out.scores.shape == (8, out.k95)
        assert out.reconstructions.shape == (8, 30, 3)
        assert out.mse_per_specimen.shape == (8,)
        assert out.mse_mean == pytest.approx(out.mse_per_specimen.mean())

    def test_all_pipelines_run(self):
        data = generate_replicate(SimConfig(group_sizes=(5, 5, 5, 5), n_points=20, seed=1), 0)
        settings = PipelineSettings(n_points=20)
        for pid in PIPELINE_IDS:
            out = run_pipeline(pid, data, settings)
            assert out.k95 >= 1 and np.all(np.isfinite(out.mse_per_specimen))


class TestReconstruction:
    def test_gm_full_rank_reproduces_processed(self):
        data = phase_family(n=8)
        out = run_pipeline("GM", data)
        fitted = out.fitted
        for i in range(4):
            recon = fitted.reconstruct(i, fitted.model.k_max)
            assert evaluate_mse(fitted.targets[i], recon) < 1e-6

    def test_fdm_full_rank_reproduces_processed(self):
        data = phase_family(n=8)
        out = run_pipeline("FDM", data)
        fitted = out.fitted
        j_full = fitted.model.eigenvalues.shape[0]
        basis = build_basis()
        for i in range(4):
            recon = fitted.reconstruct(i, j_full)
            # the retained representation is lossless for this clean family
            smoothed = evaluate(smooth(curve_from_points(data[i].points), basis), fitted.grid)
            assert np.max(np.abs(recon - smoothed)) < 1e-6

    def test_zero_components_gives_mean_shape(self):
        data = phase_family(n=8)
        out = run_pipeline("GM", data)
        recon0 = out.fitted.reconstruct(0, 0)
        mean_shape = out.fitted.model.mean_vector.reshape(-1, 3)
        assert evaluate_mse(recon0, superimpose(mean_shape, recon0)) < 1e-12

    def test_elastic_roundtrip_fine_grid(self):
        data = phase_family(n=8, m=150, spread=0.4)
        out = run_pipeline("ElasticSrvFdm", data, PipelineSettings(n_points=150))
        assert out.mse_mean < 1e-3

    def test_mse_nonincreasing_in_components(self):
        data = phase_family(n=10)
        for pid in ("GM", "FDM"):
            out = run_pipeline(pid, data)
            fitted = out.fitted
            k_max = fitted.model.k_max if pid == "GM" else fitted.model.eigenvalues.shape[0]
            for i in (0, 3):
                errors = [
                    evaluate_mse(fitted.targets[i], fitted.reconstruct(i, k))
                    for k in range(k_max + 1)
                ]
                for a, b in zip(errors, errors[1:]):
                    assert b <= a * (1 + 1e-6) + 1e-12


class TestEvaluateMse:
    def test_identical_is_zero(self):
        pts = phase_family(n=1)[0].points
        assert evaluate_mse(pts, pts.copy()) < 1e-20

    def test_rotation_removed(self):
        rng = np.random.default_rng(0)
        from scipy.stats import special_ortho_group

        pts = phase_family(n=1)[0].points
        rotated = pts @ special_ortho_group.rvs(3, random_state=rng) + rng.normal(size=3)
        assert evaluate_mse(pts, superimpose(rotated, pts)) < 1e-10

    def test_bypass_mode_measures_offset(self):
        pts = phase_family(n=1)[0].points
        eps = 0.01
        assert evaluate_mse(pts, pts + eps) == pytest.approx(eps**2, rel=1e-12)

    def test_shape_mismatch(self):
        pts = phase_family(n=1)[0].points
        with pytest.raises(ValueError):
            evaluate_mse(pts, pts[:-1])


class TestTransformConsistency:
    @pytest.mark.parametrize("pid", ["GM", "FDM", "ArcGM", "ArcFDM"])
    def test_training_data_reproduces_scores(self, pid):
        data = phase_family(n=8, m=40)
        out = run_pipeline(pid, data, PipelineSettings(n_points=40))
        again = out.fitted.transform(data)
        assert np.max(np.abs(again - out.scores)) < 1e-8

    def test_elastic_training_data_close(self):
        data = phase_family(n=8, m=40, spread=0.4)
        out = run_pipeline("ElasticSrvFdm", data, PipelineSettings(n_points=40))
        again = out.fitted.transform(data)
        rel = np.linalg.norm(again - out.scores) / np.linalg.norm(out.scores)
        assert rel < 0.05


def _align_amplitude_loop(self, pts: np.ndarray) -> np.ndarray:
    """Reference: the object-based alternation that two ``align_step`` calls replaced."""
    lam, alpha = self.chain.warp_penalty_and_blend(self.settings)
    k_reg = _registration_basis_size(self.settings, pts.shape[0])
    smoothed, _ = _smooth_stack([pts], self.settings, self.grid, n_basis=k_reg)
    q = SrvfCurve(self.grid.copy(), to_srvf(smoothed[0], self.grid))
    # Two rotation/warp alternations; the second rotation sees
    # warp-corrected correspondence.
    q_rot, _ = rotation_align_srvf(q, self.template)
    warp = estimate_warp(self.template, q_rot, lam)
    _, r = rotation_align_srvf(warp_action(q_rot, warp), self.template)
    q_rot = SrvfCurve(q_rot.params, q_rot.q @ r)
    warp = estimate_warp(self.template, q_rot, lam)
    if alpha < 1.0:
        warp = soft_warp(warp, alpha)
    aligned = warp_action(q_rot, warp)
    return _recenter(from_srvf(aligned.q, aligned.params))


class TestHeldOutAlignmentMatchesObjectLoopOracle:
    @pytest.mark.parametrize("pid", ["SoftSrvFdm", "ElasticSrvFdm"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_transform_of_held_out_specimens(self, pid, seed):
        data = generate_replicate(SimConfig(group_sizes=(4, 4, 4, 4), seed=seed), 0)
        train, held_out = data[::4] + data[1::4] + data[2::4], data[3::4]
        fitted = fit_pipeline(pid, train)
        scores = fitted.transform(held_out)
        with mock.patch.object(FittedPipeline, "_align_amplitude", _align_amplitude_loop):
            expected = fitted.transform(held_out)
        assert scores.shape == (len(held_out), fitted.k95)
        assert np.array_equal(scores, expected)


class TestPipelineInvariances:
    def test_arc_scores_invariant_to_sampling_speed(self):
        uniform = phase_family(n=8, m=120, power=1.0)
        squeezed = phase_family(n=8, m=120, power=2.0)
        for pid in ("ArcGM", "ArcFDM"):
            sa = run_pipeline(pid, uniform).scores
            sb = run_pipeline(pid, squeezed).scores
            assert score_rel(sa, sb) < 0.05

    def test_elastic_scores_invariant_to_random_warps(self):
        settings = PipelineSettings(n_points=80)
        base = run_pipeline("ElasticSrvFdm", separated_mode_family(), settings)
        warped = run_pipeline("ElasticSrvFdm", separated_mode_family(warp_seed=99), settings)
        assert score_rel(base.scores, warped.scores) < 0.05


def _smooth_stack_loop(points_stack, settings, grid, n_basis=None):
    """Reference: the per-curve smooth/evaluate loop ``_smooth_stack`` replaced."""
    basis = build_basis(n_basis if n_basis is not None else settings.n_basis)
    m_in = points_stack[0].shape[0]
    smoothed, rss = [], np.zeros(3)
    for pts in points_stack:
        fobj = smooth(curve_from_points(pts), basis)
        smoothed.append(evaluate(fobj, grid))
        fitted_at_input = evaluate(fobj, uniform_params(m_in))
        rss += np.sum((pts - fitted_at_input) ** 2, axis=0)
    dof = len(points_stack) * (m_in - basis.n_basis)
    sigma2 = rss / dof if dof > 0 else np.zeros(3)
    design_in = basis.design_matrix(uniform_params(m_in))
    design_out = basis.design_matrix(grid)
    propagate = design_out @ np.linalg.solve(design_in.T @ design_in, design_out.T)
    noise_covs = [s2 * propagate for s2 in sigma2]
    return np.stack(smoothed), noise_covs


def _noisy_curves(n, m, seed):
    rng = np.random.default_rng(seed)
    t = uniform_params(m)[:, None]
    freq = rng.uniform(1.0, 3.0, size=(n, 1, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1, 3))
    return list(np.sin(freq * 2.0 * np.pi * t + phase) + rng.normal(scale=0.05, size=(n, m, 3)))


class TestSmoothStackMatchesLoopOracle:
    @pytest.mark.parametrize("m_in", [12, 30, 48])
    @pytest.mark.parametrize("n_basis", [4, 10, 20])
    def test_smoothed_stack_and_noise_covariances(self, m_in, n_basis):
        settings = PipelineSettings(n_basis=n_basis)
        stack = _noisy_curves(7, m_in, seed=m_in + n_basis)
        for grid in (uniform_params(30), uniform_params(17)):
            if m_in < n_basis:
                with pytest.raises(ValueError, match="^underdetermined smoothing$"):
                    _smooth_stack_loop(stack, settings, grid)
                with pytest.raises(ValueError, match="^underdetermined smoothing$"):
                    _smooth_stack(stack, settings, grid)
                continue
            expected, expected_covs = _smooth_stack_loop(stack, settings, grid)
            smoothed, covs = _smooth_stack(stack, settings, grid)
            assert np.array_equal(smoothed, expected)
            assert all(np.array_equal(a, b) for a, b in zip(covs, expected_covs))
            # the registration path passes its own basis size
            expected, _ = _smooth_stack_loop(stack, settings, grid, n_basis=4)
            assert np.array_equal(_smooth_stack(stack, settings, grid, n_basis=4)[0], expected)

    def test_ill_conditioned_design_is_rejected(self):
        # With as many uniform samples as basis functions, the design's
        # condition number passes 1e12 near 180 functions.
        settings = PipelineSettings(n_basis=180)
        stack = _noisy_curves(2, 180, seed=0)
        for smooth_stack in (_smooth_stack_loop, _smooth_stack):
            with pytest.raises(ValueError, match="^ill-conditioned smoothing design$"):
                smooth_stack(stack, settings, uniform_params(30))


class TestPreprocessCache:
    @pytest.mark.parametrize("arc,m", [(True, 40), (False, 40), (False, 25)])
    def test_cached_points_are_read_only_and_equal_to_a_fresh_computation(self, arc, m):
        configs = phase_family(n=3, m=m, power=2.0)
        settings = PipelineSettings(n_points=40)
        points = _preprocess(configs, settings, arc)
        for config, row in zip(configs, points):
            cached = _grid_cache[(config.points.tobytes(), config.n_landmarks, 40, arc)]
            curve = curve_from_points(config.points)
            if arc:
                fresh = arclength_reparameterise(curve, 40).values
            elif m == 40:
                fresh = config.points
            else:
                fresh = resample_uniform(curve, 40).values
            assert np.array_equal(cached, fresh)
            assert np.array_equal(row, fresh)
            assert not np.shares_memory(cached, config.points)
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 1.0
        # A second call reads every specimen from the cache.
        with mock.patch.object(pipelines, "reparameterise_arclength", side_effect=AssertionError), \
                mock.patch.object(pipelines, "resample_uniform", side_effect=AssertionError):
            assert np.array_equal(_preprocess(configs, settings, arc), points)

    def test_cache_stays_within_its_bound(self):
        rng = np.random.default_rng(0)
        configs = [LandmarkConfiguration(f"s{i}", rng.normal(size=(4, 3)), None) for i in range(_GRID_CACHE_SIZE + 100)]
        points = _preprocess(configs, PipelineSettings(n_points=5), arc=False)
        assert points.shape == (len(configs), 5, 3)
        assert len(_grid_cache) == _GRID_CACHE_SIZE
        assert (configs[-1].points.tobytes(), 4, 5, False) in _grid_cache
        assert (configs[0].points.tobytes(), 4, 5, False) not in _grid_cache
