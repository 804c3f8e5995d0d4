from unittest import mock

import numpy as np
import pytest

from curvemorph import fpca, pipelines
from curvemorph.curvetools import uniform_params
from curvemorph.landmarks import LandmarkConfiguration, center, superimpose
from curvemorph.pipelines import (
    _GRID_CACHE_SIZE,
    _grid_cache,
    _preprocess,
    _registration_srvfs,
    _smooth_stack,
    _smoothing_noise_covs,
    FittedPipeline,
    PIPELINE_IDS,
    PipelineSettings,
    canonical_pipeline_id,
    evaluate_mse,
    fit_pipeline,
    run_pipeline,
)
from curvemorph.simgen import SimConfig, generate_replicate
from curvemorph.srvf import SrvfCurve, estimate_warp, from_srvf

import oracles
from helpers import benchmark_helix_replicate, bitwise_equal, phase_family, score_rel, separated_mode_family
from oracles import (
    arclength_reparameterise,
    build_basis,
    curve_from_points,
    evaluate,
    resample_uniform,
    rotation_align_srvf,
    smooth,
    soft_warp,
    warp_action,
)


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
        assert np.array_equal(soft.transform(data), elastic.transform(data))
        assert soft.mse_per_specimen.mean() == elastic.mse_per_specimen.mean()
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
        assert bitwise_equal(out.mse_per_specimen, evaluate_mse(out.targets, out.reconstructions))

    def test_all_pipelines_run(self):
        data = generate_replicate(SimConfig(group_sizes=(5, 5, 5, 5), n_points=20, seed=1), 0)
        settings = PipelineSettings(n_points=20)
        for pid in PIPELINE_IDS:
            out = run_pipeline(pid, data, settings)
            assert out.k95 >= 1 and np.all(np.isfinite(out.mse_per_specimen))


class TestReconstruction:
    def test_gm_full_rank_reproduces_processed(self):
        data = phase_family(n=8)
        fitted = run_pipeline("GM", data)
        for i, recon in enumerate(fitted.reconstruct(fitted.model.eigenvalues.shape[0])[:4]):
            assert evaluate_mse(fitted.targets[i], recon) < 1e-6

    def test_fdm_full_rank_reproduces_processed(self):
        data = phase_family(n=8)
        fitted = run_pipeline("FDM", data)
        j_full = fitted.model.eigenvalues.shape[0]
        basis = build_basis()
        for i, recon in enumerate(fitted.reconstruct(j_full)[:4]):
            # the retained representation is lossless for this clean family
            smoothed = evaluate(smooth(curve_from_points(data[i].points), basis), fitted.grid)
            assert np.max(np.abs(recon - smoothed)) < 1e-6

    def test_zero_components_gives_mean_shape(self):
        data = phase_family(n=8)
        out = run_pipeline("GM", data)
        recon0 = out.reconstruct(0)[0]
        mean_shape = out.model.mean
        assert evaluate_mse(recon0, superimpose(mean_shape, recon0)) < 1e-12

    def test_elastic_roundtrip_fine_grid(self):
        data = phase_family(n=8, m=150, spread=0.4)
        out = run_pipeline("ElasticSrvFdm", data, PipelineSettings(n_points=150))
        assert out.mse_per_specimen.mean() < 1e-3

    def test_mse_nonincreasing_in_components(self):
        data = phase_family(n=10)
        for pid in ("GM", "FDM"):
            fitted = run_pipeline(pid, data)
            k_max = fitted.model.eigenvalues.shape[0]
            for i in (0, 3):
                errors = [
                    evaluate_mse(fitted.targets[i], fitted.reconstruct(k)[i])
                    for k in range(k_max + 1)
                ]
                for a, b in zip(errors, errors[1:]):
                    assert b <= a * (1 + 1e-6) + 1e-12


class TestReconstructMatchesPerIndexOracle:
    @pytest.mark.parametrize("pid", ["GM", "ArcGM", "FDM", "SoftSrvFdm"])
    def test_benchmark_helix_replicate(self, pid):
        data = benchmark_helix_replicate()
        fitted = run_pipeline(pid, data)
        expected = np.stack([oracles.reconstruct(fitted, i) for i in range(len(data))])
        assert bitwise_equal(fitted.reconstructions, expected)
        mse = [float(np.mean((target - recon) ** 2)) for target, recon in zip(fitted.targets, expected)]
        assert bitwise_equal(fitted.mse_per_specimen, np.array(mse))
        for k in (0, 1):
            assert bitwise_equal(fitted.reconstruct(k), np.stack([oracles.reconstruct(fitted, i, k) for i in range(len(data))]))

    def test_evaluate_mse_per_row(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 5, 7, 3))
        assert bitwise_equal(evaluate_mse(a, b), np.array([float(np.mean((x - y) ** 2)) for x, y in zip(a, b)]))
        assert evaluate_mse(a[0], b[0]) == evaluate_mse(a, b)[0]


class TestComponentKernelsMatchFormerKernels:
    """``fpca.mfpca_project`` and ``fpca.mfpca_reconstruct`` against the former per-model kernels of ``tests/oracles.py``.

    Bitwise on PCA models.  On MFPCA models the flattened products add up in
    another order than the per-coordinate ones, within 1e-14 of the largest
    magnitude of the former kernel's output.
    """

    @pytest.mark.parametrize("pid", ["GM", "FDM", "ArcFDM", "SoftSrvFdm"])
    def test_benchmark_helix_replicate(self, pid, monkeypatch):
        recorded = []
        fit_mfpca = fpca.mfpca

        def recording_mfpca(models, j_out=None):
            model = fit_mfpca(models, j_out)
            recorded.append((model, oracles.mfpca_model(models, j_out)))
            return model

        monkeypatch.setattr(fpca, "mfpca", recording_mfpca)
        fitted = fit_pipeline(pid, benchmark_helix_replicate())
        stack = fitted.targets  # an (n, M, 3) stack on the models' grid
        if pid == "GM":
            model, former = fitted.model, oracles.pca_model(fitted.model)
            assert bitwise_equal(fpca.mfpca_project(model, stack), oracles.pca_project(former, stack))
            for k in (0, 1, fitted.k95, model.eigenvalues.shape[0]):
                for scores in (model.scores, model.scores[:, None]):
                    assert bitwise_equal(fpca.mfpca_reconstruct(model, scores, k), oracles.pca_reconstruct(former, scores, k))
            return

        fitted_models = [fitted.model, fitted.recon_model] if pid == "SoftSrvFdm" else [fitted.model]
        assert len(recorded) == len(fitted_models) and all(model is fit for (model, _), fit in zip(recorded, fitted_models))
        for (model, former), k95 in zip(recorded, (fitted.k95, fitted.recon_k95)):
            assert bitwise_equal(model.scores, former.scores) and bitwise_equal(model.basis, np.stack(former.eigenfunctions, axis=-1))
            expected = oracles.mfpca_project(former, stack)
            assert np.max(np.abs(fpca.mfpca_project(model, stack) - expected)) <= 1e-14 * np.max(np.abs(expected))
            for k in (0, 1, k95, model.eigenvalues.shape[0]):
                for scores in (model.scores, model.scores[:, None]):
                    expected = oracles.mfpca_reconstruct(former, scores, k)
                    assert np.max(np.abs(fpca.mfpca_reconstruct(model, scores, k) - expected)) <= 1e-14 * np.max(np.abs(expected))


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
        again = out.transform(data)
        assert np.max(np.abs(again - out.scores)) < 1e-8

    @pytest.mark.parametrize("pid", ["GM", "ElasticSrvFdm"])
    def test_held_out_zero_size_specimen_is_named(self, pid):
        data = phase_family(n=8, m=30, spread=0.4)
        fitted = fit_pipeline(pid, data[:6])
        flat = LandmarkConfiguration("flat", np.full((30, 3), 0.25), "g0")
        with pytest.raises(ValueError, match="^zero centroid size: specimen flat$"):
            fitted.transform([data[6], flat])

    def test_elastic_training_data_close(self):
        data = phase_family(n=8, m=40, spread=0.4)
        out = run_pipeline("ElasticSrvFdm", data, PipelineSettings(n_points=40))
        again = out.transform(data)
        rel = np.linalg.norm(again - out.scores) / np.linalg.norm(out.scores)
        assert rel < 0.05


def _align_one(self, pts: np.ndarray) -> np.ndarray:
    """Reference: the object-based alternation that two ``align_step`` calls replaced, for one specimen."""
    lam, alpha = self.chain.warp_penalty_and_blend(self.settings)
    q = SrvfCurve(self.grid.copy(), _registration_srvfs(pts[None], self.settings, self.grid)[0])
    # Two rotation/warp alternations; the second rotation sees
    # warp-corrected correspondence.
    template = self.karcher.template
    q_rot, _ = rotation_align_srvf(q, template)
    warp = estimate_warp(template, q_rot, lam)
    _, r = rotation_align_srvf(warp_action(q_rot, warp), template)
    q_rot = SrvfCurve(q_rot.params, q_rot.q @ r)
    warp = estimate_warp(template, q_rot, lam)
    if alpha < 1.0:
        warp = soft_warp(warp, alpha)
    aligned = warp_action(q_rot, warp)
    return center(from_srvf(aligned.q, aligned.params))


def _align_amplitude_loop(self, pts: np.ndarray) -> np.ndarray:
    """Reference: ``_align_one`` mapped over the (K, N, 3) stack."""
    return np.stack([_align_one(self, p) for p in pts])


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


def _smooth_stack_loop(points_stack, n_basis, grid):
    """Reference: the per-curve smooth/evaluate loop that ``_smooth_stack`` and ``_smoothing_noise_covs`` replaced."""
    basis = build_basis(n_basis)
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
    return np.sin(freq * 2.0 * np.pi * t + phase) + rng.normal(scale=0.05, size=(n, m, 3))


def _round_off(expected: np.ndarray) -> float:
    """The gap allowed between the cached linear maps and the per-curve loop.

    Both apply the same least-squares fit, the maps as one product per
    curve and the loop as coefficients, then values; the sums run in
    another order, so they may differ by a few ulps of the largest value.
    64 ulps is a bound fixed from float64, not read off the results.
    """
    return 64 * np.finfo(float).eps * float(np.max(np.abs(expected)))


class TestSmoothStackMatchesLoopOracle:
    @pytest.mark.parametrize("m_in", [12, 30, 48])
    @pytest.mark.parametrize("n_basis", [4, 10, 20])
    def test_smoothed_stack_and_noise_covariances(self, m_in, n_basis):
        stack = _noisy_curves(7, m_in, seed=m_in + n_basis)
        for grid in (uniform_params(30), uniform_params(17)):
            if m_in < n_basis:
                for smooth_stack in (_smooth_stack_loop, _smooth_stack, _smoothing_noise_covs):
                    with pytest.raises(ValueError, match="^underdetermined smoothing$"):
                        smooth_stack(stack, n_basis, grid)
                continue
            expected, expected_covs = _smooth_stack_loop(stack, n_basis, grid)
            smoothed = _smooth_stack(stack, n_basis, grid)
            assert smoothed.shape == expected.shape
            assert np.max(np.abs(smoothed - expected)) <= _round_off(expected)
            covs = _smoothing_noise_covs(stack, n_basis, grid)
            assert covs.shape == (3, grid.size, grid.size)
            for cov, expected_cov in zip(covs, expected_covs, strict=True):
                assert np.max(np.abs(cov - expected_cov)) <= _round_off(expected_cov)

    def test_each_curve_is_smoothed_alone(self):
        # A specimen's smoothed curve does not depend on the stack it comes in.
        grid = uniform_params(30)
        stack = _noisy_curves(9, 30, seed=1)
        smoothed = _smooth_stack(stack, 10, grid)
        for i in range(stack.shape[0]):
            assert np.array_equal(_smooth_stack(stack[i : i + 1], 10, grid)[0], smoothed[i])

    def test_saturated_fit_propagates_no_noise(self):
        stack = _noisy_curves(3, 12, seed=2)
        assert np.array_equal(_smoothing_noise_covs(stack, 12, uniform_params(30)), np.zeros((3, 30, 30)))

    def test_ill_conditioned_design_is_rejected(self):
        # With as many uniform samples as basis functions, the design's
        # condition number passes 1e12 near 180 functions.
        stack = _noisy_curves(2, 180, seed=0)
        for smooth_stack in (_smooth_stack_loop, _smooth_stack, _smoothing_noise_covs):
            with pytest.raises(ValueError, match="^ill-conditioned smoothing design$"):
                smooth_stack(stack, 180, uniform_params(30))


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
