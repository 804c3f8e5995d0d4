"""The eight morphometric pipelines: scores, truncated reconstructions, MSE.

``CHAINS`` gives each pipeline id its stage choices, and every chain fits
into the same ``FittedPipeline``.  Chains share three backbones.  GM-style
pipelines run Procrustes alignment and classical PCA on flattened
coordinates.  FDM-style pipelines smooth each coordinate function with a
cubic B-spline basis and decompose with multivariate FPCA.  Elastic pipelines first register curves to a Karcher
template in square-root velocity space (fully, or softened by an
identity blend), then feed the aligned amplitude curves through the FDM
backbone; reconstruction for those runs in SRVF space and maps back by time
integration.  Arc-prefixed variants reparameterise every curve to uniform
arc length before anything else.

Every fitted pipeline can project held-out specimens through its trained
transforms without refitting, which is what the cross-validation protocol
relies on.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from curvemorph.basis import build_basis, fit_coefficients
from curvemorph.curvetools import DegenerateCurveError, reparameterise_arclength, resample_uniform, uniform_params
from curvemorph.fpca import MfpcaModel, mfpca, mfpca_project, mfpca_reconstruct, select_components, ufpca
from curvemorph.landmarks import LandmarkConfiguration, align_to_reference, center, gpa, optimal_rotation
from curvemorph.pca import PcaModel, flatten_configurations, pca_fit, pca_project, pca_reconstruct
from curvemorph.srvf import SrvfCurve, align_step, from_srvf, karcher_mean, to_srvf


@dataclass(frozen=True)
class Chain:
    """Stage choices of one pipeline.

    ``arc`` reparameterises every curve to uniform arc length first.
    ``backbone`` is "gm" (GPA, then PCA of the coordinates), "fdm" (B-spline
    smoothing, then MFPCA) or "elastic" (GPA and SRVF registration to a
    Karcher template, then the FDM stages on the aligned amplitude curves).
    ``soft`` elastic chains penalise the warp search and blend each warp
    with the identity.
    """

    arc: bool
    backbone: str
    soft: bool = False

    def warp_penalty_and_blend(self, settings: PipelineSettings) -> tuple[float, float]:
        """(lam, alpha) of the warp search: soft chains read them from the settings."""
        return (settings.lambda_soft, settings.alpha_soft) if self.soft else (0.0, 1.0)


CHAINS = {
    "GM": Chain(arc=False, backbone="gm"),
    "ArcGM": Chain(arc=True, backbone="gm"),
    "FDM": Chain(arc=False, backbone="fdm"),
    "ArcFDM": Chain(arc=True, backbone="fdm"),
    "SoftSrvFdm": Chain(arc=False, backbone="elastic", soft=True),
    "ArcSoftSrvFdm": Chain(arc=True, backbone="elastic", soft=True),
    "ElasticSrvFdm": Chain(arc=False, backbone="elastic"),
    "ArcElasticSrvFdm": Chain(arc=True, backbone="elastic"),
}
PIPELINE_IDS = tuple(CHAINS)

_CANONICAL = {pid.lower(): pid for pid in PIPELINE_IDS}


def canonical_pipeline_id(name: str) -> str:
    """Map case/hyphen/underscore variants (e.g. 'arc-soft-srv-fdm') to a pipeline id."""
    key = name.lower().replace("-", "").replace("_", "")
    if key not in _CANONICAL:
        raise ValueError(f"unknown pipeline {name!r}; valid: {', '.join(PIPELINE_IDS)}")
    return _CANONICAL[key]


@dataclass
class PipelineSettings:
    n_points: int = 30
    n_basis: int = 10
    variance_threshold: float = 0.95
    alpha_soft: float = 0.6
    lambda_soft: float = 0.01
    m_target: int = 30

    def __post_init__(self):
        if self.n_points < 3 or self.n_basis < 4:
            raise ValueError("n_points >= 3 and n_basis >= 4 required")
        if not 0.0 < self.variance_threshold <= 1.0:
            raise ValueError("variance_threshold must lie in (0, 1]")
        if not 0.0 <= self.alpha_soft <= 1.0:
            raise ValueError("alpha_soft must lie in [0, 1]")
        if self.lambda_soft < 0.0 or self.m_target < 1:
            raise ValueError("lambda_soft >= 0 and m_target >= 1 required")


@dataclass
class PipelineOutput:
    pipeline_id: str
    scores: np.ndarray  # (n, k95)
    k95: int
    eigenvalues: np.ndarray  # retained spectrum used for component selection
    reconstructions: np.ndarray  # (n, N, 3), superimposed onto the originals
    mse_per_specimen: np.ndarray
    mse_mean: float
    mse_sd: float
    fitted: "FittedPipeline" = field(repr=False, default=None)


def superimpose(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Full Procrustes fit (rotation + scale + translation) of source onto target."""
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    src_c = center(source)
    tgt_c = center(target)
    r, _ = optimal_rotation(src_c, tgt_c)
    denom = float(np.sum(src_c**2))
    beta = float(np.sum((src_c @ r) * tgt_c)) / denom if denom > 0 else 1.0
    return beta * src_c @ r + target.mean(axis=0)


def evaluate_mse(original: np.ndarray, reconstruction: np.ndarray) -> float:
    """Mean squared coordinate difference over all 3N entries, compared in place.

    Reconstructions come out of ``FittedPipeline.reconstruct`` already
    superimposed on their targets; superimpose other inputs first.
    """
    original = np.asarray(original, dtype=float)
    reconstruction = np.asarray(reconstruction, dtype=float)
    if original.shape != reconstruction.shape:
        raise ValueError("shape mismatch")
    return float(np.mean((original - reconstruction) ** 2))


def _select_k95(pipeline_id: str, eigenvalues: np.ndarray, values: np.ndarray, threshold: float) -> int:
    """Components reaching the variance threshold, after checking the spectrum carries variance."""
    if float(np.sum(eigenvalues)) <= 1e-20 * max(1.0, float(np.mean(values**2))):
        raise ValueError(f"{pipeline_id}: no variance")
    return select_components(eigenvalues, threshold)


# Grid points per (coordinate bytes, landmark count, n_points, arc), read-only,
# least recently used first.
_grid_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
_GRID_CACHE_SIZE = 1024


def _preprocess(configs: list[LandmarkConfiguration], settings: PipelineSettings, arc: bool) -> np.ndarray:
    """(K, n_points, 3) common-grid points of the specimens: resampled or arc-reparameterised.

    Computed once per process for each distinct specimen and grid, and
    shared read-only by every fold, classifier and pipeline that asks; the
    specimens missing from the cache are computed in one batched call.
    """
    keys = [(c.points.tobytes(), c.n_landmarks, settings.n_points, arc) for c in configs]
    misses = {key: config for key, config in zip(keys, configs) if key not in _grid_cache}
    if misses:
        missed = list(misses.values())
        stack = np.stack([c.points for c in missed])
        if arc:
            try:
                stack = reparameterise_arclength(stack, settings.n_points)
            except DegenerateCurveError as exc:
                ids = ", ".join(missed[row].specimen_id for row in exc.rows)
                raise ValueError(f"degenerate curve: specimen {ids}") from exc
        else:
            stack = resample_uniform(stack, settings.n_points)
        stack.flags.writeable = False
        _grid_cache.update(zip(misses, stack))
    for key in keys:
        _grid_cache.move_to_end(key)
    points = np.stack([_grid_cache[key] for key in keys])
    while len(_grid_cache) > _GRID_CACHE_SIZE:
        _grid_cache.popitem(last=False)
    return points


def _registration_basis_size(settings: PipelineSettings, m_in: int) -> int:
    """Richer basis for the registration path than for the representation.

    Registration needs fidelity (a coarse projection does not commute with
    warping); the representation keeps the parsimonious basis.
    """
    return max(settings.n_basis, min(2 * settings.n_basis, m_in - 1))


def _fit_coordinate_mfpca(
    values: np.ndarray,
    grid: np.ndarray,
    m_target: int,
    noise_covs: list[np.ndarray] | None = None,
    pve: float | None = None,
) -> MfpcaModel:
    """MFPCA of an (n, M, 3) stack: univariate fit per coordinate, then combined."""
    n, m, _ = values.shape
    j_p = min(n - 1, m, m_target)
    models = [
        ufpca(values[:, :, p], grid, j_p, noise_cov=None if noise_covs is None else noise_covs[p], pve=pve)
        for p in range(3)
    ]
    j_total = sum(u.eigenvalues.shape[0] for u in models)
    return mfpca(models, j_out=min(m_target, j_total))


def _smooth_stack(
    points_stack: np.ndarray | list[np.ndarray], settings: PipelineSettings, grid: np.ndarray, n_basis: int | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Least-squares smooth every curve onto the grid.

    Also returns, per coordinate, the covariance the fit propagates from
    i.i.d. measurement noise (sigma^2 estimated from the pooled smoothing
    residuals; zero when the fit is saturated), used to keep noise out of
    downstream eigen-spectra.
    """
    k = n_basis if n_basis is not None else settings.n_basis
    m_in = points_stack[0].shape[0]
    design_in, design_out = _smoothing_designs(k, m_in, grid.tobytes())
    smoothed, rss = [], np.zeros(3)
    for pts in points_stack:
        coef = fit_coefficients(design_in, pts)
        smoothed.append(design_out @ coef)
        rss += np.sum((pts - design_in @ coef) ** 2, axis=0)
    dof = len(points_stack) * (m_in - k)
    sigma2 = rss / dof if dof > 0 else np.zeros(3)
    propagate = design_out @ np.linalg.solve(design_in.T @ design_in, design_out.T)
    noise_covs = [s2 * propagate for s2 in sigma2]
    return np.stack(smoothed), noise_covs


@functools.lru_cache(maxsize=16)
def _smoothing_designs(n_basis: int, m_in: int, grid_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """B-spline design matrices at ``uniform_params(m_in)`` and at the grid, read-only.

    Every curve of a stack sits on the same input parameters and is
    evaluated on the same grid, so one pair serves the whole stack.
    """
    basis = build_basis(n_basis)
    designs = basis.design_matrix(uniform_params(m_in)), basis.design_matrix(np.frombuffer(grid_bytes))
    for design in designs:
        design.flags.writeable = False
    return designs


# ---------------------------------------------------------------------------
# fitted pipeline

def _recenter(values: np.ndarray) -> np.ndarray:
    """(..., M, 3) curves, each moved to centroid zero."""
    return values - values.mean(axis=-2, keepdims=True)


@dataclass
class FittedPipeline:
    """One pipeline fitted on training specimens.

    ``model`` gives the scores and projects held-out specimens; the
    reconstructions come from ``recon_model``, which is the SRVF-space model
    in the elastic chains and ``model`` otherwise.
    """

    pipeline_id: str
    chain: Chain
    settings: PipelineSettings
    grid: np.ndarray
    model: PcaModel | MfpcaModel
    eigenvalues: np.ndarray  # retained spectrum used for component selection
    k95: int
    recon_model: PcaModel | MfpcaModel
    recon_k95: int
    targets: np.ndarray  # (n, N, 3) what each reconstruction is superimposed on and scored against
    consensus: np.ndarray | None = None  # GPA consensus (GM and elastic chains)
    template: SrvfCurve | None = None  # Karcher template (elastic chains)
    sizes: np.ndarray | None = None  # raw centroid sizes (elastic chains)

    @property
    def scores(self) -> np.ndarray:
        return self.model.scores[:, : self.k95]

    def _align_amplitude(self, pts: np.ndarray) -> np.ndarray:
        """Register one smoothed unit-size configuration to the trained template."""
        lam, alpha = self.chain.warp_penalty_and_blend(self.settings)
        k_reg = _registration_basis_size(self.settings, pts.shape[0])
        smoothed, _ = _smooth_stack([pts], self.settings, self.grid, n_basis=k_reg)
        q = to_srvf(smoothed[0], self.grid)
        # Two rotation/warp alternations: the second rotation sees the
        # correspondence of the first, unblended warp.
        rotated, _, gamma, _ = align_step(q, self.template, None, lam, 1.0)
        _, aligned, _, _ = align_step(rotated, self.template, gamma, lam, alpha)
        return _recenter(from_srvf(aligned, self.grid))

    def transform(self, configs: list[LandmarkConfiguration]) -> np.ndarray:
        """Scores of held-out specimens through the trained transforms, without refitting."""
        pts = _preprocess(configs, self.settings, self.chain.arc)
        if self.consensus is not None:
            pts = [align_to_reference(p, self.consensus) for p in pts]
        if self.chain.backbone == "gm":
            return pca_project(self.model, np.stack([p.reshape(-1) for p in pts]))[:, : self.k95]
        if self.chain.backbone == "elastic":
            pts = [self._align_amplitude(p) for p in pts]
        smoothed, _ = _smooth_stack(pts, self.settings, self.grid)
        blocks = [smoothed[:, :, p] for p in range(3)]
        return mfpca_project(self.model, blocks)[:, : self.k95]

    def reconstruct(self, index: int, k: int | None = None) -> np.ndarray:
        """Rank-k reconstruction of training specimen ``index``, superimposed on its target."""
        k = self.recon_k95 if k is None else k
        if self.chain.backbone == "gm":
            recon, _ = pca_reconstruct(self.recon_model, self.recon_model.scores[index], k)
        else:
            recon = mfpca_reconstruct(self.recon_model, self.recon_model.scores[index], k)[0]
        if self.chain.backbone == "elastic":
            recon = _recenter(from_srvf(recon, self.grid)) * self.sizes[index]
        return superimpose(recon, self.targets[index])


def _fit_gm(pipeline_id: str, chain: Chain, configs: list[LandmarkConfiguration], settings: PipelineSettings) -> FittedPipeline:
    targets = _preprocess(configs, settings, chain.arc)
    result = gpa(targets)
    flat = flatten_configurations(result.aligned)
    model = pca_fit(flat)
    retained = model.eigenvalues[: min(settings.m_target, model.k_max)]
    k95 = _select_k95(pipeline_id, retained, flat, settings.variance_threshold)
    grid = uniform_params(settings.n_points)
    return FittedPipeline(
        pipeline_id, chain, settings, grid, model, retained, k95, model, k95, targets, consensus=result.consensus
    )


def _fit_fdm(pipeline_id: str, chain: Chain, configs: list[LandmarkConfiguration], settings: PipelineSettings) -> FittedPipeline:
    grid = uniform_params(settings.n_points)
    pts = _preprocess(configs, settings, chain.arc)
    smoothed, noise_covs = _smooth_stack(pts, settings, grid)
    # The univariate step both corrects the spectrum for smoothing-propagated
    # measurement noise and downgrades the retained components by the same
    # cumulative-variance rule used everywhere else.
    model = _fit_coordinate_mfpca(smoothed, grid, settings.m_target, noise_covs, settings.variance_threshold)
    k95 = _select_k95(pipeline_id, model.eigenvalues, smoothed, settings.variance_threshold)
    # The specimen as the model represents it: its full-rank expansion.
    targets = mfpca_reconstruct(model, model.scores, model.eigenvalues.shape[0])
    return FittedPipeline(pipeline_id, chain, settings, grid, model, model.eigenvalues, k95, model, k95, targets)


def _fit_elastic(pipeline_id: str, chain: Chain, configs: list[LandmarkConfiguration], settings: PipelineSettings) -> FittedPipeline:
    pts = _preprocess(configs, settings, chain.arc)
    result = gpa(pts)
    grid = uniform_params(settings.n_points)
    # Smooth before differentiating: SRVFs of raw noisy polylines are
    # noise-dominated and would drive the warp search.
    k_reg = _registration_basis_size(settings, result.aligned.shape[1])
    smoothed_aligned, _ = _smooth_stack(result.aligned, settings, grid, n_basis=k_reg)
    lam, alpha = chain.warp_penalty_and_blend(settings)
    registration = karcher_mean([SrvfCurve(grid, q) for q in to_srvf(smoothed_aligned, grid)], lam=lam, alpha=alpha)
    amplitudes = _recenter(from_srvf(np.stack([q.q for q in registration.aligned]), grid))

    # Amplitude and SRVF functions carry transformed (non-i.i.d.) noise, so
    # their spectra use the plain estimator.
    smoothed, _ = _smooth_stack(amplitudes, settings, grid)
    model = _fit_coordinate_mfpca(smoothed, grid, settings.m_target)
    k95 = _select_k95(pipeline_id, model.eigenvalues, smoothed, settings.variance_threshold)

    # SRVF-space decomposition for the reconstruction path, built from the
    # same smoothed aligned amplitudes the representation uses.
    q_stack = to_srvf(smoothed, grid)
    srvf_model = _fit_coordinate_mfpca(q_stack, grid, settings.m_target)
    srvf_k95 = _select_k95(pipeline_id, srvf_model.eigenvalues, q_stack, settings.variance_threshold)

    return FittedPipeline(
        pipeline_id, chain, settings, grid, model, model.eigenvalues, k95, srvf_model, srvf_k95,
        targets=smoothed * result.centroid_sizes[:, None, None],
        consensus=result.consensus,
        template=registration.template,
        sizes=result.centroid_sizes,
    )


_FIT_BACKBONE = {"gm": _fit_gm, "fdm": _fit_fdm, "elastic": _fit_elastic}


# ---------------------------------------------------------------------------
# dispatch

def fit_pipeline(pipeline_id: str, configs: list[LandmarkConfiguration], settings: PipelineSettings | None = None) -> FittedPipeline:
    pipeline_id = canonical_pipeline_id(pipeline_id)
    settings = settings or PipelineSettings()
    if len(configs) < 4:
        raise ValueError(f"{pipeline_id}: need at least 4 specimens")
    n_landmarks = configs[0].n_landmarks
    if any(c.n_landmarks != n_landmarks for c in configs):
        raise ValueError(f"{pipeline_id}: landmark counts differ across specimens")

    chain = CHAINS[pipeline_id]
    try:
        return _FIT_BACKBONE[chain.backbone](pipeline_id, chain, configs, settings)
    except ValueError as exc:
        if str(exc).startswith(pipeline_id):
            raise
        raise ValueError(f"{pipeline_id}: {exc}") from exc


def run_pipeline(
    pipeline_id: str,
    dataset: list[LandmarkConfiguration],
    settings: PipelineSettings | None = None,
) -> PipelineOutput:
    """Fit one pipeline on a dataset and assemble scores, reconstructions, and MSE."""
    fitted = fit_pipeline(pipeline_id, dataset, settings)
    n = len(dataset)
    recons = np.stack([fitted.reconstruct(i) for i in range(n)])
    mse = np.array([evaluate_mse(fitted.targets[i], recons[i]) for i in range(n)])
    return PipelineOutput(
        pipeline_id=fitted.pipeline_id,
        scores=fitted.scores,
        k95=fitted.k95,
        eigenvalues=fitted.eigenvalues,
        reconstructions=recons,
        mse_per_specimen=mse,
        mse_mean=float(mse.mean()),
        mse_sd=float(mse.std(ddof=1)) if n > 1 else 0.0,
        fitted=fitted,
    )

