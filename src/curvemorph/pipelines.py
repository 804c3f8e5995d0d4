"""The eight morphometric pipelines: scores, truncated reconstructions, MSE.

``CHAINS`` gives each pipeline id its stage choices, and one fit runs the
stages in order, each switched on or off by the chain: preprocess (resample,
or reparameterise to uniform arc length in the Arc chains); GPA (GM and
elastic chains); Karcher registration in square-root velocity space, full or
softened by an identity blend (elastic chains); then B-spline smoothing and
multivariate FPCA (FDM and elastic chains) or classical PCA of the landmark
coordinates (GM chains).  The elastic chains reconstruct through an
SRVF-space model and map back by time integration.

Every fitted pipeline can project held-out specimens through its trained
transforms without refitting, which is what the cross-validation protocol
relies on.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from curvemorph.basis import design_matrix, fit_coefficients
from curvemorph.curvetools import DegenerateCurveError, reparameterise_arclength, resample_uniform, uniform_params
from curvemorph.fpca import ComponentModel, mfpca_fit, mfpca_project, mfpca_reconstruct, select_components
from curvemorph.landmarks import LandmarkConfiguration, ZeroCentroidSizeError, align_to_reference, center, gpa, superimpose
from curvemorph.pca import pca_fit
from curvemorph.srvf import KarcherResult, SrvfCurve, align_step, from_srvf, karcher_mean, to_srvf


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


def evaluate_mse(original: np.ndarray, reconstruction: np.ndarray) -> np.ndarray:
    """Mean squared coordinate difference over the 3N entries of each (..., N, 3) configuration, compared in place.

    Reconstructions come out of ``FittedPipeline.reconstruct`` already
    superimposed on their targets; superimpose other inputs first.
    """
    original = np.asarray(original, dtype=float)
    reconstruction = np.asarray(reconstruction, dtype=float)
    if original.shape != reconstruction.shape:
        raise ValueError("shape mismatch")
    return np.mean((original - reconstruction) ** 2, axis=(-2, -1))


def _select_k95(eigenvalues: np.ndarray, values: np.ndarray, threshold: float) -> int:
    """Components reaching the variance threshold, after checking the spectrum carries variance."""
    if float(np.sum(eigenvalues)) <= 1e-20 * max(1.0, float(np.mean(values**2))):
        raise ValueError("no variance")
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


def _registration_srvfs(pts: np.ndarray, settings: PipelineSettings, grid: np.ndarray) -> np.ndarray:
    """(K, M, 3) SRVFs on the grid of a (K, N, 3) stack, smoothed first with a richer basis than the representation's.

    Registration needs fidelity (a coarse projection does not commute with
    warping); the representation keeps the parsimonious basis.  Smooth before
    differentiating: SRVFs of raw noisy polylines are noise-dominated and
    would drive the warp search.
    """
    n_basis = max(settings.n_basis, min(2 * settings.n_basis, pts.shape[1] - 1))
    return to_srvf(_smooth_stack(pts, n_basis, grid), grid)


def _smooth_stack(points_stack: np.ndarray, n_basis: int, grid: np.ndarray) -> np.ndarray:
    """Least-squares B-spline fit of every curve of a (K, M_in, 3) stack, evaluated on the grid: (K, M, 3)."""
    smoothing, _ = _smoothing_maps(n_basis, points_stack.shape[1], grid.tobytes())
    return smoothing @ points_stack


def _smoothing_noise_covs(points_stack: np.ndarray, n_basis: int, grid: np.ndarray) -> np.ndarray:
    """(3, M, M): per coordinate, the covariance sigma^2 S S^T that ``_smooth_stack`` propagates from i.i.d. noise.

    sigma^2 comes from the pooled residuals at the input parameters (zero when the fit is saturated).
    """
    n, m_in, _ = points_stack.shape
    smoothing, hat = _smoothing_maps(n_basis, m_in, grid.tobytes())
    dof = n * (m_in - n_basis)
    sigma2 = np.sum((points_stack - hat @ points_stack) ** 2, axis=(0, 1)) / dof if dof > 0 else np.zeros(3)
    return sigma2[:, None, None] * (smoothing @ smoothing.T)


@functools.lru_cache(maxsize=16)
def _smoothing_maps(n_basis: int, m_in: int, grid_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(S, H), read-only: the least-squares fit of samples at ``uniform_params(m_in)`` as linear maps.

    With X the design at the inputs and X+ its least-squares inverse,
    S = D X+ evaluates the fit on the grid's design D and H = X X+ at the
    inputs.  One pair serves every curve of a stack.
    """
    design_in = design_matrix(n_basis, uniform_params(m_in))
    pinv = fit_coefficients(design_in, np.eye(m_in))
    maps = design_matrix(n_basis, np.frombuffer(grid_bytes)) @ pinv, design_in @ pinv
    for linear_map in maps:
        linear_map.flags.writeable = False
    return maps


# ---------------------------------------------------------------------------
# fitted pipeline

@dataclass
class FittedPipeline:
    """One pipeline fitted on training specimens.

    ``model`` gives the scores and projects held-out specimens; the
    reconstructions come from ``recon_model``, which is the SRVF-space model
    in the elastic chains and ``model`` otherwise.  ``reconstructions`` and
    ``mse_per_specimen`` are computed once, on first use.
    """

    pipeline_id: str
    chain: Chain
    settings: PipelineSettings
    grid: np.ndarray
    model: ComponentModel
    eigenvalues: np.ndarray  # retained spectrum used for component selection
    k95: int
    recon_model: ComponentModel
    recon_k95: int
    targets: np.ndarray  # (n, N, 3) what each reconstruction is superimposed on and scored against
    consensus: np.ndarray | None = None  # GPA consensus (GM and elastic chains)
    sizes: np.ndarray | None = None  # raw centroid sizes (GM and elastic chains)
    karcher: KarcherResult | None = None  # Karcher template, iterations and convergence (elastic chains)

    @property
    def scores(self) -> np.ndarray:
        return self.model.scores[:, : self.k95]

    @functools.cached_property
    def reconstructions(self) -> np.ndarray:
        """(n, N, 3) reconstructions at ``recon_k95``, each superimposed on its target."""
        return self.reconstruct()

    @functools.cached_property
    def mse_per_specimen(self) -> np.ndarray:
        """(n,) reconstruction MSE of each training specimen against its target."""
        return evaluate_mse(self.targets, self.reconstructions)

    def _align_amplitude(self, pts: np.ndarray) -> np.ndarray:
        """Register a (K, N, 3) stack of smoothed unit-size configurations to the trained template."""
        lam, alpha = self.chain.warp_penalty_and_blend(self.settings)
        aligned = []
        for q in _registration_srvfs(pts, self.settings, self.grid):
            # Two rotation/warp alternations: the second rotation sees the
            # correspondence of the first, unblended warp.
            rotated, _, gamma, _ = align_step(q, self.karcher.template, None, lam, 1.0)
            _, q_aligned, _, _ = align_step(rotated, self.karcher.template, gamma, lam, alpha)
            aligned.append(q_aligned)
        return center(from_srvf(np.stack(aligned), self.grid))

    def transform(self, configs: list[LandmarkConfiguration]) -> np.ndarray:
        """Scores of held-out specimens through the trained transforms, without refitting."""
        pts = _preprocess(configs, self.settings, self.chain.arc)
        if self.consensus is not None:
            pts = _naming_specimens(align_to_reference, configs, pts, self.consensus)
        if self.chain.backbone == "elastic":
            pts = self._align_amplitude(pts)
        if self.chain.backbone != "gm":
            pts = _smooth_stack(pts, self.settings.n_basis, self.grid)
        return mfpca_project(self.model, pts)[:, : self.k95]

    def reconstruct(self, k: int | None = None) -> np.ndarray:
        """(n, N, 3) rank-k reconstructions of the training specimens, each superimposed on its target."""
        k = self.recon_k95 if k is None else k
        # Each score row as a (1, K) matrix keeps every product the
        # vector-matrix product of one specimen; one (n, K) product adds up
        # in another order and moves the last bits.
        recon = mfpca_reconstruct(self.recon_model, self.recon_model.scores[:, None], k)[:, 0]
        if self.chain.backbone == "elastic":
            recon = center(from_srvf(recon, self.grid)) * self.sizes[:, None, None]
        return superimpose(recon, self.targets)


def _naming_specimens(procrustes, configs: list[LandmarkConfiguration], points: np.ndarray, *args):
    """``procrustes(points, *args)`` on the specimens' (n, N, 3) points; a zero-size configuration is named by its specimen."""
    try:
        return procrustes(points, *args)
    except ZeroCentroidSizeError as exc:
        ids = ", ".join(configs[row].specimen_id for row in exc.rows)
        raise ValueError(f"zero centroid size: specimen {ids}") from exc


def _fit(pipeline_id: str, chain: Chain, configs: list[LandmarkConfiguration], settings: PipelineSettings) -> FittedPipeline:
    """Run the chain's stages in order: preprocess, GPA, Karcher registration, represent and decompose, reconstruction model."""
    grid = uniform_params(settings.n_points)
    pts = targets = _preprocess(configs, settings, chain.arc)
    consensus = sizes = registration = None
    if chain.backbone != "fdm":
        result = _naming_specimens(gpa, configs, pts)
        pts, consensus, sizes = result.aligned, result.consensus, result.centroid_sizes
    if chain.backbone == "elastic":
        lam, alpha = chain.warp_penalty_and_blend(settings)
        registration = karcher_mean([SrvfCurve(grid, q) for q in _registration_srvfs(pts, settings, grid)], lam=lam, alpha=alpha)
        pts = center(from_srvf(np.stack([q.q for q in registration.aligned]), grid))

    if chain.backbone == "gm":
        model = pca_fit(pts)
    else:
        noise_covs = pve = None
        if chain.backbone == "fdm":
            # The univariate step corrects each coordinate's eigenvalues for
            # smoothing-propagated measurement noise and cuts its components at
            # the cumulative-variance rule used everywhere else.  The
            # multivariate spectrum comes from the raw univariate scores, so the
            # correction reaches it only through which components each
            # coordinate keeps.  Amplitude and SRVF functions carry transformed
            # (non-i.i.d.) noise, so the elastic chains use the plain estimator.
            noise_covs, pve = _smoothing_noise_covs(pts, settings.n_basis, grid), settings.variance_threshold
        pts = _smooth_stack(pts, settings.n_basis, grid)
        model = mfpca_fit(pts, grid, settings.m_target, noise_covs, pve)
    eigenvalues = model.eigenvalues[: settings.m_target]
    k95 = _select_k95(eigenvalues, pts, settings.variance_threshold)

    recon_model, recon_k95 = model, k95
    if chain.backbone == "fdm":
        # The specimen as the model represents it: its full-rank expansion.
        targets = mfpca_reconstruct(model, model.scores, model.eigenvalues.shape[0])
    elif chain.backbone == "elastic":
        # SRVF-space decomposition for the reconstruction path, built from the
        # same smoothed aligned amplitudes the representation uses.
        q_stack = to_srvf(pts, grid)
        recon_model = mfpca_fit(q_stack, grid, settings.m_target)
        recon_k95 = _select_k95(recon_model.eigenvalues, q_stack, settings.variance_threshold)
        targets = pts * sizes[:, None, None]
    return FittedPipeline(
        pipeline_id, chain, settings, grid, model, eigenvalues, k95, recon_model, recon_k95, targets, consensus, sizes, registration
    )


def fit_pipeline(pipeline_id: str, configs: list[LandmarkConfiguration], settings: PipelineSettings | None = None) -> FittedPipeline:
    pipeline_id = canonical_pipeline_id(pipeline_id)
    settings = settings or PipelineSettings()
    if len(configs) < 4:
        raise ValueError("need at least 4 specimens")
    n_landmarks = configs[0].n_landmarks
    if any(c.n_landmarks != n_landmarks for c in configs):
        raise ValueError("landmark counts differ across specimens")
    return _fit(pipeline_id, CHAINS[pipeline_id], configs, settings)


def run_pipeline(
    pipeline_id: str,
    dataset: list[LandmarkConfiguration],
    settings: PipelineSettings | None = None,
) -> FittedPipeline:
    """Fit one pipeline on a dataset, with its reconstructions and their MSE computed."""
    fitted = fit_pipeline(pipeline_id, dataset, settings)
    fitted.mse_per_specimen  # computes the reconstructions too, so a failure there fails this call
    return fitted
