"""Reference functions that only the tests call.

Per-curve resampling, arc-length reparameterisation, smoothing and SRVF
operations on wrapper objects, built on the kernels of
``curvemorph.basis`` and ``curvemorph.srvf``, the B-spline basis object
that takes its design matrix from scipy, and the per-configuration
Procrustes algebra, GPA and per-specimen reconstruction of a fitted
pipeline.  The pipelines run the same
arithmetic on stacked arrays (``curvetools.resample_uniform`` and
``curvetools.reparameterise_arclength`` on (K, N, 3) stacks,
the cached smoothing maps built from ``fit_coefficients`` (equal to the
per-curve fits within 64 ulps, not bitwise), ``srvf.align_step``, the
``landmarks`` functions on (..., N, 3) stacks and
``FittedPipeline.reconstruct`` of all specimens at once, and
``basis.design_matrix`` by de Boor's recursion); the tests use
these as oracles for those array paths and as readable distance and
warp-action helpers.  The warp objects' identity, inverse and soft blend
are the oracles of the (M,) warp arrays that ``srvf.align_step`` and
``srvf.karcher_mean`` pass around.  The classifiers' former solvers, the dual
coordinate sweep of the linear SVM and the gradient ascent of the
multinomial fit, serve as oracles of the active-set and Newton solvers.
The former PCA and MFPCA models, with their own projection and
reconstruction (per coordinate for MFPCA), are the oracles of the one
flattened projection and reconstruction of ``fpca.ComponentModel``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from curvemorph.basis import ORDER, fit_coefficients
from curvemorph.classify import MultinomialModel, multinomial_gradient, multinomial_objective
from curvemorph.curvetools import uniform_params
from curvemorph import fpca
from curvemorph.fpca import ComponentModel, fix_signs
from curvemorph.landmarks import LandmarkConfiguration, ProcrustesResult, _canonical_frame
from curvemorph.srvf import SrvfCurve, WarpingFunction, _l2_norm_sq, _rotation, _warp_values, from_srvf


@dataclass
class SampledCurve:
    """A 3D curve sampled at strictly increasing parameters on [0, 1]."""

    params: np.ndarray  # (M,), params[0] == 0, params[-1] == 1
    values: np.ndarray  # (M, 3)

    def __post_init__(self):
        t = np.asarray(self.params, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 2 or v.shape != (t.shape[0], 3):
            raise ValueError(f"params/values shape mismatch: {t.shape} vs {v.shape}")
        if t.shape[0] < 3:
            raise ValueError("curve needs at least 3 samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("non-finite curve data")
        if np.any(np.diff(t) <= 0):
            raise ValueError("params must be strictly increasing")
        if abs(t[0]) > 1e-12 or abs(t[-1] - 1.0) > 1e-12:
            raise ValueError("params must start at 0 and end at 1")
        self.params = t
        self.values = v


def curve_from_points(points: np.ndarray) -> SampledCurve:
    """Wrap an ordered point matrix as a curve on the uniform index grid."""
    points = np.asarray(points, dtype=float)
    return SampledCurve(uniform_params(points.shape[0]), points)


def cumulative_arclength(curve: SampledCurve) -> np.ndarray:
    """Cumulative chord length s with s[0] = 0 and s[-1] = total length.

    Summing polyline segment lengths is exact for the piecewise-linear
    interpretation used throughout.
    """
    seg = np.linalg.norm(np.diff(curve.values, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _interp_columns(x_new: np.ndarray, x: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.column_stack([np.interp(x_new, x, values[:, j]) for j in range(values.shape[1])])


def arclength_reparameterise(curve: SampledCurve, m: int) -> SampledCurve:
    """Resample the curve towards constant speed: ``m`` points of nearly equal chords.

    Output sits on ``m`` uniform parameters.  The first pass places point i
    on the input polyline (by monotone linear interpolation) where the
    cumulative arc length reaches i/(m-1) of the total; each further round
    re-spaces the nodes by the arc length of the polygon through them, which
    moves the chords towards equal length.  The rounds stop once no node
    moves by 1e-14 or more, or after 60 rounds: on noisy polylines they can
    stop short of equal chords, and the iteration need not converge at all.
    Every output point lies on the input polyline, and the endpoints are
    exact.
    """
    if m < 3:
        raise ValueError("m must be at least 3")
    s = cumulative_arclength(curve)
    total = s[-1]
    if total <= 0.0:
        raise ValueError("degenerate curve")

    t_nodes = np.interp(np.linspace(0.0, total, m), s, curve.params)
    for _ in range(60):
        values = _interp_columns(t_nodes, curve.params, curve.values)
        seg = np.linalg.norm(np.diff(values, axis=0), axis=1)
        s_m = np.concatenate([[0.0], np.cumsum(seg)])
        if s_m[-1] <= 0.0:
            break
        t_new = np.interp(np.linspace(0.0, s_m[-1], m), s_m, t_nodes)
        shift = np.max(np.abs(t_new - t_nodes))
        t_nodes = t_new
        if shift < 1e-14:
            break
    new_values = _interp_columns(t_nodes, curve.params, curve.values)
    new_values[0] = curve.values[0]
    new_values[-1] = curve.values[-1]
    return SampledCurve(uniform_params(m), new_values)


def resample_uniform(curve: SampledCurve, m: int) -> SampledCurve:
    """Linear interpolation onto m uniform parameters in the original parameterisation."""
    if m < 3:
        raise ValueError("m must be at least 3")
    grid = uniform_params(m)
    new_values = _interp_columns(grid, curve.params, curve.values)
    new_values[0] = curve.values[0]
    new_values[-1] = curve.values[-1]
    return SampledCurve(grid, new_values)


@dataclass
class BSplineBasis:
    """Open-uniform cubic B-spline basis on [0, 1] (order ``ORDER``)."""

    n_basis: int
    knots: np.ndarray

    def design_matrix(self, grid: np.ndarray) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        if grid.size == 0:
            return np.zeros((0, self.n_basis))
        if np.any(grid < 0.0) or np.any(grid > 1.0):
            raise ValueError("evaluation grid must lie in [0, 1]")
        return BSpline.design_matrix(grid, self.knots, ORDER - 1, extrapolate=False).toarray()


def build_basis(n_basis: int = 10) -> BSplineBasis:
    """Open-uniform knots: endpoint multiplicity ``ORDER``, equally spaced interior knots."""
    if n_basis < ORDER:
        raise ValueError("n_basis must be at least the order")
    interior = np.linspace(0.0, 1.0, n_basis - ORDER + 2)[1:-1]
    knots = np.concatenate([np.zeros(ORDER), interior, np.ones(ORDER)])
    return BSplineBasis(n_basis=n_basis, knots=knots)


@dataclass
class FunctionalObject:
    """A 3D curve expressed by basis coefficients, one column per coordinate."""

    basis: BSplineBasis
    coefficients: np.ndarray  # (n_basis, 3)

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.shape != (self.basis.n_basis, 3):
            raise ValueError("coefficients must be n_basis x 3")
        if not np.all(np.isfinite(coef)):
            raise ValueError("non-finite coefficients")
        self.coefficients = coef


def smooth(curve: SampledCurve, basis: BSplineBasis) -> FunctionalObject:
    """Per-coordinate ordinary least-squares fit of the basis to the samples."""
    coef = fit_coefficients(basis.design_matrix(curve.params), curve.values)
    return FunctionalObject(basis=basis, coefficients=coef)


def evaluate(f: FunctionalObject, grid: np.ndarray) -> np.ndarray:
    """Basis matrix times coefficients at the requested grid points."""
    return f.basis.design_matrix(grid) @ f.coefficients


def elastic_distance_sq(a: SrvfCurve, b: SrvfCurve) -> float:
    """Squared L2 distance between two SRVFs on a common grid."""
    return _l2_norm_sq(a.params, a.q - b.q)


def warp_action(q: SrvfCurve, gamma: WarpingFunction) -> SrvfCurve:
    """Group action of a warp on an SRVF: (q o gamma) * sqrt(gamma')."""
    if gamma.gamma.shape[0] != q.params.shape[0]:
        raise ValueError("warp and SRVF must share a grid length")
    return SrvfCurve(q.params.copy(), _warp_values(q.params, q.q, gamma.gamma))


def identity_warp(m: int) -> WarpingFunction:
    t = uniform_params(m)
    return WarpingFunction(t, t.copy())


def invert_warp(warp: WarpingFunction) -> WarpingFunction:
    """Numerical inverse of a warp on the same grid."""
    return WarpingFunction(warp.params, np.interp(warp.params, warp.gamma, warp.params))


def soft_warp(gamma: WarpingFunction, alpha: float) -> WarpingFunction:
    """Convex blend alpha * gamma + (1 - alpha) * identity."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    blended = alpha * gamma.gamma + (1.0 - alpha) * gamma.params
    return WarpingFunction(gamma.params, blended)


def rotation_align_srvf(q: SrvfCurve, template: SrvfCurve) -> tuple[SrvfCurve, np.ndarray]:
    """Rotate an SRVF onto a template, minimizing the quadrature-weighted L2 distance."""
    if q.params.shape[0] != template.params.shape[0]:
        raise ValueError("SRVFs must share a grid")
    r = _rotation(q.q, template.q)
    return SrvfCurve(q.params.copy(), q.q @ r), r


def center(points: np.ndarray) -> np.ndarray:
    """Translate a configuration so its centroid sits at the origin."""
    points = np.asarray(points, dtype=float)
    return points - points.mean(axis=0)


def centroid_size(config: LandmarkConfiguration | np.ndarray) -> float:
    """Square root of the summed squared deviations of landmarks from their centroid."""
    pts = config.points if isinstance(config, LandmarkConfiguration) else np.asarray(config, dtype=float)
    size = float(np.sqrt(np.sum(center(pts) ** 2)))
    if size == 0.0:
        raise ValueError("zero centroid size")
    return size


def optimal_rotation(source: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, bool]:
    """Rotation R (det +1) minimizing ||source @ R - target||_F over rotations.

    Both inputs must be centered.  Reflections are excluded; a rank-deficient
    cross-covariance with an ambiguous minimizer is flagged via the second
    return value.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.shape != target.shape or source.shape[0] < 3:
        raise ValueError("source and target must be equal N x 3 with N >= 3")
    h = source.T @ target
    u, s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(u @ vt))
    if d == 0:
        d = 1.0
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    # Ambiguity: smallest singular value (after sign fix) indistinguishable
    # from its neighbour or zero means several rotations tie.
    degenerate = bool(s[-1] <= 1e-12 * max(s[0], 1e-300))
    return r, degenerate


def _normalize(points: np.ndarray) -> np.ndarray:
    c = center(points)
    return c / centroid_size(c)


def gpa(points: np.ndarray) -> ProcrustesResult:
    """Generalised Procrustes analysis of an (n, N, 3) stack: remove translation, rotation, and scale.

    Every configuration is centered and fixed to unit centroid size, then
    iteratively rotated to the evolving consensus (the unit-size rescaled
    mean) until the consensus moves less than 1e-10 in Frobenius norm, for
    at most 100 rounds.  Rejects stacks of another shape, of fewer than 2
    configurations or 3 landmarks, and non-finite coordinates.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[0] < 2 or points.shape[1] < 3 or points.shape[2] != 3:
        raise ValueError(f"gpa needs an n x N x 3 stack with n >= 2 and N >= 3, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite landmark coordinates")

    sizes = np.array([centroid_size(p) for p in points])
    shapes = np.stack([_normalize(p) for p in points])

    consensus = _normalize(shapes[0])
    converged = False
    iterations = 0
    degenerate = False
    for iterations in range(1, 101):
        for i in range(shapes.shape[0]):
            r, degen = optimal_rotation(shapes[i], consensus)
            degenerate = degenerate or degen
            shapes[i] = shapes[i] @ r
        new_consensus = _normalize(shapes.mean(axis=0))
        change = float(np.linalg.norm(new_consensus - consensus))
        consensus = new_consensus
        if change < 1e-10:
            converged = True
            break

    # GPA leaves one global rotation free; pin it so results are comparable
    # across datasets that differ only by nuisance transforms.
    frame = _canonical_frame(consensus)
    consensus = consensus @ frame
    shapes = shapes @ frame
    return ProcrustesResult(
        aligned=shapes,
        consensus=consensus,
        centroid_sizes=sizes,
        iterations=iterations,
        converged=converged,
        degenerate=degenerate,
    )


def align_to_reference(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Center, scale to unit centroid size, and rotate one configuration onto a reference.

    Used to project held-out specimens onto a trained consensus without
    letting them influence it.
    """
    normalized = _normalize(points)
    r, _ = optimal_rotation(normalized, center(reference))
    return normalized @ r


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


@dataclass
class PcaModel:
    mean_vector: np.ndarray  # (3N,)
    loadings: np.ndarray  # (k_max, 3N), orthonormal rows
    eigenvalues: np.ndarray  # (k_max,)
    scores: np.ndarray  # (n, k_max)

    @property
    def k_max(self) -> int:
        return self.loadings.shape[0]


def pca_model(model: ComponentModel) -> PcaModel:
    """The former PCA model of a unit-weight ``ComponentModel``: the same numbers, each configuration flattened landmark-major."""
    return PcaModel(model.mean.ravel(), model.basis.reshape(len(model.basis), model.mean.size), model.eigenvalues, model.scores)


def pca_project(model: PcaModel, points: np.ndarray) -> np.ndarray:
    """Scores of an (n, N, 3) stack of held-out configurations."""
    points = np.asarray(points, dtype=float)
    return (points.reshape(points.shape[0], -1) - model.mean_vector) @ model.loadings.T


def pca_reconstruct(model: PcaModel, scores: np.ndarray, k: int) -> np.ndarray:
    """Rank-k approximations added back to the mean: (..., K) scores give (..., N, 3) configurations."""
    scores = np.asarray(scores, dtype=float)
    if not 0 <= k <= model.k_max:
        raise ValueError("component count out of range")
    vec = model.mean_vector + scores[..., :k] @ model.loadings[:k]
    return vec.reshape(*vec.shape[:-1], -1, 3)


@dataclass
class MfpcaModel:
    """Multivariate FPCA built from three per-coordinate univariate models."""

    univariate: list[ComponentModel]  # per coordinate, from ``fpca.ufpca``
    eigenvalues: np.ndarray  # (J_out,)
    eigvecs: np.ndarray  # (J, J_out)
    eigenfunctions: list[np.ndarray]  # per coordinate, (J_out, M)
    scores: np.ndarray  # (n, J_out)

    @property
    def mean_functions(self) -> np.ndarray:
        return np.stack([u.mean[:, 0] for u in self.univariate], axis=1)  # (M, 3)


def mfpca_model(models: list[ComponentModel], j_out: int | None = None) -> MfpcaModel:
    """The former ``fpca.mfpca``: the same decomposition, kept per coordinate with its univariate models."""
    if len(models) != 3:
        raise ValueError("expected one univariate model per coordinate")
    n = models[0].scores.shape[0]
    if any(u.scores.shape[0] != n for u in models):
        raise ValueError("univariate models disagree on sample count")
    j_blocks = [u.scores.shape[1] for u in models]
    j_total = sum(j_blocks)
    if j_out is None:
        j_out = j_total
    if not 1 <= j_out <= j_total:
        raise ValueError("j_out must lie in [1, sum of univariate components]")

    xi = np.concatenate([u.scores for u in models], axis=1)  # (n, J)
    z_hat = xi.T @ xi / (n - 1)
    evals, evecs = np.linalg.eigh(z_hat)
    order = np.argsort(evals)[::-1][:j_out]
    evals = np.clip(evals[order], 0.0, None)
    vecs = fix_signs(evecs[:, order])  # (J, J_out)

    # each coordinate's (J_p, J_out) block of vecs combines its eigenfunctions into (J_out, M)
    blocks = np.split(vecs, np.cumsum(j_blocks)[:-1])
    eigenfunctions = [block.T @ u.basis[:, :, 0] for u, block in zip(models, blocks)]
    scores = xi @ vecs
    return MfpcaModel(
        univariate=list(models),
        eigenvalues=evals,
        eigvecs=vecs,
        eigenfunctions=eigenfunctions,
        scores=scores,
    )


def mfpca_project(model: MfpcaModel, new_samples: np.ndarray) -> np.ndarray:
    """Scores of an (n, M, 3) stack of held-out curves against a fitted model.

    Each coordinate is centered by its training mean and projected through
    its training eigenfunctions.
    """
    new_samples = np.asarray(new_samples, dtype=float)
    if new_samples.shape[1:] != model.mean_functions.shape:
        raise ValueError("grid mismatch with the fitted model")
    xi_blocks = []
    for p, u in enumerate(model.univariate):
        xi_blocks.append((new_samples[:, :, p] - u.mean[:, 0]) @ (u.weights[None, :] * u.basis[:, :, 0]).T)
    xi = np.concatenate(xi_blocks, axis=1)
    return xi @ model.eigvecs


def mfpca_reconstruct(model: MfpcaModel, scores: np.ndarray, k: int) -> np.ndarray:
    """Truncated Karhunen-Loeve curves: mean + sum of k leading score-weighted eigenfunctions.

    (..., K) scores give (..., M, 3) curves.
    """
    scores = np.asarray(scores, dtype=float)
    if not 0 <= k <= model.eigenvalues.shape[0]:
        raise ValueError("component count out of range")
    return model.mean_functions + np.stack([scores[..., :k] @ f[:k] for f in model.eigenfunctions], axis=-1)


def reconstruct(self, index: int, k: int | None = None) -> np.ndarray:
    """Rank-k reconstruction of training specimen ``index`` of a fitted pipeline, superimposed on its target."""
    k = self.recon_k95 if k is None else k
    recon = fpca.mfpca_reconstruct(self.recon_model, self.recon_model.scores[index], k)
    if self.chain.backbone == "elastic":
        recon = center(from_srvf(recon, self.grid)) * self.sizes[index]
    return superimpose(recon, self.targets[index])


def svm_binary_sweep(x: np.ndarray, y: np.ndarray, c_reg: float, tol: float, max_sweeps: int) -> np.ndarray:
    """Dual coordinate descent for the L1-loss linear SVM, bias as augmented feature.

    The sweep keeps the duals, labels and squared row norms as Python floats
    and takes one BLAS dot per visited row, which keeps interpreter overhead
    per visit small.  Every visit does the same floating-point operations in
    the same order as a numpy-scalar loop would, so the weights are bitwise
    that loop's (``tests/test_classify.py`` keeps one as an oracle).
    """
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    n = xa.shape[0]
    rows = list(xa)
    ys = y.tolist()
    qdiag = np.sum(xa**2, axis=1).tolist()
    alpha = [0.0] * n
    w = np.zeros(xa.shape[1])
    for _ in range(max_sweeps):
        for i in range(n):
            row, y_i, a_i = rows[i], ys[i], alpha[i]
            a_new = a_i - (y_i * float(row.dot(w)) - 1.0) / qdiag[i]
            if a_new < 0.0:
                a_new = 0.0
            elif a_new > c_reg:
                a_new = c_reg
            if a_new != a_i:
                w += ((a_new - a_i) * y_i) * row
                alpha[i] = a_new
        margins = 1.0 - y * (xa @ w)
        primal = 0.5 * w @ w + c_reg * np.sum(np.maximum(margins, 0.0))
        dual = np.sum(np.array(alpha)) - 0.5 * w @ w
        if primal - dual <= tol * max(1.0, abs(primal)):
            break
    return w


def multinomial_fit_ascent(scores: np.ndarray, labels: np.ndarray) -> MultinomialModel:
    """Full-batch gradient ascent with backtracking line search to gradient norm 1e-6, at most 500 steps."""
    x = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    y_onehot = (labels[:, None] == classes[None, :]).astype(float)
    weights = np.zeros((x.shape[1], classes.size))
    intercepts = np.zeros(classes.size)

    obj = multinomial_objective(weights, intercepts, x, y_onehot)
    step = 1.0
    converged = False
    it = 0
    for it in range(1, 501):
        gw, gb = multinomial_gradient(weights, intercepts, x, y_onehot)
        gnorm_sq = float(np.sum(gw**2) + np.sum(gb**2))
        if np.sqrt(gnorm_sq) <= 1e-6:
            converged = True
            break
        step = min(step * 2.0, 1e6)
        while True:
            w_new = weights + step * gw
            b_new = intercepts + step * gb
            obj_new = multinomial_objective(w_new, b_new, x, y_onehot)
            if obj_new >= obj + 0.5 * step * gnorm_sq or step < 1e-16:
                break
            step *= 0.5
        if step < 1e-16:
            break  # no ascent direction left at floating precision
        weights, intercepts, obj = w_new, b_new, obj_new
    return MultinomialModel(classes=classes, weights=weights, intercepts=intercepts, converged=converged, n_iter=it)
