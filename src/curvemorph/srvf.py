"""Square-root velocity representation and elastic curve alignment.

The square-root velocity transform maps a curve f to q = f' / sqrt(|f'|),
under which the elastic metric becomes the flat L2 distance.  Alignment
searches for a monotone reparameterisation gamma acting on q as
(q o gamma) * sqrt(gamma'), found by dynamic programming over a
slope-constrained lattice of grid-node pairs.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from curvemorph.curvetools import derivative, uniform_params
from curvemorph.landmarks import optimal_rotation

# Predecessor steps (dt_step, dgamma_step) for the DP lattice, filtered to
# local slopes in [1/4, 4]; depth 6 keeps the slope quantization fine enough
# for percent-level alignment fidelity.
_DP_STEPS = [
    (di, dj)
    for di in range(1, 7)
    for dj in range(1, 7)
    if 0.25 <= dj / di <= 4.0
]
_DP_STEPS.sort(key=lambda s: (s != (1, 1), s))  # identity step first so ties prefer it
_DP_DI = np.array([di for di, _ in _DP_STEPS])
_DP_DJ = np.array([dj for _, dj in _DP_STEPS])
_DP_DEPTH = int(_DP_DI.max())

# The Karcher iteration has converged once its aligned variance falls by no
# more than this share of its current value in one iteration.
_KARCHER_REL_TOL = 1e-3
# It stops unconverged after this many iterations.
_KARCHER_MAX_ITER = 20


@dataclass
class SrvfCurve:
    """Square-root velocity representation of a curve on a uniform grid."""

    params: np.ndarray  # (M,), uniform on [0, 1]
    q: np.ndarray  # (M, 3)

    def __post_init__(self):
        t = np.asarray(self.params, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if t.ndim != 1 or q.shape != (t.shape[0], 3):
            raise ValueError("params/q shape mismatch")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
            raise ValueError("non-finite SRVF data")
        if np.max(np.abs(t - _uniform_grid(t.shape[0]))) > 1e-9:
            raise ValueError("SRVF grid must be uniform on [0, 1]")
        self.params = t
        self.q = q


@dataclass
class WarpingFunction:
    """Orientation-preserving reparameterisation of [0, 1] with fixed endpoints."""

    params: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.params, dtype=float)
        g = np.asarray(self.gamma, dtype=float)
        if t.shape != g.shape or t.ndim != 1:
            raise ValueError("params/gamma shape mismatch")
        if abs(g[0]) > 1e-12 or abs(g[-1] - 1.0) > 1e-12:
            raise ValueError("gamma must map 0 to 0 and 1 to 1")
        if np.any(np.diff(g) < 1e-12):
            raise ValueError("gamma must be strictly increasing")
        self.params = t
        self.gamma = g


def _l2_norm_sq(t: np.ndarray, values: np.ndarray) -> float:
    return float(np.trapezoid(np.sum(values**2, axis=1), t))


def to_srvf(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """q(t) = f'(t) / sqrt(|f'(t)|) of (..., M, 3) curve values on the grid t, with the speed floored at 1e-8."""
    vel = derivative(values, t)
    speed = np.linalg.norm(vel, axis=-1)
    return vel / np.sqrt(np.maximum(speed, 1e-8))[..., None]


def from_srvf(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Invert the transform from the origin by cumulative trapezoid integration of q * |q|.

    Takes and returns (..., M, 3) values on the grid t; add a start point to
    place the curve elsewhere.
    """
    integrand = q * np.linalg.norm(q, axis=-1)[..., None]
    increments = 0.5 * (integrand[..., :-1, :] + integrand[..., 1:, :]) * np.diff(t)[:, None]
    return np.concatenate([np.zeros_like(q[..., :1, :]), np.cumsum(increments, axis=-2)], axis=-2)


@functools.lru_cache(maxsize=8)
def _uniform_grid(m: int) -> np.ndarray:
    """Read-only ``uniform_params(m)``, the grid every SRVF is checked against."""
    t = uniform_params(m)
    t.flags.writeable = False
    return t


@functools.lru_cache(maxsize=8)
def _gradient_coefficients(grid: bytes) -> tuple[tuple[np.ndarray | float, ...], float, float]:
    """The coefficients of ``np.gradient(g, t, edge_order=1)`` on the grid t whose bytes are ``grid``.

    Returns the interior terms, the step of the first and of the last cell.
    numpy takes its uniform branch when all steps of t are equal (as those of
    ``uniform_params(m)`` are for m = 5, 9, 17, ...): the interior is then
    (g[2:] - g[:-2]) / (2 dx), and the terms are (2 dx,).  Otherwise they
    are numpy's three weight rows (a, b, c) of a g[:-2] + b g[1:-1] + c g[2:].
    """
    dx = np.diff(np.frombuffer(grid))
    if (dx == dx[0]).all():
        return (2.0 * dx[0],), dx[0], dx[0]
    dx1, dx2 = dx[:-1], dx[1:]
    rows = (-dx2 / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2), dx1 / (dx2 * (dx1 + dx2)))
    for row in rows:
        row.flags.writeable = False
    return rows, dx[0], dx[-1]


def _gradient(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``np.gradient(g, t, edge_order=1)`` of (M,) values, bitwise.

    numpy's own coefficients, cached per grid, are applied in numpy's order.
    """
    interior, dx_0, dx_n = _gradient_coefficients(t.tobytes())
    out = np.empty_like(g)
    inner = out[1:-1]
    if len(interior) == 1:
        np.subtract(g[2:], g[:-2], out=inner)
        inner /= interior[0]
    else:
        a, b, c = interior
        np.multiply(a, g[:-2], out=inner)
        inner += b * g[1:-1]
        inner += c * g[2:]
    out[0] = (g[1] - g[0]) / dx_0
    out[-1] = (g[-1] - g[-2]) / dx_n
    return out


def _sqrt_slope(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sqrt(max(g', 0)) of (M,) warp values on the grid t."""
    return np.sqrt(np.maximum(_gradient(g, t), 0.0))


@functools.lru_cache(maxsize=8)
def _identity_terms(grid: bytes) -> tuple[np.ndarray, float]:
    """sqrt(max(t', 0)) and the roughness integral (sqrt(t') - 1)^2 dt of the identity warp on the grid t.

    ``np.interp`` returns the node values at the nodes, so the identity acts
    on SRVF values q as q * sqrt(t'), and its penalty is lam times the
    roughness.
    """
    t = np.frombuffer(grid)
    root = _sqrt_slope(t, t)
    root.flags.writeable = False
    return root, float(np.trapezoid((root - 1.0) ** 2, t))


def _warp_values(t: np.ndarray, q: np.ndarray, g: np.ndarray, root: np.ndarray | None = None) -> np.ndarray:
    """(q o g) * sqrt(g') for (M, 3) SRVF values and (M,) warp values on the grid t.

    ``root`` is sqrt(max(g', 0)) from ``_sqrt_slope`` when the caller has it already.
    """
    if root is None:
        root = _sqrt_slope(t, g)
    warped = np.column_stack([np.interp(g, t, q[:, j]) for j in range(3)])
    return warped * root[:, None]


@functools.lru_cache(maxsize=8)
def _edge_tables(m: int) -> tuple[np.ndarray, ...]:
    """Gather tables that stack the quadrature rows of every lattice edge.

    The edge of step k = (di, dj) ending at node (i, j) spans rows
    r = 0..di.  Row r samples q_target at node i - di + r and q_source at
    the fractional node j - dj + s * r (slope s = dj / di), interpolated
    linearly between nodes lo and hi = lo + 1.  Rows past di get zero
    weight.  Node indices are clipped to the grid; they leave it only at
    cells i < di or j < dj, which the DP never reads, and where the weight
    is 0 (rows past di, and hi when the position falls on a node).

    Returns flat indices into a raveled (m, 3) array, ``idx_t``, ``idx_lo``
    and ``idx_hi`` of shape (n_steps, m, 3 * (depth + 1)), and the matching
    weights ``w_t``, ``w_lo`` and ``w_hi`` of shape (n_steps, 1, 3 * (depth + 1)):
    the square-rooted trapezoid weight sqrt(w_r) on the target side and
    sqrt(w_r * s) split by the interpolation fraction on the source side.
    All are read-only.
    """
    r = np.arange(_DP_DEPTH + 1)
    di, dj = _DP_DI[:, None], _DP_DJ[:, None]
    slope = dj / di
    pos = slope * r
    off = np.floor(pos + 1e-12).astype(np.intp)
    frac = pos - off
    frac[frac < 1e-12] = 0.0
    weights = np.where((r == 0) | (r == di), 0.5, 1.0) * (r <= di)
    w_s = np.sqrt(weights * slope)
    nodes = np.arange(m)[None, :, None]
    rows_t = np.clip(nodes - di[:, :, None] + r, 0, m - 1)
    lo = np.clip(nodes - dj[:, :, None] + off[:, None, :], 0, m - 1)
    hi = np.minimum(lo + 1, m - 1)
    xyz = np.arange(3)

    def flat_index(rows):
        return (3 * rows[..., None] + xyz).reshape(*rows.shape[:2], -1)

    def per_row(w):
        return np.repeat(w, 3, axis=1)[:, None, :]

    tables = (
        flat_index(rows_t), flat_index(lo), flat_index(hi),
        per_row(np.sqrt(weights)), per_row((1.0 - frac) * w_s), per_row(frac * w_s),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


_gather = threading.local()


def _gather_buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """This thread's gather arrays for ``_edge_costs``: a, its (n_steps, m) row norms, b and b_hi.

    The three gathers are (n_steps, m, 3 (depth + 1)).  They are kept for
    the last grid size, because allocating and freeing arrays of this size
    on every call costs a page fault per page touched once they exceed
    malloc's mmap threshold.  ``_gather.target`` holds the bytes of the
    target whose gather a and its norms hold, or None.
    """
    buffers = getattr(_gather, "buffers", None)
    if buffers is None or buffers[0].shape != shape:
        _gather.target = None
        buffers = _gather.buffers = (np.empty(shape), np.empty(shape[:2]), np.empty(shape), np.empty(shape))
    return buffers


def _edge_costs(q_target: np.ndarray, q_source: np.ndarray, dt: float, lam: float) -> np.ndarray:
    """Stacked costs C[k, i, j] of the lattice edge of step k ending at node (i, j).

    The edge from (i - di, j - dj) is a linear warp segment of slope
    s = dj / di; its cost is the trapezoid quadrature of
    |q_target(t) - sqrt(s) * q_source(gamma(t))|^2 over the segment plus the
    roughness penalty lam * (sqrt(s) - 1)^2 * di * dt.  Scaling each
    quadrature row by its square-rooted weight makes that sum one squared
    distance |a_k[i] - b_k[j]|^2 between stacked 3 (depth + 1)-vectors, so
    every step comes from one batched matrix product.  The target side a
    and its norms depend on q_target alone, and every call of a Karcher
    pass shares one template, so they are gathered again only when the
    target changes.
    """
    idx_t, idx_lo, idx_hi, w_t, w_lo, w_hi = _edge_tables(q_target.shape[0])
    a, a_norms, b, b_hi = _gather_buffers(idx_t.shape)
    target = q_target.tobytes()
    # Indices are in range, so mode="clip" only spares take a copy of ``out``.
    if target != _gather.target:
        _gather.target = None  # a is not the gather of any target until it is filled
        np.take(q_target.ravel(), idx_t, out=a, mode="clip")
        a *= w_t
        np.einsum("kir,kir->ki", a, a, out=a_norms)
        _gather.target = target
    q_s = q_source.ravel()
    np.take(q_s, idx_lo, out=b, mode="clip")
    b *= w_lo
    np.take(q_s, idx_hi, out=b_hi, mode="clip")
    b_hi *= w_hi
    b += b_hi
    costs = np.matmul(a, b.transpose(0, 2, 1))
    costs *= -2.0
    costs += a_norms[:, :, None]
    costs += np.einsum("kjr,kjr->kj", b, b)[:, None, :]
    costs *= dt
    costs += (lam * (np.sqrt(_DP_DJ / _DP_DI) - 1.0) ** 2 * (_DP_DI * dt))[:, None, None]
    return costs


def estimate_warp(q_target: SrvfCurve, q_source: SrvfCurve, lam: float = 0.0) -> WarpingFunction:
    """Warp gamma* approximately minimizing |q_target - (q_source o gamma) * sqrt(gamma')|^2.

    Dynamic programming over the full M x M lattice with local slopes
    restricted to [1/4, 4]; the penalty lam * integral (sqrt(gamma') - 1)^2
    discourages departures from the identity; ``lam`` must be >= 0.  Falls
    back to the identity warp when it scores strictly better than the DP
    optimum, so alignment never increases the realized distance; on a tie
    the DP warp is kept.  Both curves must sit on the same grid.
    """
    t = q_target.params
    m = t.shape[0]
    if not np.array_equal(q_source.params, t):
        raise ValueError("SRVFs must share a grid")
    if m < 5:
        raise ValueError("grid too small for warp estimation")
    if not lam >= 0.0:
        raise ValueError("lam must be >= 0")
    gamma = _dp_warp(q_target, q_source, lam)

    # Realized-objective guard: never do worse than not warping at all.
    def objective(action: np.ndarray, roughness: float) -> float:
        return _l2_norm_sq(t, q_target.q - action) + lam * roughness

    root = _sqrt_slope(t, gamma)
    dp = objective(_warp_values(t, q_source.q, gamma, root), float(np.trapezoid((root - 1.0) ** 2, t)))
    identity_root, identity_roughness = _identity_terms(t.tobytes())
    if dp > objective(q_source.q * identity_root[:, None], identity_roughness):
        return WarpingFunction(uniform_params(m), uniform_params(m))
    return WarpingFunction(t.copy(), gamma)


def _dp_warp(q_target: SrvfCurve, q_source: SrvfCurve, lam: float) -> np.ndarray:
    """(M,) warp values of the single-grid DP over the slope-constrained node lattice."""
    t = q_target.params
    dt = float(t[1] - t[0])
    path_i, path_j = _dp_path(_edge_costs(q_target.q, q_source.q, dt, lam))
    gamma = np.interp(t, t[path_i], t[path_j])
    gamma[0], gamma[-1] = 0.0, 1.0
    return gamma


def _dp_path(costs: np.ndarray) -> tuple[list[int], list[int]]:
    """Cheapest node path from (0, 0) to (m-1, m-1) given stacked edge costs (n_steps, m, m).

    ``dist`` is padded with inf by the deepest step, so each lattice row takes
    one gather of every predecessor ``dist[i - di, j - dj]``; edges that leave
    the grid read inf and never win.  Ties go to the earliest step.
    """
    m = costs.shape[1]
    pad = _DP_DEPTH
    width = m + pad
    dist = np.full((width, width), np.inf)  # node (i, j) at (pad + i, pad + j)
    dist[pad, pad] = 0.0
    flat = dist.reshape(-1)
    cols = np.arange(m)
    # Flat index of dist[i - di, j - dj] at row i = 0, per column and step.
    pred = (pad - _DP_DI) * width + (pad - _DP_DJ) + cols[:, None]
    best_step = np.zeros((m, m), dtype=np.intp)
    for i in range(1, m):
        cand = flat[pred + i * width]
        cand += costs[:, i, :].T
        best = best_step[i] = cand.argmin(axis=1)
        dist[pad + i, pad:] = cand[cols, best]

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
    return path_i, path_j


def _rotation(q: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Rotation of (M, 3) SRVF values onto a template under the trapezoid-weighted L2 distance."""
    w = np.full(q.shape[0], 1.0)
    w[0] = w[-1] = 0.5  # trapezoid weights on the uniform grid
    sw = np.sqrt(w)[:, None]
    r, _ = optimal_rotation(q * sw, template * sw)
    return r


def align_step(
    q: np.ndarray, template: SrvfCurve, prev: np.ndarray | None, lam: float, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One rotation/warp alternation of (M, 3) SRVF values q on the template's grid.

    The rotation is estimated on q acted on by the previous warp values
    ``prev`` (on q itself when there are none), so the pointwise
    correspondence it relies on is warp-corrected.  The warp of the rotated
    values is then searched by ``estimate_warp`` with penalty ``lam`` and,
    when ``alpha`` < 1, blended with the identity: alpha gamma + (1 - alpha) t.

    Returns the rotated values, the rotated values acted on by the warp,
    the warp values and the rotation.
    """
    t = template.params
    r = _rotation(q if prev is None else _warp_values(t, q, prev), template.q)
    rotated = q @ r
    warp = estimate_warp(template, SrvfCurve(t, rotated), lam)
    gamma = warp.gamma
    if alpha < 1.0:
        gamma = alpha * gamma + (1.0 - alpha) * warp.params
    return rotated, _warp_values(t, rotated, gamma), gamma, r


@dataclass
class KarcherResult:
    """Karcher template with the per-specimen aligned SRVFs that produced it."""

    template: SrvfCurve
    aligned: list[SrvfCurve]
    warps: np.ndarray  # (K, M) warp values on the template's grid
    rotations: np.ndarray  # (K, 3, 3)
    iterations: int
    converged: bool
    variance_history: list[float] = field(default_factory=list)


def karcher_mean(
    qs: list[SrvfCurve],
    lam: float = 0.0,
    alpha: float = 1.0,
) -> KarcherResult:
    """Elastic Karcher mean by alternating alignment and averaging.

    Each iteration runs one ``align_step`` of every original SRVF against
    the current template, starting from its warp of the previous iteration
    (the identity at first), and replaces the template with the pointwise
    mean of the aligned set.  V_i, the total aligned variance of iteration
    i, goes into ``variance_history``.  The iteration has converged at the
    first i >= 2 where V_(i-1) - V_i <= 1e-3 * V_i (``_KARCHER_REL_TOL``):
    the variance has stopped falling by more than a thousandth of itself.
    If instead V_i rises above V_(i-1), the previous, better iterate is
    kept, and that counts as converged too.  The rule reads only ratios of
    variances, so scaling every curve by a common factor changes no
    decision.  ``converged`` is False only when ``_KARCHER_MAX_ITER``
    iterations ran without meeting the rule.

    The template is only defined up to a common reparameterisation; the
    result fixes that gauge by composing everything with the inverse of the
    mean warp, so the warps average to the identity.  ``lam`` must be >= 0
    and ``alpha`` lie in [0, 1]; both are checked before any warp search.

    The result is computed once per process for each input: a call with the
    same SRVF values, grid, ``lam``, ``alpha``, iteration cap and tolerance
    returns the same ``KarcherResult`` object.  Its arrays are read-only,
    because every caller shares it.
    """
    if len(qs) < 2:
        raise ValueError("karcher_mean needs at least 2 curves")
    if not lam >= 0.0:
        raise ValueError("lam must be >= 0")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    t = qs[0].params
    # One template grid: every curve must sit on exactly the first curve's parameters.
    if any(not np.array_equal(q.params, t) for q in qs):
        raise ValueError("SRVFs must share a grid")
    originals = np.stack([q.q for q in qs])  # (K, M, 3)
    return _karcher_loop(originals.tobytes(), originals.shape, t.tobytes(), lam, alpha, _KARCHER_MAX_ITER, _KARCHER_REL_TOL)


# Eight entries: ``classify`` runs a pipeline's classifier tasks one after the
# other, and each refits the same five folds, so a fold's registration is
# asked for again five registrations after the last time.
@functools.lru_cache(maxsize=8)
def _karcher_loop(
    stack: bytes, shape: tuple[int, ...], grid: bytes, lam: float, alpha: float, max_iter: int, rel_tol: float
) -> KarcherResult:
    """The Karcher iteration of ``karcher_mean`` on the (K, M, 3) SRVF values whose bytes are ``stack``.

    The grid, the iteration cap and the tolerance are arguments, so they key
    the cache with the values; the result's arrays are set read-only.
    """
    originals = np.frombuffer(stack).reshape(shape)
    t = np.frombuffer(grid)

    template = SrvfCurve(t.copy(), np.mean(originals, axis=0))
    variance_history: list[float] = []
    current_warps = np.broadcast_to(uniform_params(t.shape[0]), originals.shape[:2])  # identity warps
    converged = False
    for iterations in range(1, max_iter + 1):
        aligned, warps, rotations = np.empty_like(originals), np.empty(originals.shape[:2]), np.empty((len(originals), 3, 3))
        for k, q in enumerate(originals):
            _, aligned[k], warps[k], rotations[k] = align_step(q, template, current_warps[k], lam, alpha)
        mean_q = np.mean(aligned, axis=0)
        variance = sum(_l2_norm_sq(t, a - mean_q) for a in aligned)
        if variance_history and variance > variance_history[-1] * (1.0 + 1e-12):
            iterations -= 1  # keep the previous, better iterate
            converged = True
            break
        variance_history.append(variance)
        current_warps = warps
        template = SrvfCurve(t.copy(), mean_q)
        state = (aligned, warps, rotations)
        if iterations >= 2 and variance_history[-2] - variance <= rel_tol * variance:
            converged = True
            break
    aligned, warps, rotations = state

    mean_gamma = np.mean(warps, axis=0)
    if np.max(np.abs(mean_gamma - t)) > 1e-12:
        correction = np.interp(t, mean_gamma, t)  # the inverse of the mean warp
        warps = np.stack([np.interp(correction, t, g) for g in warps])
        root = _sqrt_slope(t, correction)
        aligned = np.stack([_warp_values(t, a, correction, root) for a in aligned])
        template = SrvfCurve(t.copy(), np.mean(aligned, axis=0))
    aligned = [SrvfCurve(t.copy(), a) for a in aligned]
    for array in (template.params, template.q, warps, rotations, *(a for c in aligned for a in (c.params, c.q))):
        array.flags.writeable = False
    return KarcherResult(template, aligned, warps, rotations, iterations, converged, variance_history)
