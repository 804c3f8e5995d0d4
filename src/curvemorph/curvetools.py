"""Discrete 3D curve utilities on (K, N, 3) stacks: derivatives, resampling, arc-length reparameterisation."""

from __future__ import annotations

import numpy as np


class DegenerateCurveError(ValueError):
    """Curves of zero length in a stack; ``rows`` holds their indices and ``fault`` names what is wrong with them."""

    fault = "degenerate curve"

    def __init__(self, rows: list[int]):
        super().__init__(f"{self.fault}: row " + ", ".join(map(str, rows)))
        self.rows = rows


def uniform_params(m: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, m)


def derivative(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Finite-difference velocity of (..., M, 3) values on the grid t: central differences inside, one-sided at the ends."""
    return np.gradient(values, t, axis=-2, edge_order=1)


def _cumulative_chords(values: np.ndarray) -> np.ndarray:
    """(K, M) cumulative polygon lengths of (K, M, 3) curves, each row starting at 0."""
    seg = np.linalg.norm(np.diff(values, axis=1), axis=2)
    return np.concatenate([np.zeros((seg.shape[0], 1)), np.cumsum(seg, axis=1)], axis=1)


def _spaced(total: np.ndarray, m: int) -> np.ndarray:
    """``np.linspace(0.0, total[k], m)`` for every row k, bitwise."""
    x = np.arange(m, dtype=float) * (total / (m - 1))[:, None]
    x[:, -1] = total
    return x


def _searchsorted_rows(xp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(xp[k], x[k], side="right")`` for every row k of two row-wise ascending arrays.

    One stable sort of each row of ``[xp, x]`` merges the two: an ``xp``
    entry equal to an ``x`` entry sorts before it, and the ``x`` entries
    keep their order, so the rank of ``x[k, i]`` less ``i`` counts the
    ``xp[k]`` entries at or below it.
    """
    order = np.argsort(np.concatenate([xp, x], axis=1), axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(order.shape[1]), axis=1)
    return rank[:, xp.shape[1]:] - np.arange(x.shape[1])


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``np.interp(x[k], xp[k], fp[k])`` for every row k, bitwise.

    ``x`` is (K, m); ``xp`` is (K, N), or (N,) shared by every row, and
    ascending, with ``x >= xp[..., :1]``; ``fp`` is (K, N) or (K, N, 3);
    ``j`` is the last index with ``xp[k, j] <= x``.  As in ``np.interp``, a
    point on a node takes that node's value, a point at or past the last
    node takes the last value, and any other point takes
    ``slope * (x - xp[j]) + fp[j]`` with
    ``slope = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j])``.
    """
    k, n = fp.shape[:2]
    inner = j < n - 1
    flat = j + n * np.arange(k)[:, None]
    xi = j if xp.ndim == 1 else flat
    x0, x1 = xp.reshape(-1)[xi], xp.reshape(-1)[xi + inner]
    fp = fp.reshape(k * n, *fp.shape[2:])
    y0, y1 = fp[flat], fp[flat + inner]
    on_node = (x == x0) | ~inner
    if y0.ndim == 3:  # one column per coordinate
        x, x0, x1, on_node = x[..., None], x0[..., None], x1[..., None], on_node[..., None]
    # The zero-width step at the last node gives 0/0; np.where discards it.
    with np.errstate(invalid="ignore"):
        return np.where(on_node, y0, (y1 - y0) / (x1 - x0) * (x - x0) + y0)


def _on_polyline(t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(K, m, 3) points at parameters t (K, m) of the (K, N, 3) polylines on their uniform index grids."""
    params = uniform_params(points.shape[1])
    return _interp_rows(t, params, points, np.searchsorted(params, t, side="right") - 1)


def reparameterise_arclength(points: np.ndarray, m: int) -> np.ndarray:
    """Resample every curve of a (K, N, 3) stack towards constant speed: (K, m, 3), nearly equal chords.

    Each curve sits on the N uniform parameters of [0, 1] and each output on
    m.  The first pass places point i on the input polyline (by monotone
    linear interpolation) where the cumulative arc length reaches i/(m-1) of
    the total; each further round re-spaces the nodes by the arc length of
    the polygon through them, which moves the chords towards equal length.
    A curve stops once no node moves by 1e-14 or more, or when its polygon
    has no length, and every curve stops after 60 rounds: on noisy
    polylines the rounds can stop short of equal chords, and the iteration
    need not converge at all.  Every output point lies on the input
    polyline, and the endpoints are exact.  Curves of zero length raise
    ``DegenerateCurveError`` naming their rows.
    """
    points = np.asarray(points, dtype=float)
    if m < 3:
        raise ValueError("m must be at least 3")
    s = _cumulative_chords(points)
    degenerate = np.flatnonzero(s[:, -1] <= 0.0)
    if degenerate.size:
        raise DegenerateCurveError(degenerate.tolist())

    x = _spaced(s[:, -1], m)
    params = np.broadcast_to(uniform_params(points.shape[1]), s.shape)
    t_nodes = _interp_rows(x, s, params, _searchsorted_rows(s, x) - 1)
    active = np.arange(points.shape[0])
    t, pts = t_nodes, points
    for _ in range(60):
        s_m = _cumulative_chords(_on_polyline(t, pts))
        x = _spaced(s_m[:, -1], m)
        t_new = _interp_rows(x, s_m, t, _searchsorted_rows(s_m, x) - 1)
        no_length = s_m[:, -1] <= 0.0
        t_new[no_length] = t[no_length]
        done = no_length | (np.max(np.abs(t_new - t), axis=1) < 1e-14)
        t_nodes[active] = t_new
        keep = ~done
        active, t, pts = active[keep], t_new[keep], pts[keep]
        if active.size == 0:
            break
    values = _on_polyline(t_nodes, points)
    values[:, 0] = points[:, 0]
    values[:, -1] = points[:, -1]
    return values


def resample_uniform(points: np.ndarray, m: int) -> np.ndarray:
    """Linear interpolation of (K, N, 3) curves onto m uniform parameters in the original parameterisation.

    A stack already on m points is returned as it is.
    """
    points = np.asarray(points, dtype=float)
    if m < 3:
        raise ValueError("m must be at least 3")
    if points.shape[1] == m:
        return points
    values = _on_polyline(np.broadcast_to(uniform_params(m), (points.shape[0], m)), points)
    values[:, 0] = points[:, 0]
    values[:, -1] = points[:, -1]
    return values
