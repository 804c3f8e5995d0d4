"""Landmark configuration algebra on (..., N, 3) stacks: centering, centroid size, Procrustes alignment."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LandmarkConfiguration:
    """One specimen's ordered 3D landmark matrix.

    Landmark order is semantically meaningful and must be identical across
    specimens in one dataset.
    """

    specimen_id: str
    points: np.ndarray  # (N, 3)
    label: str | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be N x 3, got shape {pts.shape}")
        if pts.shape[0] < 3:
            raise ValueError("configuration needs at least 3 landmarks")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite landmark coordinates")
        self.points = pts

    @property
    def n_landmarks(self) -> int:
        return self.points.shape[0]


@dataclass
class ProcrustesResult:
    """Output of generalised Procrustes analysis.

    ``aligned`` holds the configurations in input order, each centered at
    the origin with unit centroid size; ``consensus`` is their
    coordinate-wise mean rescaled to unit centroid size in a final pass.
    """

    aligned: np.ndarray  # (n, N, 3)
    consensus: np.ndarray
    centroid_sizes: np.ndarray
    iterations: int
    converged: bool
    degenerate: bool = field(default=False)


class ZeroCentroidSizeError(ValueError):
    """Configurations of zero centroid size in a stack; ``rows`` holds their indices and ``fault`` names what is wrong with them."""

    fault = "zero centroid size"

    def __init__(self, rows: list[int]):
        super().__init__(f"{self.fault}: row " + ", ".join(map(str, rows)))
        self.rows = rows


def center(points: np.ndarray) -> np.ndarray:
    """Translate each (..., N, 3) configuration so its centroid sits at the origin."""
    points = np.asarray(points, dtype=float)
    return points - points.mean(axis=-2, keepdims=True)


def centroid_size(points: np.ndarray) -> np.ndarray:
    """Root summed squared deviations of landmarks from their centroid, per (..., N, 3) configuration; rejects size zero."""
    sizes = np.sqrt(np.sum(center(points) ** 2, axis=(-2, -1)))
    zero = np.flatnonzero(sizes == 0.0)
    if zero.size:
        raise ZeroCentroidSizeError(zero.tolist())
    return sizes


def optimal_rotation(source: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations R (det +1) minimizing ||source @ R - target||_F, per (..., N, 3) configuration pair.

    Both inputs must be centered; their leading axes broadcast.  Reflections
    are excluded; a rank-deficient cross-covariance with an ambiguous
    minimizer is flagged, per pair, in the second return value.
    """
    source = np.asarray(source, dtype=float)
    target = np.asarray(target, dtype=float)
    if source.ndim < 2 or source.shape[-2:] != target.shape[-2:] or source.shape[-2] < 3 or source.shape[-1] != 3:
        raise ValueError("source and target must be equal N x 3 with N >= 3")
    h = np.swapaxes(source, -1, -2) @ target
    u, s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(u @ vt))
    u[..., -1] *= np.where(d == 0, 1.0, d)[..., None]  # u @ diag(1, 1, d): no reflection
    r = u @ vt
    # Ambiguity: smallest singular value (after sign fix) indistinguishable
    # from its neighbour or zero means several rotations tie.
    degenerate = s[..., -1] <= 1e-12 * np.maximum(s[..., 0], 1e-300)
    return r, degenerate


def superimpose(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Full Procrustes fit (rotation + scale + translation) of each (..., N, 3) source onto its target."""
    target = np.asarray(target, dtype=float)
    src_c = center(source)
    tgt_c = center(target)
    r, _ = optimal_rotation(src_c, tgt_c)
    denom = np.sum(src_c**2, axis=(-2, -1))
    beta = np.divide(np.sum((src_c @ r) * tgt_c, axis=(-2, -1)), denom, out=np.ones_like(denom), where=denom > 0)
    return beta[..., None, None] * src_c @ r + target.mean(axis=-2, keepdims=True)


def _normalize(points: np.ndarray) -> np.ndarray:
    c = center(points)
    return c / centroid_size(c)[..., None, None]


def _canonical_frame(consensus: np.ndarray) -> np.ndarray:
    """Rotation fixing GPA's free global orientation.

    Axes are anchored on the consensus end-to-end chord and the first
    landmark's offset from the centroid, both stable features of ordered
    landmark curves.  Falls back to the identity for degenerate geometry.
    """
    chord = consensus[-1] - consensus[0]
    norm = np.linalg.norm(chord)
    if norm < 1e-9:
        return np.eye(3)
    u1 = chord / norm
    v = consensus[0] - consensus.mean(axis=0)
    v = v - (v @ u1) * u1
    norm_v = np.linalg.norm(v)
    if norm_v < 1e-9:
        return np.eye(3)
    u2 = v / norm_v
    return np.column_stack([u1, u2, np.cross(u1, u2)])


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

    sizes = centroid_size(points)
    shapes = _normalize(points)

    consensus = _normalize(shapes[0])
    converged = False
    iterations = 0
    degenerate = False
    for iterations in range(1, 101):
        r, degen = optimal_rotation(shapes, consensus)
        degenerate = degenerate or bool(degen.any())
        shapes = shapes @ r
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
    """Center, scale to unit centroid size, and rotate each (..., N, 3) configuration onto a reference.

    Used to project held-out specimens onto a trained consensus without
    letting them influence it.
    """
    normalized = _normalize(points)
    r, _ = optimal_rotation(normalized, center(reference))
    return normalized @ r
