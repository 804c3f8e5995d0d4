"""Landmark configuration algebra: centering, centroid size, Procrustes alignment."""

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
