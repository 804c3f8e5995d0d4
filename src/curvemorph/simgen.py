"""Four-group helix simulation with per-specimen time warps and Gaussian noise.

Group 1 is a plain helix; Group 2 adds sinusoidal x/y perturbations; Group 3
perturbs z; Group 4 phase-shifts x/y.  Every specimen is sampled at warped
parameters t**u, u ~ Unif(0.8, 1.2), with i.i.d. coordinate noise at a
group-specific standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from curvemorph.landmarks import LandmarkConfiguration

GROUP_LABELS = ("G1", "G2", "G3", "G4")

# Sub-stream tags so every random draw is addressable by
# (seed, replicate, specimen, purpose); replicates parallelize without
# sharing generator state.
_DRAW_WARP, _DRAW_NOISE, _DRAW_PHASE = 0, 1, 2


@dataclass
class SimConfig:
    group_sizes: tuple[int, int, int, int] = (21, 32, 124, 23)
    sigmas: tuple[float, float, float, float] = (0.05, 0.05, 0.10, 0.06)
    n_points: int = 30
    n_reps: int = 50
    seed: int = 0
    phase_range: tuple[float, float] = (0.2, 0.5)
    warp_range: tuple[float, float] = (0.8, 1.2)

    def __post_init__(self):
        if len(self.group_sizes) != 4 or any(g <= 0 for g in self.group_sizes):
            raise ValueError("group_sizes must be 4 positive counts")
        if any(s < 0 for s in self.sigmas):
            raise ValueError("sigmas must be nonnegative")
        if self.n_points < 3:
            raise ValueError("n_points must be at least 3")
        if self.n_reps < 1:
            raise ValueError("n_reps must be at least 1")

    @property
    def n_specimens(self) -> int:
        return sum(self.group_sizes)


def group_curve(group: int, t: np.ndarray | float, phi: float = 0.0) -> np.ndarray:
    """Noiseless coordinates of one group's helix at parameters t."""
    t = np.asarray(t, dtype=float)
    tau = 2.0 * np.pi * t
    if group == 1:
        x, y, z = np.sin(tau), np.cos(tau), t
    elif group == 2:
        x = np.sin(tau) + 0.15 * np.sin(6.0 * np.pi * t)
        y = np.cos(tau) + 0.10 * np.cos(4.0 * np.pi * t)
        z = t
    elif group == 3:
        x, y = np.sin(tau), np.cos(tau)
        z = t + 0.20 * np.sin(4.0 * np.pi * t)
    elif group == 4:
        x, y, z = np.sin(tau + phi), np.cos(tau + phi), t
    else:
        raise ValueError(f"invalid group id {group}")
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def _spec_rng(config: SimConfig, rep: int, specimen: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, rep, specimen, purpose])


def generate_replicate(config: SimConfig, rep: int) -> list[LandmarkConfiguration]:
    """One replicate of labelled specimens, deterministic per (seed, rep, specimen)."""
    t = np.linspace(0.0, 1.0, config.n_points)
    specimens = []
    idx = 0
    for group, (size, sigma) in enumerate(zip(config.group_sizes, config.sigmas), start=1):
        for _ in range(size):
            lo, hi = config.warp_range
            u = _spec_rng(config, rep, idx, _DRAW_WARP).uniform(lo, hi)
            phi = 0.0
            if group == 4:
                phi = _spec_rng(config, rep, idx, _DRAW_PHASE).uniform(*config.phase_range)
            points = group_curve(group, t**u, phi)
            if sigma > 0.0:
                noise = _spec_rng(config, rep, idx, _DRAW_NOISE).normal(0.0, sigma, size=points.shape)
                points = points + noise
            specimens.append(
                LandmarkConfiguration(
                    specimen_id=f"r{rep:03d}s{idx:03d}",
                    points=points,
                    label=GROUP_LABELS[group - 1],
                )
            )
            idx += 1
    return specimens
