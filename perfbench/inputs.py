"""Seeded input generators for the benchmark workloads.

The benchmark makes its own inputs so that the program under test only ever
sees landmark CSV files, and so that the same ``--seed`` gives the same
bytes on every commit.  Two families:

* ``helix_replicate``: the paper's simulation design - four helix groups
  (plain; x/y sinusoidal perturbation; z perturbation; x/y phase shift),
  each specimen sampled at warped parameters t**u with u ~ Unif(0.8, 1.2)
  and i.i.d. Gaussian noise at a per-group standard deviation.
* ``cranial_set``: a stand-in for the paper's 41-species kangaroo cranial
  landmarks - 48 unevenly spaced landmarks along a 3D skull outline, four
  diet classes that differ in vault height and zygomatic width, with
  per-specimen proportions, size, pose and digitisation noise.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

HELIX_GROUPS = ("G1", "G2", "G3", "G4")
HELIX_SIZES = (21, 32, 124, 23)
HELIX_SIGMAS = (0.05, 0.05, 0.10, 0.06)

DIETS = ("omnivore", "mixed", "browser", "grazer")
CRANIAL_SIZES = (6, 12, 11, 12)
CRANIAL_LANDMARKS = 48

# Tags that keep the random streams of different generators apart.
_TAG_HELIX, _TAG_CRANIAL = 1, 2

HEADER = ["specimen_id", "label", "landmark_index", "x", "y", "z"]


def scaled_sizes(total: int) -> tuple[int, ...]:
    """Helix group sizes in the paper's 21/32/124/23 proportions, summing to ``total``."""
    raw = np.array(HELIX_SIZES, dtype=float) * total / sum(HELIX_SIZES)
    sizes = np.floor(raw).astype(int)
    for i in np.argsort(raw - sizes)[::-1][: total - sizes.sum()]:
        sizes[i] += 1
    return tuple(int(s) for s in sizes)


def _helix(group: int, t: np.ndarray, phi: float) -> np.ndarray:
    tau = 2.0 * np.pi * t
    x, y, z = np.sin(tau + phi), np.cos(tau + phi), t.copy()
    if group == 2:
        x = x + 0.15 * np.sin(6.0 * np.pi * t)
        y = y + 0.10 * np.cos(4.0 * np.pi * t)
    elif group == 3:
        z = z + 0.20 * np.sin(4.0 * np.pi * t)
    return np.column_stack([x, y, z])


def helix_replicate(seed: int, rep: int, sizes=HELIX_SIZES, n_points: int = 30):
    """One labelled helix replicate as a list of (specimen_id, label, (N, 3) points)."""
    rng = np.random.default_rng([seed, _TAG_HELIX, rep])
    t = np.linspace(0.0, 1.0, n_points)
    out = []
    for g, (size, sigma) in enumerate(zip(sizes, HELIX_SIGMAS), start=1):
        for _ in range(size):
            u = rng.uniform(0.8, 1.2)
            phi = rng.uniform(0.2, 0.5) if g == 4 else 0.0
            pts = _helix(g, t**u, phi) + rng.normal(0.0, sigma, size=(n_points, 3))
            out.append((f"h{rep:02d}s{len(out):03d}", HELIX_GROUPS[g - 1], pts))
    return out


# Landmark positions along the outline: denser on the rostrum and the
# zygomatic arch, as hand-placed cranial landmarks are.
_CRANIAL_S = np.cumsum(np.concatenate([[0.0], 1.0 + 0.6 * np.sin(np.linspace(0.0, 3.0 * np.pi, CRANIAL_LANDMARKS - 1)) ** 2]))
_CRANIAL_S /= _CRANIAL_S[-1]

# Per-class (vault height, zygomatic width).  The classes differ across the
# curve, not along it, so landmarks stay homologous between specimens: the
# regime in which elastic registration finds almost nothing to warp.
_DIET_SHAPE = {
    "omnivore": (0.42, 0.30),
    "mixed": (0.36, 0.36),
    "browser": (0.46, 0.40),
    "grazer": (0.34, 0.44),
}


def _skull(rostrum: float, height: float, width: float, bumps: np.ndarray) -> np.ndarray:
    s = _CRANIAL_S
    x = s * (1.0 + rostrum)
    z = height * np.sin(np.pi * s) ** 1.5 + 0.08 * np.sin(3.0 * np.pi * s) * rostrum
    y = width * np.sin(2.0 * np.pi * s) * s
    pts = np.column_stack([x, y, z])
    for k, amp in enumerate(bumps, start=1):
        pts += amp * np.sin((k + 1) * np.pi * s)[:, None]
    return pts


def _random_rotation(rng: np.random.Generator, max_angle: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * k @ k


def cranial_set(seed: int, rep: int, sizes=CRANIAL_SIZES):
    """A 41-specimen, 48-landmark, four-diet cranial stand-in set."""
    rng = np.random.default_rng([seed, _TAG_CRANIAL, rep])
    out = []
    for diet, size in zip(DIETS, sizes):
        base = np.array((1.0, *_DIET_SHAPE[diet]))
        for _ in range(size):
            shape = base * (1.0 + rng.normal(0.0, 0.04, size=3))
            bumps = rng.normal(0.0, 0.005, size=(3, 3))
            pts = _skull(*shape, bumps)
            pts = pts @ _random_rotation(rng, 0.3) * rng.uniform(0.7, 1.5) + rng.normal(0.0, 0.5, size=3)
            pts += rng.normal(0.0, 0.003, size=pts.shape)
            out.append((f"c{rep}s{len(out):02d}", diet, pts))
    return out


def write_landmarks(path: Path, specimens) -> None:
    """Long-form landmark CSV, as the program reads it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for sid, label, pts in specimens:
            for i, (x, y, z) in enumerate(pts):
                writer.writerow([sid, label, i, repr(float(x)), repr(float(y)), repr(float(z))])
