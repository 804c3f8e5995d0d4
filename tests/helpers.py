"""Shared dataset builders and comparison utilities for the test suite."""

import importlib.util
from pathlib import Path

import numpy as np

from curvemorph.curvetools import uniform_params
from curvemorph.landmarks import LandmarkConfiguration

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def phase_family(n=8, m=30, spread=2 * np.pi, seed=0, power=1.0):
    """Noiseless helices whose phases cover the circle; full-rank-friendly spectra."""
    rng = np.random.default_rng(seed)
    t0 = uniform_params(m)
    tt = t0**power
    configs = []
    for i in range(n):
        phi = spread * i / n
        b = 0.8 + 0.4 * rng.uniform()
        pts = np.stack([np.sin(2 * np.pi * tt + phi), np.cos(2 * np.pi * tt + phi), b * tt], axis=1)
        configs.append(LandmarkConfiguration(f"s{i}", pts, f"g{i % 2}"))
    return configs


def separated_mode_family(n=12, m=80, warp_seed=None):
    """Smooth curves with two well-separated variation modes; optional t**u warps."""
    rng = np.random.default_rng(3)
    t = uniform_params(m)
    base = np.stack(
        [
            np.sin(2 * np.pi * t) + 0.6 * t,
            0.8 * np.cos(2 * np.pi * t) + 0.4 * np.sin(4 * np.pi * t) * t,
            t + 0.5 * np.sin(3 * np.pi * t) * (1 - t),
        ],
        axis=1,
    )
    modes = [
        np.stack([np.sin(np.pi * t), 0.3 * np.cos(2 * np.pi * t), 0.2 * np.sin(2 * np.pi * t)], axis=1),
        np.stack([0.2 * np.sin(3 * np.pi * t), np.sin(2 * np.pi * t) * t, 0.1 * t * (1 - t)], axis=1),
    ]
    scales = [0.5, 0.15]
    wrng = np.random.default_rng(warp_seed) if warp_seed is not None else None
    configs = []
    for i in range(n):
        amp = sum(s * rng.normal() * mode for s, mode in zip(scales, modes))
        tt = t if wrng is None else t ** wrng.uniform(0.8, 1.2)
        vals = np.column_stack([np.interp(tt, t, (base + amp)[:, j]) for j in range(3)])
        configs.append(LandmarkConfiguration(f"s{i}", vals, "g"))
    return configs


def kangaroo_stand_in(n=41, n_landmarks=48, seed=17):
    """Synthetic dataset with the shape of the cranial application: 41 specimens, 48 landmarks, 4 labels."""
    rng = np.random.default_rng(seed)
    t = uniform_params(n_landmarks)
    labels = ["browser"] * 11 + ["grazer"] * 10 + ["mixed"] * 10 + ["omnivore"] * 10
    group_bumps = {
        "browser": 0.0,
        "grazer": 0.25 * np.sin(3 * np.pi * t),
        "mixed": 0.2 * np.cos(2 * np.pi * t),
        "omnivore": 0.3 * t * (1 - t),
    }
    configs = []
    for i, label in enumerate(labels):
        base = np.stack(
            [
                np.sin(2 * np.pi * t) * (1 + 0.1 * rng.normal()),
                np.cos(2 * np.pi * t),
                2.0 * t + group_bumps[label],
            ],
            axis=1,
        )
        pts = 10.0 * (base + rng.normal(0, 0.03, size=base.shape))
        configs.append(LandmarkConfiguration(f"spec{i:02d}", pts, label))
    return configs


def score_rel(sa, sb):
    """Relative L2 difference of score matrices, up to per-component sign."""
    k = min(sa.shape[1], sb.shape[1])
    sa, sb = sa[:, :k], sb[:, :k]
    signs = np.sign(np.sum(sa * sb, axis=0))
    signs[signs == 0] = 1
    return np.linalg.norm(sa - sb * signs) / np.linalg.norm(sa)


def benchmark_helix_replicate(seed=1, rep=0):
    """The benchmark's 200-specimen helix replicate (``perfbench/inputs.py``, as run-linear builds it) as configurations."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    specimens = inputs.helix_replicate(seed, rep, inputs.scaled_sizes(200))
    return [LandmarkConfiguration(sid, points, label) for sid, label, points in specimens]


def bitwise_equal(a, b):
    """Same shape and the same bytes: equal values, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
