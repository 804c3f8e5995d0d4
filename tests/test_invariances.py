"""The invariance contract of the eight chains: what leaves each chain's scores unchanged today.

Every chain is fitted on 50 specimens of ``SimConfig(seed=3)`` replicate 0
(every fourth specimen, so all four groups are in) and compared with a fit
on the same specimens after one change:

- ``permutation``: the specimens in another order;
- ``similarity``: each specimen moved by its own rotation and translation,
  and scaled by 2.5;
- ``rotation``: every specimen rotated by one common rotation;
- ``transform``: the training specimens passed back through the fitted
  ``transform``, against the training ``scores``.

A property holds when the k95 is the same and the scores agree, column by
column up to sign, to ``TOL`` of the largest score.  The holding gaps
measure at most 6e-12 (GM under a permutation, where GPA sees the
specimens in another order); the smallest failing gap is 4e-4.

``HOLDS`` is the one table of the contract: the suite asserts exactly its
pairs, and README "Invariances" must name the same pairs as holding.  No
test here asserts a property that fails.
"""

import functools
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from curvemorph.landmarks import LandmarkConfiguration
from curvemorph.pipelines import PIPELINE_IDS, fit_pipeline
from curvemorph.simgen import SimConfig, generate_replicate

PROPERTIES = ("permutation", "similarity", "rotation", "transform")
HOLDS = {
    "GM": {"permutation", "similarity", "rotation", "transform"},
    "ArcGM": {"permutation", "transform"},
    "FDM": {"permutation", "transform"},
    "ArcFDM": {"permutation", "transform"},
    "SoftSrvFdm": {"permutation", "similarity", "rotation"},
    "ArcSoftSrvFdm": {"permutation"},
    "ElasticSrvFdm": {"permutation", "similarity", "rotation"},
    "ArcElasticSrvFdm": {"permutation"},
}
TOL = 1e-9
README = Path(__file__).resolve().parents[1] / "README.md"

DATA = generate_replicate(SimConfig(seed=3), 0)[::4]
_rng = np.random.default_rng(0)
PERM = _rng.permutation(len(DATA))
_ROTATIONS = special_ortho_group.rvs(3, size=len(DATA), random_state=_rng)
_SHIFTS = _rng.normal(size=(len(DATA), 3))
_COMMON = special_ortho_group.rvs(3, random_state=_rng)


def _moved(points_of):
    return [LandmarkConfiguration(c.specimen_id, points_of(i, c.points), c.label) for i, c in enumerate(DATA)]


VARIANTS = {
    "permutation": lambda: [DATA[i] for i in PERM],
    "similarity": lambda: _moved(lambda i, p: 2.5 * p @ _ROTATIONS[i].T + _SHIFTS[i]),
    "rotation": lambda: _moved(lambda i, p: p @ _COMMON.T),
}


@functools.cache
def _fit(pid):
    return fit_pipeline(pid, DATA)


def scores_pair(pid: str, prop: str) -> tuple[np.ndarray, np.ndarray]:
    """(expected, observed) scores of one chain under one property, rows in the order of ``DATA``."""
    fitted = _fit(pid)
    if prop == "transform":
        return fitted.scores, fitted.transform(DATA)
    observed = fit_pipeline(pid, VARIANTS[prop]()).scores
    if prop == "permutation":
        return fitted.scores[PERM], observed
    return fitted.scores, observed


def score_gap(expected: np.ndarray, observed: np.ndarray) -> float:
    """Largest score difference, each column's sign matched, relative to the largest score; inf if k95 differs."""
    if expected.shape != observed.shape:
        return float("inf")
    signs = np.sign(np.sum(expected * observed, axis=0))
    signs[signs == 0] = 1
    return float(np.max(np.abs(expected - observed * signs)) / np.max(np.abs(expected)))


@pytest.mark.parametrize("pid,prop", [(pid, prop) for pid in PIPELINE_IDS for prop in PROPERTIES if prop in HOLDS[pid]])
def test_property_holds(pid, prop):
    expected, observed = scores_pair(pid, prop)
    assert expected.shape == observed.shape, f"k95 {expected.shape[1]} -> {observed.shape[1]}"
    assert score_gap(expected, observed) <= TOL


def readme_holds() -> dict[str, set[str]]:
    """The (chain, property) pairs that README "Invariances" marks as holding."""
    section = README.read_text().split("## Invariances", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    header = [cell.strip() for cell in rows[0].strip("|").split("|")]
    table = {}
    for line in rows[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        table[cells[0].strip("`")] = {prop for prop, cell in zip(header[1:], cells[1:]) if cell == "holds"}
    return table


def test_contract_covers_every_chain_and_property():
    assert set(HOLDS) == set(PIPELINE_IDS)
    assert set().union(*HOLDS.values()) <= set(PROPERTIES)
    assert set(VARIANTS) | {"transform"} == set(PROPERTIES)


def test_readme_table_names_the_same_pairs():
    assert readme_holds() == HOLDS
