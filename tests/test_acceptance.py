"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The simulation-backed
criteria share module-scoped fixtures so the replicate runs happen once.
"""

import csv
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import curvemorph
from curvemorph.classify import cross_validate, multinomial_gradient, multinomial_objective
from curvemorph.cli import main, write_landmark_csv
from curvemorph.curvetools import reparameterise_arclength, uniform_params
from curvemorph.fpca import mfpca, mfpca_reconstruct, trapezoid_weights, ufpca
from curvemorph.landmarks import gpa
from curvemorph.pca import pca_fit
from curvemorph.pipelines import PipelineSettings, run_pipeline
from curvemorph.simgen import SimConfig, generate_replicate
from curvemorph.srvf import SrvfCurve, WarpingFunction, estimate_warp, from_srvf, to_srvf

from helpers import kangaroo_stand_in, score_rel, separated_mode_family
from oracles import SampledCurve, elastic_distance_sq, warp_action

SEED = 20260811
N_REPS = 10
PAPER_K95 = {"FDM": 3, "GM": 9}
PAPER_MSE = {
    "FDM": 0.00016,
    "SoftSrvFdm": 0.00204,
    "GM": 0.01994,
    "ArcSoftSrvFdm": 0.00192,
    "ArcGM": 0.02089,
}


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def simulation_runs():
    """Per-replicate pipeline outputs for the simulation-backed criteria."""
    config = SimConfig(seed=SEED)
    pipelines = ["GM", "FDM", "SoftSrvFdm", "ArcGM", "ArcSoftSrvFdm"]
    outputs = {pid: [] for pid in pipelines}
    elapsed = {pid: 0.0 for pid in pipelines}
    for rep in range(N_REPS):
        data = generate_replicate(config, rep)
        for pid in pipelines:
            start = time.perf_counter()
            outputs[pid].append(run_pipeline(pid, data))
            elapsed[pid] += time.perf_counter() - start
    return outputs, elapsed


def test_criterion_1_variance_component_counts(simulation_runs):
    outputs, elapsed = simulation_runs
    fdm = np.array([o.k95 for o in outputs["FDM"]])
    gm = np.array([o.k95 for o in outputs["GM"]])
    share = float(np.mean(fdm < gm))
    runtime = elapsed["FDM"] + elapsed["GM"]
    detail = (
        f"mean k95 FDM {fdm.mean():.2f} (need <= 5, values {fdm.tolist()}), "
        f"GM {gm.mean():.2f} (need >= 7), FDM < GM in {share:.0%} of replicates "
        f"(need >= 80%); paper values FDM={PAPER_K95['FDM']}, GM={PAPER_K95['GM']}; "
        f"runtime {runtime:.0f}s (< 120s)"
    )
    ok = fdm.mean() <= 5 and gm.mean() >= 7 and share >= 0.8 and runtime < 120
    assert report("criterion 1 (95%-variance counts)", ok, detail)


def test_criterion_2_reconstruction_mse(simulation_runs):
    outputs, elapsed = simulation_runs
    means = {pid: float(np.mean([o.mse_per_specimen.mean() for o in outs])) for pid, outs in outputs.items()}
    ordering = means["FDM"] < means["SoftSrvFdm"] < means["GM"] and means["ArcSoftSrvFdm"] < means["ArcGM"]
    window_results = {
        pid: PAPER_MSE[pid] / 5 <= means[pid] <= PAPER_MSE[pid] * 5 for pid in PAPER_MSE
    }
    runtime = sum(elapsed.values())
    detail = (
        "means "
        + ", ".join(f"{pid}={means[pid]:.5f}" for pid in PAPER_MSE)
        + f"; ordering FDM<Soft<GM and ArcSoft<ArcGM: {ordering}"
        + "; factor-5 windows: "
        + ", ".join(f"{pid}:{'ok' if ok else 'MISS'}" for pid, ok in window_results.items())
        + f"; runtime {runtime:.0f}s (< 600s)"
    )
    ok = ordering and all(window_results.values()) and runtime < 600
    assert report("criterion 2 (reconstruction MSE)", ok, detail)


def test_criterion_3_phase_robust_classification():
    start = time.perf_counter()
    config = SimConfig(seed=SEED)
    accuracies = {pid: [] for pid in ("GM", "ElasticSrvFdm", "SoftSrvFdm")}
    for rep in range(3):
        data = generate_replicate(config, rep)
        for pid in accuracies:
            result = cross_validate(data, pid, "lda", seed=rep)
            accuracies[pid].append(result.mean_accuracy)
    means = {pid: float(np.mean(a)) for pid, a in accuracies.items()}
    gap_elastic = means["ElasticSrvFdm"] - means["GM"]
    gap_soft = means["SoftSrvFdm"] - means["GM"]
    runtime = time.perf_counter() - start
    detail = (
        f"mean LDA accuracy GM {means['GM']:.4f}, elastic {means['ElasticSrvFdm']:.4f} "
        f"(gap {gap_elastic:+.4f}), soft {means['SoftSrvFdm']:.4f} (gap {gap_soft:+.4f}); "
        f"need both gaps >= +0.03; runtime {runtime:.0f}s (< 900s)"
    )
    ok = gap_elastic >= 0.03 and gap_soft >= 0.03 and runtime < 900
    assert report("criterion 3 (phase-robust classification)", ok, detail)


def test_criterion_4_full_cli_flow_on_conforming_dataset(tmp_path):
    configs = kangaroo_stand_in()
    data = tmp_path / "specimens.csv"
    write_landmark_csv(data, configs)

    run_out = tmp_path / "run"
    assert main(["run", "--data", str(data), "--out", str(run_out), "--seed", "1"]) == 0
    classify_out = tmp_path / "classify"
    assert main(["classify", "--data", str(data), "--out", str(classify_out), "--seed", "1"]) == 0

    pipelines = ["GM", "ArcGM", "FDM", "ArcFDM", "SoftSrvFdm", "ArcSoftSrvFdm", "ElasticSrvFdm", "ArcElasticSrvFdm"]
    expected_run = ["k95.csv", "mse.csv", "manifest.json"]
    expected_run += [f"scores_{p}.csv" for p in pipelines]
    expected_run += [f"scree_{p}.csv" for p in pipelines]
    expected_run += [f"recon_{p}_{configs[0].specimen_id}.csv" for p in pipelines]
    missing = [name for name in expected_run if not (run_out / name).is_file()]
    missing += [name for name in ("cv_report.csv", "cv_summary.csv", "manifest.json") if not (classify_out / name).is_file()]

    with open(classify_out / "cv_report.csv") as fh:
        n_rows = len(list(csv.DictReader(fh)))
    detail = (
        f"41 specimens x 48 landmarks, 4 labels: run + classify emitted "
        f"{len(expected_run) + 3 - len(missing)}/{len(expected_run) + 3} declared tables"
        + (f", missing {missing}" if missing else "")
        + f"; cv_report rows {n_rows} (expect 120)"
    )
    ok = not missing and n_rows == 8 * 3 * 5
    assert report("criterion 4 (conforming-dataset CLI flow)", ok, detail)


class TestCriterion5Properties:
    def test_unit_speed(self):
        t = uniform_params(300)
        curve = SampledCurve(t, np.stack([np.sin(2 * np.pi * t**2), np.cos(2 * np.pi * t**2), t], axis=1))
        out = reparameterise_arclength(curve.values[None], 120)[0]
        chords = np.linalg.norm(np.diff(out, axis=0), axis=1)
        dev = float(np.max(np.abs(chords - chords.mean())) / chords.mean())
        assert report("criterion 5a (unit speed)", dev < 0.02, f"chord-length deviation {dev:.4f} (< 0.02, M=120)")

    def test_srvf_roundtrip(self):
        t = uniform_params(200)
        curve = SampledCurve(t, np.stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), t], axis=1))
        back = from_srvf(to_srvf(curve.values, curve.params), curve.params) + curve.values[0]
        err = float(np.max(np.abs(back - curve.values)))
        assert report("criterion 5b (SRVF roundtrip)", err < 5e-3, f"max pointwise error {err:.2e} (< 5e-3, M=200)")

    def test_gpa_invariance(self):
        from scipy.stats import special_ortho_group

        rng = np.random.default_rng(4)
        base = [rng.normal(size=(9, 3)) for _ in range(6)]
        moved = [
            rng.uniform(0.5, 2.0) * pts @ special_ortho_group.rvs(3, random_state=rng) + rng.normal(size=3) * 5
            for pts in base
        ]
        ra = gpa(np.stack(base))
        rb = gpa(np.stack(moved))

        def pairwise(result):
            pts = result.aligned
            return np.array([np.linalg.norm(pts[i] - pts[j]) for i in range(6) for j in range(i + 1, 6)])

        dev = float(np.max(np.abs(pairwise(ra) - pairwise(rb))))
        assert report("criterion 5c (GPA invariance)", dev < 1e-8, f"pairwise distance change {dev:.2e} (< 1e-8)")

    def test_mfpca_roundtrip_orthonormality_scores(self):
        grid = uniform_params(25)
        rng = np.random.default_rng(5)
        values = rng.normal(size=(40, 25, 3))
        models = [ufpca(values[:, :, p], grid, 25) for p in range(3)]
        model = mfpca(models)
        w = trapezoid_weights(grid)

        recon = mfpca_reconstruct(model, model.scores, model.eigenvalues.shape[0])
        roundtrip = max(
            float(np.sqrt(sum(np.sum(w * (recon[i, :, p] - values[i, :, p]) ** 2) for p in range(3))))
            for i in range(40)
        )
        k = model.eigenvalues.shape[0]
        gram = np.zeros((k, k))
        for p in range(3):
            gram += (model.basis[..., p] * w) @ model.basis[..., p].T
        ortho = float(np.max(np.abs(gram - np.eye(k))))
        cov = model.scores.T @ model.scores / (40 - 1)
        score_cov = float(np.max(np.abs(cov - np.diag(model.eigenvalues))))
        ok = roundtrip < 1e-6 and ortho < 1e-5 and score_cov < 1e-6
        assert report(
            "criterion 5d (MFPCA roundtrip/orthonormality/scores)",
            ok,
            f"roundtrip {roundtrip:.2e} (< 1e-6), orthonormality {ortho:.2e} (< 1e-5), score cov {score_cov:.2e} (< 1e-6)",
        )

    def test_multinomial_gradient(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 4))
        labels = rng.choice(["a", "b", "c"], size=30)
        classes = np.unique(labels)
        y = (labels[:, None] == classes[None, :]).astype(float)
        worst = 0.0
        for _ in range(5):
            w = rng.normal(scale=0.4, size=(4, 3))
            b = rng.normal(scale=0.4, size=3)
            gw, gb = multinomial_gradient(w, b, x, y)
            eps = 1e-6
            i, j = rng.integers(4), rng.integers(3)
            wp, wm = w.copy(), w.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            fd = (multinomial_objective(wp, b, x, y) - multinomial_objective(wm, b, x, y)) / (2 * eps)
            worst = max(worst, abs(fd - gw[i, j]) / max(abs(fd), 1e-12))
        assert report("criterion 5e (multinomial gradient)", worst < 1e-5, f"max relative deviation {worst:.2e} (< 1e-5)")

    def test_elastic_phase_invariance(self):
        settings = PipelineSettings(n_points=80)
        base = run_pipeline("ElasticSrvFdm", separated_mode_family(), settings)
        warped = run_pipeline("ElasticSrvFdm", separated_mode_family(warp_seed=99), settings)
        rel = score_rel(base.scores, warped.scores)
        assert report("criterion 5f (elastic phase invariance)", rel < 0.05, f"score change {rel:.4f} relative L2 (< 0.05)")

    def test_determinism_across_runs_and_processes(self, tmp_path):
        def commands(workdir: Path) -> list[list[str]]:
            sim, out = workdir / "sim", workdir / "out"
            return [
                ["simulate", "--seed", "5", "--n-reps", "2", "--n-points", "12", "--out", str(sim)],
                ["run", "--data", str(sim), "--out", str(out), "--seed", "5", "--n-points", "12",
                 "--pipelines", "GM,FDM,SoftSrvFdm"],
            ]

        def digest(workdir: Path) -> dict:
            digests = {}
            for path in sorted(list((workdir / "sim").glob("*.csv")) + list((workdir / "out").glob("*.csv"))):
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            return digests

        for name in ("a", "b"):
            for argv in commands(tmp_path / name):
                assert main(argv) == 0
        # The third run shares no state with this process: a fresh
        # interpreter with a different string-hash seed.
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
        src = str(Path(curvemorph.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for argv in commands(tmp_path / "c"):
            subprocess.run([sys.executable, "-m", "curvemorph.cli", *argv], env=env, check=True, capture_output=True)

        runs = [digest(tmp_path / name) for name in ("a", "b", "c")]
        ok = runs[0] == runs[1] == runs[2]
        assert report(
            "criterion 5g (determinism)",
            ok,
            f"{len(runs[0])} CSVs byte-identical across two in-process runs and a fresh process with another hash seed",
        )


class TestCriterion6Oracles:
    def test_pca_matches_random_search(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(8, 4)) @ np.diag([1.5, 0.8, 0.4, 0.2])
        # two landmarks per configuration, the last two coordinates constant
        model = pca_fit(np.concatenate([features, np.zeros((8, 2))], axis=1).reshape(8, 2, 3))
        centered = features - features.mean(axis=0)
        best = 0.0
        for _ in range(10_000):
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            best = max(best, float(np.var(centered @ v, ddof=1)))
        gap = model.eigenvalues[0] - best
        ok = gap >= -1e-12 and gap <= 1e-3
        assert report(
            "criterion 6a (PCA vs random search)",
            ok,
            f"eigen-solver variance {model.eigenvalues[0]:.6f} vs best of 10000 random projections {best:.6f} (gap {gap:.2e} in [0, 1e-3])",
        )

    def test_dp_beats_random_warps(self):
        rng = np.random.default_rng(8)
        m = 20
        t = uniform_params(m)
        q1 = SrvfCurve(t, np.stack([np.sin(np.pi * t), np.cos(2 * np.pi * t), t], axis=1))
        q2 = SrvfCurve(t, np.stack([np.sin(np.pi * t**1.3), 0.9 * np.cos(2 * np.pi * t**1.3), t**1.3], axis=1))
        warp = estimate_warp(q1, q2, lam=0.0)
        dp_objective = elastic_distance_sq(q1, warp_action(q2, warp))
        best_random = np.inf
        for _ in range(10_000):
            increments = rng.uniform(0.05, 1.0, size=m - 1)
            gamma = np.concatenate([[0.0], np.cumsum(increments)])
            gamma /= gamma[-1]
            candidate = WarpingFunction(t, gamma)
            best_random = min(best_random, elastic_distance_sq(q1, warp_action(q2, candidate)))
        ok = dp_objective <= best_random + 1e-12
        assert report(
            "criterion 6b (DP vs random warps)",
            ok,
            f"DP objective {dp_objective:.6f} <= best of 10000 random monotone warps {best_random:.6f} (M=20)",
        )
