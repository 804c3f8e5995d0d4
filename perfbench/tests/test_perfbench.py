"""Fast tests of the benchmark itself: tiny runs of every workload, and
corrupted outputs that each correctness check must reject.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

# Small stand-ins for the four workloads: same commands, tiny inputs.
TINY = {
    "run-linear": run.Workload("run-linear", "run", ("GM", "ArcGM", "FDM", "ArcFDM"),
                               lambda seed: {f"rep{r:02d}": inputs.helix_replicate(seed, r, (4, 4, 8, 4)) for r in range(2)}),
    "run-elastic": run.Workload("run-elastic", "run", ("SoftSrvFdm", "ElasticSrvFdm"),
                                lambda seed: {"rep00": inputs.helix_replicate(seed, 0, (3, 3, 4, 2))}),
    "classify-cv": run.Workload("classify-cv", "classify", ("GM", "FDM"),
                                lambda seed: {"rep00": inputs.helix_replicate(seed, 0, (10, 10, 10, 10))}),
    "classify-cranial": run.Workload("classify-cranial", "classify", ("GM", "SoftSrvFdm"),
                                     lambda seed: {f"cranial{r}": inputs.cranial_set(seed, r, (5, 5, 5, 5)) for r in range(2)}),
}


@pytest.fixture(autouse=True)
def one_setup_repeat(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_checks_clean(name, tmp_path):
    result = run.measure(TINY[name], seed=3, seconds=0.01, trace=0, work=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY[name].tasks(TINY[name].make_inputs(3)))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_program_failure_counts_every_task_as_failed(tmp_path):
    broken = run.Workload("broken", "run", ("NoSuchPipeline",), TINY["run-elastic"].make_inputs)
    result = run.measure(broken, seed=3, seconds=0.01, trace=0, work=tmp_path)
    assert result["failed"] == result["attempted"] == 1 and not result["correct"]


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    result = run.measure(TINY["classify-cranial"], seed=3, seconds=0.01, trace=1, work=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["srvf.estimate_warp.calls"] > 0 and values["pipelines.fit_pipeline.SoftSrvFdm.s"] > 0
    assert values["pipelines.fit_pipeline.FDM.s"] == 0.0  # FDM does not run in this workload


def test_inputs_depend_on_the_seed_only():
    a, b, c = (inputs.helix_replicate(s, 0, (3, 3, 3, 3)) for s in (5, 5, 6))
    assert all(np.array_equal(x[2], y[2]) for x, y in zip(a, b))
    assert not np.array_equal(a[0][2], c[0][2])
    assert inputs.scaled_sizes(200) == inputs.HELIX_SIZES and sum(inputs.scaled_sizes(37)) == 37


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run-linear", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# corrupted outputs


def _cli(argv):
    from curvemorph import cli

    assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("run")
    reps = {"rep00": inputs.helix_replicate(7, 0, (6, 6, 12, 6))}
    inputs.write_landmarks(base / "rep00.csv", reps["rep00"])
    _cli(["run", "--data", str(base / "rep00.csv"), "--out", str(base / "out"), "--pipelines", "GM,ArcGM,FDM"])
    return base / "out", reps


@pytest.fixture(scope="module")
def classify_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("classify")
    specimens = inputs.helix_replicate(7, 0, (10, 10, 10, 10))
    inputs.write_landmarks(base / "rep00.csv", specimens)
    _cli(["classify", "--data", str(base / "rep00.csv"), "--out", str(base / "out"), "--pipelines", "GM",
          "--classifiers", "lda,multinomial,svm", "--svg"])
    return base / "out", specimens


def _copy(out: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "out"
    shutil.copytree(out, dst)
    return dst


def _rewrite(path: Path, edit) -> None:
    header, rows = checks.read_rows(path)
    rows = edit(rows)
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


def _run_problems(out, reps):
    return [msg for _, msg in checks.check_run(out, ("GM", "ArcGM", "FDM"), reps)]


def _classify_problems(out, specimens):
    return [msg for _, msg in checks.check_classify(out, {"rep00": specimens}, ("GM",), ("lda", "multinomial", "svm"), svg=True)]


def test_clean_outputs_pass(run_outputs, classify_outputs):
    assert _run_problems(*run_outputs) == []
    assert _classify_problems(*classify_outputs) == []


def test_scaled_score_column_is_caught(run_outputs, tmp_path):
    out = _copy(run_outputs[0], tmp_path)
    _rewrite(out / "scores_FDM.csv", lambda rows: [r[:3] + [repr(1.01 * float(r[3]))] + r[4:] for r in rows])
    assert any("covariance" in m for m in _run_problems(out, run_outputs[1]))


def test_wrong_component_count_is_caught(run_outputs, tmp_path):
    out = _copy(run_outputs[0], tmp_path)
    _rewrite(out / "scores_GM.csv", lambda rows: [r[:-1] for r in rows])
    assert any("scores kept" in m for m in _run_problems(out, run_outputs[1]))


def test_perturbed_gm_eigenvalue_is_caught(run_outputs, tmp_path):
    out = _copy(run_outputs[0], tmp_path)

    def bump(rows):
        rows[1][2] = repr(float(rows[1][2]) * (1 + 1e-6))
        return rows

    _rewrite(out / "scree_GM.csv", bump)
    assert any("independent GPA" in m for m in _run_problems(out, run_outputs[1]))


def test_arc_originals_off_the_input_polyline_are_caught(run_outputs, tmp_path):
    out = _copy(run_outputs[0], tmp_path)
    name = next(p.name for p in out.glob("recon_ArcGM_*.csv"))

    def shift(rows):
        rows[5][1] = repr(float(rows[5][1]) + 1e-3)
        return rows

    _rewrite(out / name, shift)
    assert any("off the input polyline" in m for m in _run_problems(out, run_outputs[1]))


def test_chord_spread_tells_equal_chords_from_unequal():
    angles = np.linspace(0.0, np.pi, 30)
    arc = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(30)])
    assert checks.chord_spread(arc) <= checks.CHORD_RTOL
    assert checks.chord_spread(arc[[0, 1, 3, 4, 5]]) > checks.CHORD_RTOL


def test_accuracy_above_one_is_caught(classify_outputs, tmp_path):
    out = _copy(classify_outputs[0], tmp_path)

    def bad(rows):
        rows[0][4] = "1.5"
        return rows

    _rewrite(out / "cv_report.csv", bad)
    assert any("outside [0, 1]" in m for m in _classify_problems(out, classify_outputs[1]))


def test_accuracy_that_is_no_whole_count_is_caught(classify_outputs, tmp_path):
    out = _copy(classify_outputs[0], tmp_path)

    def bad(rows):
        rows[0][4] = repr(float(rows[0][4]) - 0.01)
        return rows

    _rewrite(out / "cv_report.csv", bad)
    problems = _classify_problems(out, classify_outputs[1])
    assert any("whole count" in m for m in problems) and any("cv_summary" in m for m in problems)


def test_summary_below_majority_share_is_caught(classify_outputs, tmp_path):
    out = _copy(classify_outputs[0], tmp_path)
    _rewrite(out / "cv_report.csv", lambda rows: [r[:4] + ["0.25"] for r in rows])
    _rewrite(out / "cv_summary.csv", lambda rows: [r[:2] + ["0.25", "0"] for r in rows])
    assert any("majority-class share" in m for m in _classify_problems(out, classify_outputs[1]))


def test_svg_missing_a_marker_is_caught(classify_outputs, tmp_path):
    out = _copy(classify_outputs[0], tmp_path)
    svg = out / "pc_pairs_GM.svg"
    lines = svg.read_text().splitlines()
    first_marker = next(i for i, line in enumerate(lines) if line.startswith("<circle"))
    svg.write_text("\n".join(lines[:first_marker] + lines[first_marker + 1:]) + "\n")
    assert any("circles" in m for m in _classify_problems(out, classify_outputs[1]))


def test_warp_checks():
    t = np.linspace(0.0, 1.0, 30)
    rng = np.random.default_rng(0)
    q_source = rng.normal(size=(30, 3))
    gamma = t**1.3
    q_target = checks._interp(gamma, t, q_source) * np.sqrt(checks._slope(gamma, t))[:, None]
    assert checks.check_warp(t, q_target, q_source, gamma, 0.0) is None
    assert checks.check_warp(t, q_target, q_source, t, 0.0) is None  # the identity is always allowed
    bent = gamma.copy()
    bent[10], bent[11] = bent[11], bent[10]
    assert "strictly increasing" in checks.check_warp(t, q_target, q_source, bent, 0.0)
    assert "0 to 0" in checks.check_warp(t, q_target, q_source, gamma * 0.99, 0.0)
    assert "exceeds the identity" in checks.check_warp(t, q_source, q_source, gamma, 0.0)


def test_textbook_lda_matches_program_and_disagreement_is_caught():
    from curvemorph.classify import lda_fit, lda_predict

    rng = np.random.default_rng(1)
    y = np.repeat(np.array(["a", "b", "c"]), 20)
    x = rng.normal(size=(60, 4)) + (np.searchsorted(["a", "b", "c"], y)[:, None] * np.array([1.0, 0.5, 0.0, 0.0]))
    test = rng.normal(size=(15, 4))
    model = lda_fit(x, y)
    predicted = lda_predict(model, test)
    own, _ = checks.textbook_lda(x, y, test)
    assert np.array_equal(own, predicted)

    task = ("rep00", "GM", "lda")

    class Rec:
        elastic_tasks = warps = karcher_runs = []
        lda_fits = {id(model): (model, x, y)}
        lda_predictions = [((task,), model, test, np.where(predicted == "a", "b", "a"))]

    assert [(t, "textbook LDA" in msg) for t, msg in run.traced_checks(Rec)] == [(task, True)]


def _aligned_pair(seed: int):
    """A source SRVF and a target that is the source under a known warp."""
    t = np.linspace(0.0, 1.0, 30)
    q_source = np.random.default_rng(seed).normal(size=(30, 3))
    gamma = t**1.6
    return t, checks._interp(gamma, t, q_source) * np.sqrt(checks._slope(gamma, t))[:, None], q_source


def test_lattice_warp_recovers_a_known_warp():
    t, q_target, q_source = _aligned_pair(2)
    program, own = checks.warp_gains(t, q_target, q_source, t**1.6, 0.0)
    assert own > 0.5 * checks.warp_objective(t, q_target, q_source, t, 0.0)
    assert program >= own * checks.WARP_GAIN_SHARE


def _warp_record(task, t, q_target, q_source, gamma):
    from curvemorph.srvf import SrvfCurve, WarpingFunction

    return ((task,), (SrvfCurve(t, q_target), SrvfCurve(t, q_source), 0.0), {}, WarpingFunction(t, gamma))


def test_identity_warps_fail_against_the_own_search():
    task = ("rep00", "ElasticSrvFdm")
    records = [_warp_record(task, *_aligned_pair(s), _aligned_pair(s)[0]) for s in range(5)]  # identity warps

    class Rec:
        elastic_tasks = karcher_runs = lda_predictions = []
        lda_fits = {}
        warps = records

    problems = run.traced_checks(Rec)
    assert [t for t, _ in problems] == [task] and "own lattice search" in problems[0][1]
    Rec.warps = [_warp_record(task, *_aligned_pair(s), _aligned_pair(s)[0] ** 1.6) for s in range(5)]
    assert run.traced_checks(Rec) == []


def test_unaligned_karcher_result_is_caught():
    t, q_target, q_source = _aligned_pair(3)
    rng = np.random.default_rng(4)
    qs = np.stack([checks._interp(t**p, t, q_target) * np.sqrt(checks._slope(t**p, t))[:, None]
                   for p in rng.uniform(0.6, 1.6, size=8)])
    assert checks.check_karcher(t, qs, qs, 0.0, 1.0) is not None  # the unwarped SRVFs
    aligned = checks.one_pass_alignment(t, qs, 0.0, 1.0)
    assert checks.check_karcher(t, qs, aligned, 0.0, 1.0) is None


def test_elastic_task_without_a_recorded_registration_is_caught():
    task = ("rep00", "SoftSrvFdm")

    class Rec:
        warps = karcher_runs = lda_predictions = []
        lda_fits = {}
        elastic_tasks = [task]

    assert [t for t, _ in run.traced_checks(Rec)] == [task]


def test_ragged_scores_file_is_counted(run_outputs, tmp_path):
    out = _copy(run_outputs[0], tmp_path)
    assert checks.ragged_score_rows(out) == 0
    _rewrite(out / "scores_FDM.csv", lambda rows: [r[:-1] for r in rows[:2]] + rows[2:])
    assert checks.ragged_score_rows(out) == 2


def test_traced_check_failure_counts_the_task_that_made_the_warp(tmp_path, monkeypatch):
    real, seen = checks.check_warp, []

    def fail_first(*args):
        seen.append(1)
        return "corrupted" if len(seen) == 1 else real(*args)

    monkeypatch.setattr(checks, "check_warp", fail_first)
    result = run.measure(TINY["run-elastic"], seed=3, seconds=0.01, trace=1, work=tmp_path)
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 2
