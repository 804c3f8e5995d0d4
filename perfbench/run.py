"""curvemorph benchmark: four CLI workloads, checked outputs, optional per-layer trace.

Run from the repository root (no install step; ``src/`` goes on the path):

    python3 perfbench/run.py --workload run-linear --seed 1 --seconds 10 --trace 0

With ``--trace 0`` every CLI call is its own process, timed from start to
exit, and the run reports the end-to-end metrics ``setup_s``, ``wall_s`` and
``peak_rss_mb``.  With ``--trace 1`` the same command runs inside this
process with every public function of the traced modules wrapped in a span
(see ``tracing.py``), and the run reports the per-layer metrics.  Either
way the workload repeats in whole rounds until ``--seconds`` is used up
(at least one round), every output is checked (``checks.py``), and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

An operation is one (replicate, pipeline) task of ``run`` or one
(replicate, pipeline, classifier) task of ``classify``; it counts as failed
when the program lists it under ``failures`` in ``manifest.json`` or when
one of its outputs fails a check.  A failed check also makes ``correct``
false.
"""

from __future__ import annotations

import os

# One BLAS thread, for this process and every CLI process it starts: the
# arrays are small, and a second BLAS thread only adds CPU contention on a
# two-core machine (set before numpy is first imported).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse
import contextlib
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

SETUP_REPEATS = 8  # half before the workload's rounds, half after
CLI_TIMEOUT_S = 150.0
CLASSIFIERS = ("lda", "multinomial", "svm")

# Metric names and units, as BENCHMARK.json declares them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "classify"
    pipelines: tuple[str, ...]
    make_inputs: Callable[[int], dict]  # seed -> {replicate name: [(id, label, points)]}

    def argv(self, data: Path, out: Path, seed: int) -> list[str]:
        common = ["--data", str(data), "--out", str(out), "--pipelines", ",".join(self.pipelines), "--seed", str(seed)]
        if self.command == "run":
            return ["run", *common]
        return ["classify", *common, "--classifiers", ",".join(CLASSIFIERS), "--svg"]

    def tasks(self, replicates) -> list[tuple[str, ...]]:
        if self.command == "run":
            return [(rep, pid) for rep in replicates for pid in self.pipelines]
        return [(rep, pid, clf) for rep in replicates for pid in self.pipelines for clf in CLASSIFIERS]

    def check(self, out: Path, replicates: dict) -> list:
        if self.command == "run":
            return checks.check_run(out, self.pipelines, replicates)
        return checks.check_classify(out, replicates, self.pipelines, CLASSIFIERS, svg=True)


def _helix_set(n_reps: int, n_specimens: int):
    sizes = inputs.scaled_sizes(n_specimens)
    return lambda seed: {f"rep{r:02d}": inputs.helix_replicate(seed, r, sizes) for r in range(n_reps)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-linear", "run", ("GM", "ArcGM", "FDM", "ArcFDM"), _helix_set(6, 200)),
        Workload("run-elastic", "run", ("SoftSrvFdm", "ElasticSrvFdm"), _helix_set(12, 20)),
        Workload("classify-cv", "classify", ("GM", "FDM", "ArcFDM"), _helix_set(1, 200)),
        Workload("classify-cranial", "classify", ("GM", "SoftSrvFdm"),
                 lambda seed: {f"cranial{r}": inputs.cranial_set(seed, r) for r in range(2)}),
    )
}


def write_inputs(replicates: dict, data_dir: Path) -> Path:
    """Write one CSV per replicate; return what ``--data`` should name."""
    data_dir.mkdir(parents=True)
    for rep, specimens in replicates.items():
        inputs.write_landmarks(data_dir / f"{rep}.csv", specimens)
    if len(replicates) == 1:
        return data_dir / f"{next(iter(replicates))}.csv"
    return data_dir


# ---------------------------------------------------------------------------
# running the CLI


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_cli(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one CLI process; return (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "curvemorph.cli", *argv],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own rusage (getrusage(RUSAGE_CHILDREN)
            # would give the maximum over every child so far).
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no CLI process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def failed_tasks(out: Path, exit_code: int, tasks) -> set:
    """Tasks the program reports as failed (all of them when it gave no manifest)."""
    if exit_code not in (0, 3, 4):
        return set(tasks)
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError):
        return set(tasks)
    return {tuple(entry.split(": ", 1)[0].split("/")) for entry in manifest.get("failures", [])}


def snapshot(out: Path) -> dict[str, bytes]:
    """Every output file's bytes (none if the program made no output directory)."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


# ---------------------------------------------------------------------------
# per-layer trace


FIT_PIPELINE_IDS = ("GM", "ArcGM", "FDM", "ArcFDM", "SoftSrvFdm", "ElasticSrvFdm")


class Recorder:
    """What the traced run keeps beyond span times: counters read from
    return values, and the inputs and outputs the traced-only checks need,
    each with the tasks it belongs to."""

    def __init__(self, tracer, canonical_id, workload: Workload, replicates: dict):
        self.fit_s = dict.fromkeys(FIT_PIPELINE_IDS, 0.0)
        self.fit_keys: list = []
        self.karcher_runs: list = []  # (tasks, args, kwargs, result)
        self.gpa_iterations: list = []
        self.unequal_chords: list = []  # per arclength_reparameterise call: chords not yet equal
        self.multinomial: list = []  # (iterations, converged)
        self.warps: list = []  # (tasks, args, kwargs, result)
        self.lda_fits: dict = {}  # id(model) -> (model, x, y)
        self.lda_predictions: list = []  # (tasks, model, x, predicted)
        self.tasks: tuple = ()  # the tasks of the run_pipeline or cross_validate call under way
        self.elastic_tasks = [t for t in workload.tasks(replicates) if "Srv" in t[1]]
        self._rep_of = {sid: rep for rep, specimens in replicates.items() for sid, _, _ in specimens}
        self._workload = workload
        self._canonical_id = canonical_id
        tracer.on_call("pipelines.run_pipeline", lambda a, k: self._enter(a[1], a[0], None))
        tracer.on_call("classify.cross_validate", lambda a, k: self._enter(a[0], a[1], a[2]))
        tracer.on_return("pipelines.fit_pipeline", self._fit)
        tracer.on_return("srvf.karcher_mean", lambda a, k, r, s: self.karcher_runs.append((self.tasks, a, k, r)))
        tracer.on_return("curvetools.arclength_reparameterise",
                         lambda a, k, r, s: self.unequal_chords.append(checks.chord_spread(r.values) > checks.CHORD_RTOL))
        tracer.on_return("landmarks.gpa", lambda a, k, r, s: self.gpa_iterations.append(r.iterations))
        tracer.on_return("classify.multinomial_fit", lambda a, k, r, s: self.multinomial.append((r.n_iter, r.converged)))
        tracer.on_return("srvf.estimate_warp", lambda a, k, r, s: self.warps.append((self.tasks, a, k, r)))
        tracer.on_return("classify.lda_fit", lambda a, k, r, s: self.lda_fits.__setitem__(id(r), (r, a[0], a[1])))
        tracer.on_return("classify.lda_predict", lambda a, k, r, s: self.lda_predictions.append((self.tasks, a[0], a[1], r)))

    def _enter(self, configs, pipeline_id, classifier):
        """A ``run`` task is (replicate, pipeline); under ``classify``, the
        ``--svg`` refit belongs to every classifier's task of its pipeline."""
        rep, pid = self._rep_of[configs[0].specimen_id], self._canonical_id(pipeline_id)
        if self._workload.command == "run":
            self.tasks = ((rep, pid),)
        else:
            self.tasks = tuple((rep, pid, clf) for clf in CLASSIFIERS if classifier in (None, clf))

    def _fit(self, args, kwargs, result, seconds):
        pid = self._canonical_id(args[0])
        self.fit_s[pid] = self.fit_s.get(pid, 0.0) + seconds
        self.fit_keys.append((pid, tuple(c.specimen_id for c in args[1])))


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer, rec: Recorder, wall: float, out: Path) -> dict[str, float]:
    def self_s(name):
        return tracer.self_s.get(name, 0.0)

    def calls(name):
        return float(tracer.calls.get(name, 0))

    kept = [not np.array_equal(r.gamma, r.params) for _, _, _, r in rec.warps]
    values = {}
    for name in PER_LAYER:
        layer_fn, _, field = name.rpartition(".")
        if name.startswith("pipelines.fit_pipeline.") and layer_fn.count(".") == 2:
            values[name] = rec.fit_s.get(layer_fn.rsplit(".", 1)[1], 0.0)
        elif field == "s":
            values[name] = self_s(layer_fn)
        elif field == "calls":
            values[name] = calls(layer_fn)
    values["srvf.estimate_warp.non_identity_ratio"] = _mean(kept)
    values["srvf.karcher_mean.iterations"] = _mean([r.iterations for *_, r in rec.karcher_runs])
    values["srvf.karcher_mean.converged_ratio"] = _mean([r.converged for *_, r in rec.karcher_runs])
    values["pipelines.fit_pipeline.distinct_ratio"] = len(set(rec.fit_keys)) / len(rec.fit_keys) if rec.fit_keys else 0.0
    values["curvetools.arclength_reparameterise.unequal_chord_ratio"] = _mean(rec.unequal_chords)
    values["landmarks.gpa.iterations"] = _mean(rec.gpa_iterations)
    values["classify.multinomial_fit.iterations"] = _mean([i for i, _ in rec.multinomial])
    values["classify.multinomial_fit.converged_ratio"] = _mean([c for _, c in rec.multinomial])
    values["cli.bytes_written"] = float(sum(len(b) for b in snapshot(out).values()))
    values["cli.ragged_score_rows"] = float(checks.ragged_score_rows(out))
    values["trace.wall_s"] = wall
    return values


# How many recorded warps and Karcher means the traced checks re-derive with
# the benchmark's own warp search, spread evenly over the first round.
WARPS_CHECKED = 200
KARCHER_CHECKED = 8


def _evenly(items: list, n: int) -> list:
    return [items[i] for i in sorted({int(i) for i in np.linspace(0, len(items) - 1, min(n, len(items)))})] if items else []


def _lam(args, kwargs) -> float:
    return kwargs.get("lam", args[2] if len(args) > 2 else 0.0)


def traced_checks(rec: Recorder) -> list:
    """Checks on values only the traced run can see: warps, Karcher means and
    LDA predictions, each charged to the tasks it was computed for."""
    problems = []
    for task in rec.elastic_tasks:  # a registration the trace cannot see cannot be checked
        if not any(task in tasks for tasks, *_ in rec.karcher_runs) or not any(task in tasks for tasks, *_ in rec.warps):
            problems.append((task, "an elastic pipeline ran, but no srvf.karcher_mean or srvf.estimate_warp call was recorded"))
    by_task: dict = {}
    for tasks, args, kwargs, result in rec.warps:
        q_target, q_source = args[0], args[1]
        msg = checks.check_warp(q_target.params, q_target.q, q_source.q, result.gamma, _lam(args, kwargs))
        for task in tasks or (None,):
            by_task.setdefault(task, []).append(msg)
    for task, msgs in by_task.items():
        bad = [m for m in msgs if m]
        if bad:
            problems.append((task, f"{len(bad)} of {len(msgs)} warps fail: {bad[0]}"))
    gains: dict = {}
    for tasks, args, kwargs, result in _evenly(rec.warps, WARPS_CHECKED):
        q_target, q_source = args[0], args[1]
        program, own = checks.warp_gains(q_target.params, q_target.q, q_source.q, result.gamma, _lam(args, kwargs))
        for task in tasks or (None,):
            total = gains.setdefault(task, [0.0, 0.0])
            total[0] += program
            total[1] += own
    for task, (program, own) in gains.items():
        if own > 0.0 and program < checks.WARP_GAIN_SHARE * own:
            problems.append((task, f"sampled warps cut the objective by {program:.4g}, the own lattice search by {own:.4g}"))
    for tasks, args, kwargs, result in _evenly(rec.karcher_runs, KARCHER_CHECKED):
        qs = args[0]
        msg = checks.check_karcher(qs[0].params, np.stack([q.q for q in qs]), np.stack([a.q for a in result.aligned]),
                                   kwargs.get("lam", 0.0), kwargs.get("alpha", 1.0))
        problems += [(task, msg) for task in tasks or (None,) if msg]
    disagree: dict = {}
    for tasks, model, test_x, predicted in rec.lda_predictions:
        _, train_x, train_y = rec.lda_fits[id(model)]
        own, gap = checks.textbook_lda(np.asarray(train_x), np.asarray(train_y), np.atleast_2d(test_x))
        clear = gap > 1e-6  # near-ties may go either way under the program's tiny ridge
        for task in tasks or (None,):
            n, total = disagree.get(task, (0, 0))
            disagree[task] = (n + int(np.sum((own != predicted) & clear)), total + int(np.sum(clear)))
    for task, (n, total) in disagree.items():
        if n:
            problems.append((task, f"textbook LDA disagrees with the program on {n} of {total} held-out predictions"))
    return problems


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def traced_rounds(argv_for, seconds: float, tasks, workload: Workload, replicates: dict):
    """Run rounds in-process under the tracer; return per-round metrics, outputs, failures, checks."""
    sys.path.insert(0, str(SRC))
    from curvemorph import cli
    from curvemorph.pipelines import canonical_pipeline_id
    from tracing import Tracer

    per_round, outs, failures, first_rec = [], [], [], None
    start = time.perf_counter()
    while True:
        out, argv = argv_for(len(per_round))
        tracer = Tracer()
        rec = Recorder(tracer, canonical_pipeline_id, workload, replicates)
        tracer.install()
        try:
            t0 = time.perf_counter()
            with _quiet():
                code = cli.main(argv)
            wall = time.perf_counter() - t0
        except Exception as exc:  # a crash inside the program fails every task of the round
            print(f"traced round raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code, wall = -1, time.perf_counter() - t0
        finally:
            tracer.uninstall()
        per_round.append(layer_metrics(tracer, rec, wall, out))
        outs.append(out)
        failures.append(failed_tasks(out, code, tasks))
        if first_rec is None:
            first_rec, first_tracer = rec, tracer
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(per_round)) > seconds:
            break
    return per_round, outs, failures, traced_checks(first_rec), first_tracer.summary()


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still removes its work directory and stops its CLI process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "curvemorph" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'curvemorph'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload: Workload, seed: int, seconds: float, trace: int, work: Path) -> dict:
    """Make the inputs, run whole rounds for ``seconds``, check the outputs; return the result."""
    replicates = workload.make_inputs(seed)
    data = write_inputs(replicates, work / "data")
    tasks = workload.tasks(replicates)
    log = work / "cli-stderr.log"

    def argv_for(i: int):
        out = work / f"round{i:02d}"
        return out, workload.argv(data, out, seed)

    metrics = {}
    if trace:
        per_round, outs, failures, problems, summary = traced_rounds(argv_for, seconds, tasks, workload, replicates)
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": statistics.median(r[name] for r in per_round), "unit": unit}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"workload": workload.name, "seed": seed, "rounds": len(per_round),
                                          "metrics": metrics, "first_round": summary}, indent=1) + "\n")
    else:
        run_cli(["--help"], log)  # fills the bytecode cache, which users' later runs reuse
        setup = [run_cli(["--help"], log)[0] for _ in range(SETUP_REPEATS // 2)]
        walls, rss, outs, failures = [], [], [], []
        start = time.perf_counter()
        while True:
            out, argv = argv_for(len(walls))
            wall, peak_mb, code = run_cli(argv, log)
            walls.append(wall)
            rss.append(peak_mb)
            outs.append(out)
            failures.append(failed_tasks(out, code, tasks))
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(walls)) > seconds:
                break
        setup += [run_cli(["--help"], log)[0] for _ in range(SETUP_REPEATS - len(setup))]
        problems = []
        values = {"setup_s": setup, "wall_s": walls, "peak_rss_mb": rss}
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit} for name, unit in END_TO_END.items()}

    problems = workload.check(outs[0], replicates) + problems
    first = snapshot(outs[0])
    for i, out in enumerate(outs[1:], start=1):
        if snapshot(out) != first:
            problems.append((None, f"round {i} wrote different outputs than round 0"))
    failed = sum(len(f) for f in failures)
    for task in {p[0] for p in problems if p[0] is not None and p[0] not in failures[0]}:
        failed += len(outs)  # the outputs of every round are byte-identical to round 0's
    for task, msg in problems:
        print(f"check failed{'' if task is None else ' ' + '/'.join(task)}: {msg}", file=sys.stderr)
    if failed and log.is_file():
        sys.stderr.write(log.read_text()[-4000:])
    return {"correct": not problems, "attempted": len(tasks) * len(outs), "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
