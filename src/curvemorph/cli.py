"""Command-line surface: simulate, run, classify, report.

Datasets travel as long-form landmark CSVs
(``specimen_id,label,landmark_index,x,y,z``), one file per replicate.
Numeric output uses 17 significant digits so values round-trip exactly;
every command writes a ``manifest.json`` recording its seed and settings.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 partial
pipeline failure.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from curvemorph import __version__
from curvemorph.classify import CLASSIFIER_NAMES, N_FOLDS, canonical_classifier, check_labels, cross_validate, fit_predict, stratified_kfold
from curvemorph.landmarks import LandmarkConfiguration
from curvemorph.pipelines import PIPELINE_IDS, PipelineSettings, canonical_pipeline_id, run_pipeline
from curvemorph.simgen import SimConfig, generate_replicate
from curvemorph.srvf import KarcherResult


class InputError(Exception):
    """Malformed or missing input; maps to exit code 2."""


def fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (np.integer,)):
        return str(int(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


# ---------------------------------------------------------------------------
# landmark CSV format

LANDMARK_HEADER = ["specimen_id", "label", "landmark_index", "x", "y", "z"]


def write_landmark_csv(path: Path, configs: list[LandmarkConfiguration]) -> None:
    rows = []
    for cfg in configs:
        for i, (x, y, z) in enumerate(cfg.points):
            rows.append([cfg.specimen_id, cfg.label if cfg.label is not None else "", i, x, y, z])
    write_csv(path, LANDMARK_HEADER, rows)


def _csv_rows(path: Path, header: list[str] | None = None):
    """(line number, row) of each non-blank row of a CSV file, read as it streams.

    The line number is the physical line the row starts on, so a quoted
    field that spans lines moves the rows after it.  A given ``header`` must
    be the first row and is not yielded.  A header mismatch, or a file that
    cannot be opened or decoded, is an ``InputError``.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if header is not None and next(reader, None) != header:
                raise InputError(f"{path}: expected header {','.join(header)}")
            start = reader.line_num + 1
            for row in reader:
                if row:
                    yield start, row
                start = reader.line_num + 1
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_landmark_csv(path: Path) -> list[LandmarkConfiguration]:
    by_specimen: dict[str, tuple[str, list[tuple[int, float, float, float]]]] = {}
    for lineno, row in _csv_rows(path, LANDMARK_HEADER):
        if len(row) != 6:
            raise InputError(f"{path}:{lineno}: expected 6 fields")
        sid, label, idx, x, y, z = row
        try:
            entry = (int(idx), float(x), float(y), float(z))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if sid not in by_specimen:
            by_specimen[sid] = (label, [])
        elif label != by_specimen[sid][0]:
            raise InputError(f"{path}:{lineno}: specimen {sid}: label {label!r} differs from {by_specimen[sid][0]!r}")
        by_specimen[sid][1].append(entry)

    configs = []
    for sid, (label, entries) in by_specimen.items():
        entries.sort(key=lambda e: e[0])
        indices = [e[0] for e in entries]
        if indices != list(range(len(entries))):
            raise InputError(f"{path}: specimen {sid}: landmark_index not contiguous from 0")
        pts = np.array([[e[1], e[2], e[3]] for e in entries])
        try:
            configs.append(LandmarkConfiguration(sid, pts, label or None))
        except ValueError as exc:
            raise InputError(f"{path}: specimen {sid}: {exc}") from exc
    if not configs:
        raise InputError(f"{path}: no specimens")
    n = configs[0].n_landmarks
    if any(c.n_landmarks != n for c in configs):
        raise InputError(f"{path}: specimens disagree on landmark count")
    return configs


def read_labels_csv(path: Path) -> dict[str, str]:
    labels = {}
    for lineno, row in _csv_rows(path, ["specimen_id", "label"]):
        if len(row) != 2:
            raise InputError(f"{path}:{lineno}: expected 2 fields")
        if row[0] in labels:
            raise InputError(f"{path}:{lineno}: specimen {row[0]} listed twice")
        labels[row[0]] = row[1]
    return labels


def apply_labels(configs: list[LandmarkConfiguration], labels: dict[str, str]) -> list[LandmarkConfiguration]:
    missing = [c.specimen_id for c in configs if c.specimen_id not in labels]
    if missing:
        raise InputError(f"label file does not cover specimens: {', '.join(missing)}")
    return [LandmarkConfiguration(c.specimen_id, c.points, labels[c.specimen_id]) for c in configs]


# ---------------------------------------------------------------------------
# configuration plumbing

def _parse_bool(raw: str) -> bool:
    value = raw.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/0, true/false or yes/no, got {raw!r}")
    return value in ("1", "true", "yes")


_ALL = ("simulate", "run", "classify", "report")
_FIT = ("run", "classify")

# Config-file key -> (parser, subcommands that take it as a --flag, help).
# Each key is also the flag's name, with "-" for "_"; order is --help order.
_OPTIONS = {
    "seed": (int, _ALL, None),
    "out": (str, _ALL, "output directory"),
    "n_reps": (int, ("simulate",), None),
    "data": (str, _FIT, "CSV file(s), directory, or glob; comma-separated"),
    "labels": (str, _FIT, "specimen_id,label CSV joined onto the data"),
    "pipelines": (str, _FIT, "comma-separated pipeline ids or 'all'"),
    "classifiers": (str, ("classify",), "comma-separated: lda,multinomial,svm or 'all'"),
    "specimen": (int, ("run",), "specimen index for reconstruction tables"),
    "svg": (_parse_bool, ("classify",), "emit best-pair scatter SVGs"),
    "n_points": (int, ("simulate", "run", "classify"), None),
    "n_basis": (int, _FIT, None),
    "variance_threshold": (float, _FIT, None),
    "alpha_soft": (float, _FIT, None),
    "lambda_soft": (float, _FIT, None),
    "m_target": (int, _FIT, None),
}


def read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value")
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in _OPTIONS:
                    raise InputError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _OPTIONS[key][0](raw.strip())
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    return values


def _merged(args: argparse.Namespace) -> dict:
    """Config-file values overridden by any flag given on the command line."""
    values = read_config_file(args.config) if args.config else {}
    for key in _OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values.setdefault("seed", 0)
    return values


def settings_from(values: dict) -> PipelineSettings:
    names = [f.name for f in fields(PipelineSettings)]
    try:
        return PipelineSettings(**{k: values[k] for k in names if k in values})
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _resolve_names(values: dict, key: str, valid: tuple[str, ...], canonical) -> list[str]:
    """The comma-separated names under ``key`` through ``canonical``; 'all' (the default) gives ``valid``."""
    raw = values.get(key, "all")
    if raw.strip().lower() == "all":
        return list(valid)
    try:
        names = [canonical(name.strip()) for name in raw.split(",") if name.strip()]
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not names:
        raise InputError(f"no {key} in {raw!r}; valid: {', '.join(valid)} or 'all'")
    return names


def _resolve_data(values: dict) -> list[Path]:
    raw = values.get("data")
    if not raw:
        raise InputError("no input data given (--data)")
    paths: list[Path] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        p = Path(token)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.csv")))
        elif any(ch in token for ch in "*?["):
            paths.extend(sorted(Path(m) for m in glob.glob(token)))
        else:
            paths.append(p)
    if not paths:
        raise InputError(f"no dataset files match {raw!r}")
    for p in paths:
        if not p.is_file():
            raise InputError(f"dataset file not found: {p}")
    return paths


def _out_dir(values: dict) -> Path:
    out = values.get("out")
    if not out:
        raise InputError("no output directory given (--out)")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {path}: {exc}") from exc
    return path


def write_manifest(
    out: Path, command: str, values: dict, outputs: list[str], failures: list[str], warnings: list[str]
) -> None:
    manifest = {
        "tool": f"curvemorph {__version__}",
        "command": command,
        "seed": values.get("seed", 0),
        "settings": {k: v for k, v in sorted(values.items()) if k != "out"},
        "outputs": sorted(outputs),
        "failures": failures,
        "warnings": warnings,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(
    out: Path, command: str, values: dict, outputs: list[str], failures: list[str], warnings: list[str], wrote: bool,
    all_failed: str, done: str,
) -> int:
    """Write the manifest; exit 0 without failures, 4 when some output was written, else 3.

    Warnings go to the manifest and to standard error; they do not change the exit code.
    """
    write_manifest(out, command, values, outputs, failures, warnings)
    if warnings:
        print("warnings:\n  " + "\n  ".join(warnings), file=sys.stderr)
    if failures:
        print(f"{'partial failure' if wrote else all_failed}:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 4 if wrote else 3
    print(done)
    return 0


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args) -> int:
    values = _merged(args)
    try:
        config = SimConfig(
            n_points=values.get("n_points", 30),
            n_reps=values.get("n_reps", 50),
            seed=values["seed"],
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    out = _out_dir(values)
    outputs = []
    for rep in range(config.n_reps):
        path = out / f"replicate_{rep:03d}.csv"
        write_landmark_csv(path, generate_replicate(config, rep))
        outputs.append(path.name)
    write_manifest(out, "simulate", values | {"sim_config": asdict(config)}, outputs, [], [])
    print(f"wrote {len(outputs)} replicate(s) to {out}")
    return 0


def _load_replicates(values: dict) -> list[tuple[str, list[LandmarkConfiguration]]]:
    labels = read_labels_csv(Path(values["labels"])) if values.get("labels") else None
    paths = _resolve_data(values)
    first_by_name: dict[str, Path] = {}
    for path in paths:
        first = first_by_name.setdefault(path.stem, path)
        if first is not path:
            raise InputError(f"replicate name {path.stem!r} given twice: {first} and {path}")
    replicates = []
    for path in paths:
        configs = read_landmark_csv(path)
        if labels is not None:
            configs = apply_labels(configs, labels)
        replicates.append((path.stem, configs))
    return replicates


def _run_tasks(tasks, worker) -> tuple[dict, list[str]]:
    """Evaluate independent tasks in order: the successful results keyed by task, and the failures.

    A task whose worker raises ``ValueError`` has no result; it is listed
    in the failures, in task order, as ``key/parts: message``.
    """
    results, failures = {}, []
    for key in tasks:
        try:
            results[key] = worker(*key)
        except ValueError as exc:
            failures.append(f"{'/'.join(key)}: {exc}")
    return results, failures


def _karcher_warning(name: str, karcher: KarcherResult | None) -> list[str]:
    """The warning for a fit whose Karcher mean did not converge; none for a converged one, or a fit without registration."""
    if karcher is None or karcher.converged:
        return []
    return [f"{name}: Karcher mean stopped at {karcher.iterations} iterations without converging"]


def cmd_run(args) -> int:
    values = _merged(args)
    settings = settings_from(values)
    pipelines = _resolve_names(values, "pipelines", PIPELINE_IDS, canonical_pipeline_id)
    replicates = _load_replicates(values)
    specimen_idx = values.get("specimen", 0)
    first_rep, first_configs = replicates[0]
    if not 0 <= specimen_idx < len(first_configs):
        raise InputError(f"specimen {specimen_idx} out of range: {first_rep} has specimens 0..{len(first_configs) - 1}")
    out = _out_dir(values)

    tasks = [(rep_name, pid) for rep_name, _ in replicates for pid in pipelines]
    data_by_rep = dict(replicates)

    def worker(rep_name, pid):
        return run_pipeline(pid, data_by_rep[rep_name], settings)

    results, failures = _run_tasks(tasks, worker)
    warnings = [warning for key, fitted in results.items() for warning in _karcher_warning("/".join(key), fitted.karcher)]

    outputs = []
    k95_rows, mse_rows = [], []
    for pid in pipelines:
        fits = [(rep_name, configs, results[(rep_name, pid)]) for rep_name, configs in replicates if (rep_name, pid) in results]
        if not fits:
            continue
        k95_rows.append([pid, float(np.mean([fitted.k95 for _, _, fitted in fits]))])
        mse_means = np.array([fitted.mse_per_specimen.mean() for _, _, fitted in fits])
        mse_rows.append([pid, mse_means.mean(), mse_means.std(ddof=1) if len(fits) > 1 else 0.0])

        score_rows, scree_rows = [], []
        for rep_name, configs, fitted in fits:
            for i, cfg in enumerate(configs):
                score_rows.append([rep_name, cfg.specimen_id, cfg.label or ""] + list(fitted.scores[i]))
            cum = np.cumsum(fitted.eigenvalues) / fitted.eigenvalues.sum()
            for j, (ev, cf) in enumerate(zip(fitted.eigenvalues, cum), start=1):
                scree_rows.append([rep_name, j, ev, cf])
        k_cols = max(len(r) - 3 for r in score_rows)
        write_csv(out / f"scores_{pid}.csv", ["replicate", "specimen_id", "label"] + [f"score_{j+1}" for j in range(k_cols)], score_rows)
        write_csv(out / f"scree_{pid}.csv", ["replicate", "component", "eigenvalue", "cumulative_fraction"], scree_rows)
        outputs += [f"scores_{pid}.csv", f"scree_{pid}.csv"]

        if (first_rep, pid) in results:
            fitted = results[(first_rep, pid)]
            pairs = zip(fitted.targets[specimen_idx], fitted.reconstructions[specimen_idx])
            rows = [[i, *target, *recon] for i, (target, recon) in enumerate(pairs)]
            name = f"recon_{pid}_{first_configs[specimen_idx].specimen_id}.csv"
            write_csv(out / name, ["landmark_index", "orig_x", "orig_y", "orig_z", "recon_x", "recon_y", "recon_z"], rows)
            outputs.append(name)

    if k95_rows:
        write_csv(out / "k95.csv", ["pipeline", "k95"], k95_rows)
        write_csv(out / "mse.csv", ["pipeline", "mean", "sd"], mse_rows)
        outputs += ["k95.csv", "mse.csv"]

    return _finish(out, "run", values, outputs, failures, warnings, bool(k95_rows), "all pipelines failed",
                   f"wrote results for {len(pipelines)} pipeline(s) to {out}")


def _best_adjacent_pair(scores: np.ndarray, labels: np.ndarray, seed: int) -> tuple[int, float] | None:
    """(j, accuracy) of the adjacent score pair (j, j+1) with the best LDA CV accuracy; None when LDA fits no fold of any pair."""
    best = None
    folds = stratified_kfold(labels, seed=seed)
    for j in range(scores.shape[1] - 1):
        pair = scores[:, j : j + 2]
        accs = []
        for f in range(N_FOLDS):
            tr, te = folds != f, folds == f
            try:
                pred, _ = fit_predict("lda", pair[tr], labels[tr], pair[te])
                accs.append(float(np.mean(pred == labels[te])))
            except ValueError:
                continue
        acc = float(np.mean(accs)) if accs else None
        if acc is not None and (best is None or acc > best[1]):
            best = j, acc
    return best


def _write_scatter_svg(path: Path, pair: np.ndarray, labels: np.ndarray, title: str) -> None:
    width, height, margin = 640, 480, 50
    x, y = pair[:, 0], pair[:, 1]
    spans = []
    for v in (x, y):
        lo, hi = float(v.min()), float(v.max())
        pad = 0.05 * (hi - lo) if hi > lo else 1.0
        spans.append((lo - pad, hi - lo + 2 * pad))
    classes = sorted(set(labels))
    palette = ["#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02"]
    colors = {c: palette[i % len(palette)] for i, c in enumerate(classes)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2}" y="20" text-anchor="middle">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for xi, yi, lbl in zip(x, y, labels):
        px = margin + (xi - spans[0][0]) / spans[0][1] * (width - 2 * margin)
        py = height - margin - (yi - spans[1][0]) / spans[1][1] * (height - 2 * margin)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{colors[lbl]}" fill-opacity="0.8"/>')
    for i, c in enumerate(classes):
        # The label as XML character data, escaped as xml.sax.saxutils.escape does; importing that
        # module (or html) would keep 7 MB (or 0.4 MB) more resident in every run for three replacements.
        text = str(c).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<circle cx="{width - margin - 100}" cy="{margin + 18 * i}" r="4" fill="{colors[c]}"/>')
        parts.append(f'<text x="{width - margin - 90}" y="{margin + 18 * i + 4}">{text}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def cmd_classify(args) -> int:
    values = _merged(args)
    settings = settings_from(values)
    pipelines = _resolve_names(values, "pipelines", PIPELINE_IDS, canonical_pipeline_id)
    classifiers = _resolve_names(values, "classifiers", CLASSIFIER_NAMES, canonical_classifier)
    replicates = _load_replicates(values)
    seed = values["seed"]

    for rep_name, configs in replicates:
        if any(c.label is None for c in configs):
            raise InputError(f"{rep_name}: specimens without labels; provide --labels")
        try:
            check_labels(np.array([c.label for c in configs]))
        except ValueError as exc:
            raise InputError(f"{rep_name}: {exc}") from exc
    out = _out_dir(values)

    tasks = [(rep, pid, clf) for rep, _ in replicates for pid in pipelines for clf in classifiers]
    data_by_rep = dict(replicates)

    def worker(rep_name, pid, clf):
        return cross_validate(data_by_rep[rep_name], pid, clf, seed=seed, settings=settings)

    results, failures = _run_tasks(tasks, worker)

    rows, summary, warnings = [], [], []
    for key, report in results.items():
        name = "/".join(key)
        if report.unconverged_folds:
            warnings.append(f"{name}: {report.unconverged_folds} of {N_FOLDS} fold fits did not converge")
        if report.unconverged_karcher_folds:
            count = report.unconverged_karcher_folds
            warnings.append(f"{name}: Karcher mean stopped without converging in {count} of {N_FOLDS} fold fits")
    for pid in pipelines:
        for clf in classifiers:
            reports = [(rep_name, results[rep_name, pid, clf]) for rep_name, _ in replicates if (rep_name, pid, clf) in results]
            for rep_name, report in reports:
                rows += [[rep_name, pid, clf, f, acc] for f, acc in enumerate(report.per_fold_accuracy)]
            if reports:
                accs = np.array([report.mean_accuracy for _, report in reports])
                summary.append([pid, clf, accs.mean(), accs.std(ddof=1) if accs.size > 1 else 0.0])

    outputs = []
    if rows:
        write_csv(out / "cv_report.csv", ["replicate", "pipeline", "classifier", "fold", "accuracy"], rows)
        write_csv(out / "cv_summary.csv", ["pipeline", "classifier", "mean_accuracy", "sd_accuracy"], summary)
        outputs += ["cv_report.csv", "cv_summary.csv"]

    if values.get("svg"):
        rep_name, configs = replicates[0]
        labels = np.array([c.label for c in configs])
        for pid in pipelines:
            name = f"{rep_name}/{pid}/svg"
            try:
                fitted = run_pipeline(pid, configs, settings)
            except ValueError as exc:
                warnings.append(f"{name}: {exc}")
                continue
            warnings += _karcher_warning(name, fitted.karcher)
            if fitted.k95 < 2:
                warnings.append(f"{name}: k95 = {fitted.k95}; a component pair needs at least 2 components")
                continue
            best = _best_adjacent_pair(fitted.scores, labels, seed)
            if best is None:
                warnings.append(f"{name}: LDA fits no fold of any adjacent component pair")
                continue
            j, acc = best
            pair = fitted.scores[:, j : j + 2]
            write_csv(
                out / f"pc_pairs_{pid}.csv",
                ["specimen_id", "label", f"score_{j+1}", f"score_{j+2}"],
                [[c.specimen_id, c.label, pair[i, 0], pair[i, 1]] for i, c in enumerate(configs)],
            )
            title = f"{pid}: components {j + 1} vs {j + 2} (LDA CV {acc:.3f})"
            _write_scatter_svg(out / f"pc_pairs_{pid}.svg", pair, labels, title)
            outputs += [f"pc_pairs_{pid}.csv", f"pc_pairs_{pid}.svg"]

    return _finish(out, "classify", values, outputs, failures, warnings, bool(rows), "all classification tasks failed",
                   f"wrote cross-validation report to {out}")


def cmd_report(args) -> int:
    values = _merged(args)
    out = Path(values.get("out") or ".")
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        raise InputError(f"no manifest.json in {out}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("failures", []), list):
        raise InputError(f"{manifest_path}: expected a JSON object whose failures are a list")
    if not isinstance(manifest.get("warnings", []), list):
        raise InputError(f"{manifest_path}: expected a JSON object whose warnings are a list")
    lines = [f"curvemorph results in {out}", f"command: {manifest.get('command')}", f"seed: {manifest.get('seed')}"]
    for table in ("k95.csv", "mse.csv", "cv_summary.csv"):
        path = out / table
        if not path.is_file():
            continue
        lines.append("")
        lines.append(table)
        for _, row in _csv_rows(path):
            pretty = []
            for cell in row:
                try:
                    pretty.append(f"{float(cell):.5g}")
                except ValueError:
                    pretty.append(cell)
            lines.append("  " + "  ".join(f"{c:>14}" for c in pretty))
    for key in ("warnings", "failures"):
        if manifest.get(key):
            lines += ["", f"{key}:"] + [f"  {item}" for item in manifest[key]]
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_COMMANDS = {
    "simulate": (cmd_simulate, "generate helix simulation replicates as landmark CSVs"),
    "run": (cmd_run, "run pipelines over replicate datasets"),
    "classify": (cmd_classify, "cross-validated classification per pipeline"),
    "report": (cmd_report, "print a summary of a results directory"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curvemorph", description="Morphometric pipelines for 3D landmark curves")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for key, (parse, commands, help_text) in _OPTIONS.items():
            if command not in commands:
                continue
            flag = "--" + key.replace("_", "-")
            if parse is _parse_bool:
                p.add_argument(flag, dest=key, action="store_true", default=None, help=help_text)
            else:
                p.add_argument(flag, dest=key, type=parse, default=None, help=help_text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
