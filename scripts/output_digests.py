"""Digests of the seeded CSV/SVG outputs on six fixed check sets.

Run from the repository root (no install step; ``src/`` goes on the path):

    python3 scripts/output_digests.py [--check scripts/output_digests.expected] [--keep DIR | --against DIR]

Prints one line per check set: its name, the CLI exit code, the number of
``*.csv``/``*.svg`` files it wrote, and the first 16 hex digits of the
sha256 of their sorted ``sha256sum``-style listing.  Two checkouts whose
lines agree wrote byte-identical outputs.  With ``--check FILE`` the
script also compares each line with the line of the same set in FILE,
names on standard error every set whose line differs (or is missing from
FILE), and exits 1 if any does.  ``scripts/output_digests.expected``
holds the lines of the current seeded outputs.

``--keep DIR`` copies each set's CSV/SVG outputs to ``DIR/<set>/``.
``--against DIR`` compares them with the files kept there by an earlier
run (of another checkout, say) and prints one line for each file that
differs: for a CSV, its largest numeric cell difference relative to the
largest cell magnitude of the two files, which states how far a change
moved each seeded output.

The sets are the four benchmark workloads on their seed-1 inputs (inputs
and CLI arguments taken from ``perfbench/run.py``), plus
``SimConfig(seed=11, group_sizes=(6, 6, 6, 6))`` replicates 0 and 1 under
``run --pipelines all --seed 11`` (both) and
``classify --pipelines all --svg --seed 11`` (replicate 0).  Every command
runs in this process, one after another; scratch files go to a temporary
directory that is removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench  # noqa: E402  (sets one BLAS thread before numpy loads)

from curvemorph import cli  # noqa: E402
from curvemorph.simgen import SimConfig, generate_replicate  # noqa: E402

SEED = 1
SIM = SimConfig(seed=11, group_sizes=(6, 6, 6, 6))


def output_files(out: Path) -> list[Path]:
    """The CSVs and SVGs in ``out``, sorted."""
    return sorted(p for p in out.iterdir() if p.suffix in (".csv", ".svg"))


def digest(out: Path) -> tuple[int, str]:
    """File count and digest of the sorted ``sha256sum``-style listing of the CSVs and SVGs in ``out``."""
    files = output_files(out)
    listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in files)
    return len(files), hashlib.sha256(listing.encode()).hexdigest()[:16]


def check(name: str, argv: list[str], out: Path) -> str:
    """Run one CLI command, print its line and return it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    n_files, hexdigest = digest(out)
    line = f"{name}: exit {code}, {n_files} files, {hexdigest}"
    print(line, flush=True)
    return line


def cell_difference(kept: Path, new: Path) -> str:
    """How two differing output files differ: for CSVs of one shape, the largest numeric cell difference relative to the largest magnitude."""
    if new.suffix != ".csv":
        return "differs (not a CSV)"
    with kept.open(newline="") as fa, new.open(newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "differs in shape"
    diff = scale = 0.0
    for cell_a, cell_b in zip((c for r in rows_a for c in r), (c for r in rows_b for c in r)):
        try:
            a, b = float(cell_a), float(cell_b)
        except ValueError:
            if cell_a != cell_b:
                return f"differs in a text cell: {cell_a!r} against {cell_b!r}"
            continue
        diff, scale = max(diff, abs(a - b)), max(scale, abs(a), abs(b))
    return f"largest cell difference {diff / scale if scale else diff:.3g} of the largest magnitude {scale:.3g}"


def compare(outs: dict[str, Path], kept: Path) -> None:
    """Print a line for each output file that differs from, or is missing in, the files kept under ``kept``."""
    for name, out in outs.items():
        new = {p.name: p for p in output_files(out)}
        old = {p.name: p for p in output_files(kept / name)} if (kept / name).is_dir() else {}
        for file in sorted(new.keys() | old.keys()):
            if file not in old:
                print(f"{name}/{file}: not in {kept}")
            elif file not in new:
                print(f"{name}/{file}: only in {kept}")
            elif old[file].read_bytes() != new[file].read_bytes():
                print(f"{name}/{file}: {cell_difference(old[file], new[file])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", type=Path, metavar="FILE", help="exit 1 unless every line equals its set's line in FILE")
    kept = parser.add_mutually_exclusive_group()
    kept.add_argument("--keep", type=Path, metavar="DIR", help="copy each set's outputs to DIR/<set>/")
    kept.add_argument("--against", type=Path, metavar="DIR", help="print how each output differs from the one kept in DIR")
    args = parser.parse_args(argv)
    lines, outs = {}, {}
    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        work = Path(tmp)
        for name, workload in perfbench.WORKLOADS.items():
            data = perfbench.write_inputs(workload.make_inputs(SEED), work / name / "data")
            outs[name] = out = work / name / "out"
            lines[name] = check(name, workload.argv(data, out, SEED), out)

        sim = work / "sim11"
        sim.mkdir()
        for rep in range(2):
            cli.write_landmark_csv(sim / f"rep{rep}.csv", generate_replicate(SIM, rep))
        common = ["--pipelines", "all", "--seed", str(SIM.seed)]
        outs["sim11-run"], outs["sim11-classify"] = work / "sim11-run", work / "sim11-classify"
        lines["sim11-run"] = check("sim11-run", ["run", "--data", f"{sim / 'rep0.csv'},{sim / 'rep1.csv'}",
                                                 "--out", str(outs["sim11-run"]), *common], outs["sim11-run"])
        lines["sim11-classify"] = check("sim11-classify", ["classify", "--data", str(sim / "rep0.csv"),
                                                           "--out", str(outs["sim11-classify"]), *common, "--svg"],
                                        outs["sim11-classify"])
        if args.keep is not None:
            for name, out in outs.items():
                (args.keep / name).mkdir(parents=True, exist_ok=True)
                for path in output_files(out):
                    shutil.copyfile(path, args.keep / name / path.name)
        if args.against is not None:
            compare(outs, args.against)
    if args.check is None:
        return 0
    expected = {line.split(": ", 1)[0]: line for line in args.check.read_text().splitlines() if line.strip()}
    differ = [name for name, line in lines.items() if expected.get(name) != line]
    for name in differ:
        print(f"differs from {args.check}: {name} (expected {expected.get(name, 'no line')!r})", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
