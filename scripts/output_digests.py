"""Digests of the seeded CSV/SVG outputs on six fixed check sets.

Run from the repository root (no install step; ``src/`` goes on the path):

    python3 scripts/output_digests.py [--check scripts/output_digests.expected]

Prints one line per check set: its name, the CLI exit code, the number of
``*.csv``/``*.svg`` files it wrote, and the first 16 hex digits of the
sha256 of their sorted ``sha256sum``-style listing.  Two checkouts whose
lines agree wrote byte-identical outputs.  With ``--check FILE`` the
script also compares each line with the line of the same set in FILE,
names on standard error every set whose line differs (or is missing from
FILE), and exits 1 if any does.  ``scripts/output_digests.expected``
holds the lines of the current seeded outputs.

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
import hashlib
import io
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


def digest(out: Path) -> tuple[int, str]:
    """File count and digest of the sorted ``sha256sum``-style listing of the CSVs and SVGs in ``out``."""
    files = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".svg"))
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", type=Path, metavar="FILE", help="exit 1 unless every line equals its set's line in FILE")
    args = parser.parse_args(argv)
    lines = {}
    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        work = Path(tmp)
        for name, workload in perfbench.WORKLOADS.items():
            data = perfbench.write_inputs(workload.make_inputs(SEED), work / name / "data")
            out = work / name / "out"
            lines[name] = check(name, workload.argv(data, out, SEED), out)

        sim = work / "sim11"
        sim.mkdir()
        for rep in range(2):
            cli.write_landmark_csv(sim / f"rep{rep}.csv", generate_replicate(SIM, rep))
        common = ["--pipelines", "all", "--seed", str(SIM.seed)]
        lines["sim11-run"] = check("sim11-run", ["run", "--data", f"{sim / 'rep0.csv'},{sim / 'rep1.csv'}",
                                                 "--out", str(work / "sim11-run"), *common], work / "sim11-run")
        lines["sim11-classify"] = check("sim11-classify", ["classify", "--data", str(sim / "rep0.csv"),
                                                           "--out", str(work / "sim11-classify"), *common, "--svg"],
                                        work / "sim11-classify")
    if args.check is None:
        return 0
    expected = {line.split(": ", 1)[0]: line for line in args.check.read_text().splitlines() if line.strip()}
    differ = [name for name, line in lines.items() if expected.get(name) != line]
    for name in differ:
        print(f"differs from {args.check}: {name} (expected {expected.get(name, 'no line')!r})", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
