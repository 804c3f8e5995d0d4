#!/usr/bin/env python3
"""End-to-end desk-scale simulation study.

Generates seeded helix replicates, runs all eight pipelines, cross-validates
the three classifiers, and prints the summary tables.  Everything goes
through the command-line surface, so the outputs match what `curvemorph`
produces standalone.

Example:
    python3 scripts/run_simulation_study.py --out results/ --seed 7 --n-reps 10
"""

import argparse
import sys
from pathlib import Path

from curvemorph.cli import main as curvemorph_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-reps", type=int, default=10, help="replicates (50 for the full-scale study)")
    parser.add_argument("--pipelines", default="all")
    parser.add_argument("--classifiers", default="all")
    parser.add_argument("--classify-reps", type=int, default=3, help="replicates used for cross validation")
    args = parser.parse_args(argv)

    out = Path(args.out)
    sim_dir = out / "data"

    code = curvemorph_main(
        ["simulate", "--out", str(sim_dir), "--seed", str(args.seed), "--n-reps", str(args.n_reps)]
    )
    if code != 0:
        return code

    code = curvemorph_main(
        [
            "run", "--data", str(sim_dir), "--out", str(out / "pipelines"),
            "--seed", str(args.seed), "--pipelines", args.pipelines,
        ]
    )
    if code != 0:
        return code

    cv_files = ",".join(
        str(sim_dir / f"replicate_{rep:03d}.csv") for rep in range(min(args.classify_reps, args.n_reps))
    )
    code = curvemorph_main(
        [
            "classify", "--data", cv_files, "--out", str(out / "classification"),
            "--seed", str(args.seed), "--pipelines", args.pipelines,
            "--classifiers", args.classifiers, "--svg",
        ]
    )
    if code != 0:
        return code

    for table_dir in ("pipelines", "classification"):
        curvemorph_main(["report", "--out", str(out / table_dir)])
    return 0


if __name__ == "__main__":
    sys.exit(run())
