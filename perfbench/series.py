"""Run the benchmark over a range of seeds and record every result.

    python3 perfbench/series.py --seeds 1-10 --label base=. [--label change=../other-checkout] [--trace 0]

Each ``--label NAME=DIR`` names a checkout whose ``perfbench/run.py`` is run
from that directory, on every workload of BENCHMARK.json for its
``run_seconds``.  With two labels the runs alternate, and which side
goes first flips from one seed to the next, so that drift in the machine
falls on both sides alike.  Every result is appended as one JSON line to
``.perfbench_out/series-<NAME>.jsonl`` in this checkout; ``compare.py``
reads two such files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", action="append", required=True, help="NAME=CHECKOUT_DIR")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = []
    for item in args.label:
        name, _, path = item.partition("=")
        sides.append((name, Path(path or ".").resolve()))
    OUT.mkdir(exist_ok=True)

    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for name, checkout in sides if i % 2 == 0 else sides[::-1]:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                start = time.perf_counter()
                proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                record = {"label": name, "workload": workload, "seed": seed, "trace": args.trace,
                          "seconds": seconds, "exit_code": proc.returncode,
                          "run_s": time.perf_counter() - start, "result": result}
                with open(OUT / f"series-{name}.jsonl", "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                shown = {k: round(v["value"], 4) for k, v in (result or {}).get("metrics", {}).items()} if result else proc.stderr[-500:]
                print(f"{name} {workload} seed={seed} exit={proc.returncode} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
