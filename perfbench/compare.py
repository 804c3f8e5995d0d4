"""Compare two series of benchmark results (the files ``series.py`` writes).

    python3 perfbench/compare.py .perfbench_out/series-base.jsonl .perfbench_out/series-change.jsonl

For every workload and end-to-end metric it prints each side's median,
quartiles and spread (quartile distance over median) across its runs, the
share of seed-matched pairs the second side won (ties count for neither),
and a verdict against the metric's bound in BENCHMARK.json:

* improved   - the second side wins at least 9 in 10 pairs and the medians
               differ by more than the first side's quartile distance;
* worse      - the second side's median is worse by more than the bound;
* unresolved - the first side's quartile distance exceeds the bound, and
               not every run of the second side beats every run of the first;
* unchanged  - otherwise.

Each side's failed/attempted operation counts go beside the verdict.
Per-layer metrics from traced runs have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: Path) -> dict:
    """{(workload, trace): {seed: result}}; a seed run twice keeps its last result."""
    series = defaultdict(dict)
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            series[(rec["workload"], rec["trace"])][rec["seed"]] = rec["result"]
    return series


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]], bound: float, lower_is_better: bool) -> tuple[str, float]:
    sign = 1.0 if lower_is_better else -1.0
    q1a, meda, q3a = quartiles(a)
    _, medb, _ = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (medb - meda) / meda
    if win_share >= 0.9 and sign * (meda - medb) > q3a - q1a:
        return "improved", win_share
    if worse_by > bound:
        return "worse", win_share
    all_better = max(b) < min(a) if lower_is_better else min(b) > max(a)
    if (q3a - q1a) / meda > bound and not all_better:
        return "unresolved", win_share
    return "unchanged", win_share


def _summary(q: tuple[float, float, float]) -> str:
    """Median [first, third quartile] and their distance as a share of the median."""
    spread = (q[2] - q[0]) / q[1] if q[1] else 0.0
    return f"{q[1]:10.5g} [{q[0]:.5g}, {q[2]:.5g}] {spread:5.1%}"


def _counts(results) -> str:
    return f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)} failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path, help="base side, e.g. the parent commit")
    parser.add_argument("second", type=Path, help="changed side")
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    first, second = load(args.first), load(args.second)
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            a_runs, b_runs = first.get((workload, trace), {}), second.get((workload, trace), {})
            a_ok = {s: r for s, r in a_runs.items() if r}
            b_ok = {s: r for s, r in b_runs.items() if r}
            if not a_ok or not b_ok:
                continue
            print(f"\n{workload} ({'traced' if trace else 'end to end'}; {len(a_ok)} vs {len(b_ok)} runs; "
                  f"first {_counts(a_ok.values())}, second {_counts(b_ok.values())})")
            incorrect = [s for s, r in {**a_ok, **b_ok}.items() if not r["correct"]]
            if incorrect:
                print(f"  incorrect results on seeds {sorted(set(incorrect))}")
            for m in metrics:
                name = m["name"]
                a = [r["metrics"][name]["value"] for r in a_ok.values() if name in r["metrics"]]
                b = [r["metrics"][name]["value"] for r in b_ok.values() if name in r["metrics"]]
                if not a or not b:
                    continue
                qa, qb = quartiles(a), quartiles(b)
                line = f"  {name:40s} {_summary(qa)}  ->  {_summary(qb)} {m['unit']}"
                if "bound" in m:
                    pairs = [(a_ok[s]["metrics"][name]["value"], b_ok[s]["metrics"][name]["value"]) for s in a_ok if s in b_ok]
                    word, wins = verdict(a, b, pairs, m["bound"], m["better"] == "lower")
                    line += f"  won {wins:.0%} of {len(pairs)} pairs: {word} (bound {m['bound']:.0%})"
                    status = max(status, int(word == "worse"))
                print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
