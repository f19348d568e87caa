"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/steadiness.py --workload NAME [--runs 10] [--first-seed 1]

Run from the repository root.  Runs ``run.py`` once per seed with the
``run_seconds`` of ``BENCHMARK.json``, in two sets of ``runs`` seeds each
(seeds ``first-seed`` onwards, a new seed for every run), and prints per
set and end-to-end metric the median, the quartile spread (Q3 - Q1) /
median from ``statistics.quantiles(n=4)`` and the metric's bound.  A
spread below a third of its bound is steady.  It also prints how far the
second set's median lies from the first set's, against the bound: two sets
of runs of the same code must agree within it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2


def run_set(workload: str, seeds, seconds: int, names) -> dict | None:
    """End-to-end values of one run per seed, or None if a run failed."""
    values = {name: [] for name in names}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=200)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed\n{proc.stdout}", file=sys.stderr)
            return None
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={vals[-1]:.4f}" for name, vals in values.items()),
            flush=True)
    return values


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = bench["end_to_end"]
    sets = []
    for k in range(SETS):
        first = args.first_seed + k * args.runs
        values = run_set(args.workload, range(first, first + args.runs),
                         bench["run_seconds"], [m["name"] for m in metrics])
        if values is None:
            return 1
        sets.append(values)

    print("\n| workload | set | metric | median | spread | bound | steady |")
    print("|---|---|---|---|---|---|---|")
    medians = []
    for k, values in enumerate(sets, 1):
        medians.append({})
        for m in metrics:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = medians[-1][m["name"]] = statistics.median(vals)
            spread = (q3 - q1) / med
            print(f"| {args.workload} | {k} | {m['name']} | "
                  f"{med:.4f} {m['unit']} | {spread:.2%} | {m['bound']:.0%} "
                  f"| {'yes' if spread < m['bound'] / 3 else 'no'} |")
    for k in range(1, len(sets)):
        for m in metrics:
            first, this = medians[0][m["name"]], medians[k][m["name"]]
            worse = (this - first if m["better"] == "lower"
                     else first - this) / first
            print(f"set {k + 1} against set 1, {m['name']}: median "
                  f"{first:.4f} -> {this:.4f}, worse by {worse:+.2%} "
                  f"(bound {m['bound']:.0%}: "
                  f"{'within' if worse <= m['bound'] else 'OUTSIDE'})")
    print("\nvalues " + json.dumps({"workload": args.workload,
                                    "sets": sets}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
