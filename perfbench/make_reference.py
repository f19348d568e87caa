"""Regenerate ``reference.json``, the verdicts every benchmark run is held to.

    python3 perfbench/make_reference.py

Run from the repository root on the commit whose verdicts are the
reference.  Each workload runs once at the default seed 0 and once at
seed 1; a record is ``seed_free`` when its residual is identical at both,
and only those records enter the residual drift of runs at other seeds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

SEED = 0


def reference_jobs(root: Path, workload: str) -> dict:
    base, other = (run.launch(root, workload, seed, "plain", run.HARD_LIMIT_S)
                   for seed in (SEED, SEED + 1))
    for p in (base, other):
        if p["records"] is None or any(
                asserted and not passed for recs in p["records"].values()
                for _, asserted, _, _, passed in recs):
            raise SystemExit(f"{workload}: the reference pass failed\n"
                             f"{p['error']}")
    jobs = {}
    for key, recs in sorted(base["records"].items()):
        again = other["records"].get(key, [])
        jobs[key] = [[law, asserted, residual,
                      i < len(again) and again[i][:3] == [law, asserted,
                                                          residual]]
                     for i, (law, asserted, residual, _, _) in enumerate(recs)]
    return jobs


def main() -> int:
    root = Path.cwd()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True).stdout.strip()
    reference = {
        "seed": SEED,
        "commit": commit or "unknown",
        "records": "[law, asserted, residual at seed 0, seed_free]",
        "workloads": {name: {"jobs": reference_jobs(root, name)}
                      for name in workloads.WORKLOADS},
    }
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
