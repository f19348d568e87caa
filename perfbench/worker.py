"""One benchmark pass in a fresh process: set up, run the workload, report.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --t0 T

runs from the repository root with ``src`` on ``PYTHONPATH`` and prints
one JSON line.  ``--t0`` is the launcher's ``time.perf_counter()`` just
before it started this process (the same monotonic clock on Linux), so
set-up time includes interpreter start and imports.  Set-up is importing
the package, validating the config and building every backend; the
timed run is ``conformal_lab.cli.run`` writing its reports and summary.
MODE is ``plain``, ``traced`` (layers wrapped, see ``layers.py``) or
``setup`` (set-up only, to sample set-up time).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402

OUT_ROOT = Path(".perfbench_out")
MODES = ("plain", "traced", "setup")


def summary_records(summary: dict) -> dict:
    """Check records per job: ``suite|backend`` -> [[law, asserted,
    residual, tolerance, passed], ...]."""
    return {f"{row['suite']}|{row['backend']}":
            [[c["eq"], c["asserted"], c["residual"], c["tol"], c["pass"]]
             for c in row["checks"]]
            for row in summary["results"]}


def run_pass(root: Path, workload: str, seed: int, mode: str,
             t0: float) -> dict:
    """Set up and run one workload in this process; never raises."""
    raw = workloads.workload_config(workloads.load_full_config(root),
                                    workload, seed)
    out_dir = root / OUT_ROOT / f"pass-{seed}-{time.time_ns()}"
    result = {"mode": mode, "records": None, "error": None}
    tracer = patcher = None
    try:
        from conformal_lab import cli, geometry
        if mode == "traced":
            tracer = layers.Tracer()
            patcher = layers.install(tracer)
        config = cli.RunConfig(raw)
        for rec in config.catalog:
            geometry.catalog_build(rec["kind"], rec.get("n"),
                                   rec.get("params"), rec.get("basis"))
        setup_end = time.perf_counter()
        result["setup_s"] = setup_end - t0
        if mode != "setup":
            tables0 = layers.table_cache_counts()
            cpu0 = time.process_time()
            try:
                cli.run(config, out_dir)
            finally:
                run_end = time.perf_counter()
                result["wall_s"] = run_end - setup_end
                cpu_s = time.process_time() - cpu0
            with open(out_dir / "summary.json") as fh:
                result["records"] = summary_records(json.load(fh))
    except Exception:  # a crashed pass is reported, never fatal
        result["error"] = traceback.format_exc()
    finally:
        if patcher is not None:
            patcher.restore()
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # not empty, or already gone
            pass
    if tracer is not None and "wall_s" in result:
        hits, misses = layers.table_cache_counts()
        result["trace"] = dict(layers.dump(tracer), cpu_s=cpu_s,
                               run_end=run_end,
                               tables=[hits - tables0[0],
                                       misses - tables0[1]])
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    result = run_pass(Path.cwd(), args.workload, args.seed, args.mode,
                      args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
