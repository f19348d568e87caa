"""Time-to-verdict benchmark of the verification catalog.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass runs in a fresh process
(``worker.py``): set-up, then ``conformal_lab.cli.run`` on the workload's
config.  Passes repeat until ``--seconds`` (by default ``run_seconds`` of
``BENCHMARK.json``) have gone by.  With ``--trace 0`` every pass is
untraced and set-up-only passes are spread between the full ones:
``setup_s`` and ``wall_s`` are medians over passes, ``peak_rss_mb`` is
the largest pass's.  With
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are medians over traced passes.

Every pass is checked against ``reference.json``: a (suite, backend) job
fails if it raised, if an asserted check failed, or if its multiset of
(law, asserted) records differs from the reference.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (jobs, over all passes) and ``metrics``.  The exit status is 1
when any job failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
HARD_LIMIT_S = 165.0  # a run must end within 180 s
SETUP_SAMPLES = 25
DRIFT_FLOOR = 1e-3  # below this share of the tolerance a residual is rounding


# ------------------------------------------------------------------ verdicts

def job_ok(expected, got) -> bool:
    """A job passes when it ran, its asserted checks passed and it
    produced the reference's multiset of (law, asserted) records."""
    if expected is None or got is None:
        return False
    if any(asserted and not passed for _, asserted, _, _, passed in got):
        return False
    return (Counter((law, asserted) for law, asserted, *_ in got)
            == Counter((law, asserted) for law, asserted, *_ in expected))


def failed_jobs(expected: dict, records: dict | None) -> tuple[int, list]:
    """(jobs attempted, sorted keys of failed jobs) for one pass."""
    if records is None:  # the pass crashed: every job failed
        return len(expected), sorted(expected)
    keys = expected.keys() | records.keys()
    return len(keys), sorted(k for k in keys
                             if not job_ok(expected.get(k), records.get(k)))


def worst_margin(records: dict | None) -> float:
    """Largest |residual| / tolerance over asserted checks."""
    return max((abs(res) / tol for recs in (records or {}).values()
                for _, asserted, res, tol, _ in recs if asserted and tol > 0),
               default=0.0)


def residual_drift(expected: dict, records: dict | None,
                   same_seed: bool) -> float:
    """Largest |log10(residual / reference residual)| over matched records.

    Records pair up in order within a job whose (law, asserted) sequence
    matches the reference.  At another seed than the reference's only the
    records whose residual does not depend on the seed are compared.
    Both residuals are floored at ``DRIFT_FLOOR`` times the check's
    tolerance, so rounding-level residuals (an exact 0 becoming 1e-16)
    read as no drift.
    """
    worst = 0.0
    for key, recs in (records or {}).items():
        ref = expected.get(key)
        if ref is None or [r[:2] for r in ref] != [r[:2] for r in recs]:
            continue
        for (_, _, r_ref, seed_free), (_, _, r, tol, _) in zip(ref, recs):
            if same_seed or seed_free:
                floor = max(DRIFT_FLOOR * abs(tol), sys.float_info.epsilon)
                worst = max(worst, abs(math.log10(
                    max(abs(r), floor) / max(abs(r_ref), floor))))
    return worst


# ---------------------------------------------------------------- processes

def child_env(root: Path, workload: str) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["CONFORMAL_LAB_THREADS"] = str(workloads.workload_threads(workload))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(root: Path, workload: str, seed: int, mode: str,
           timeout: float) -> dict:
    """Run one pass in a fresh process and return its result."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--t0", repr(t0)]
    result = None
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root, workload),
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            result = json.loads(lines[-1])
        else:
            error = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        error = f"worker killed after {timeout:.0f} s"
    except json.JSONDecodeError as exc:
        error = f"worker printed no result: {exc}"
    elapsed = time.perf_counter() - t0
    if result is None:
        result = {"mode": mode, "records": None, "error": error}
    # a pass that died before timing itself still yields every metric
    result.setdefault("setup_s", elapsed)
    result.setdefault("wall_s", elapsed)
    result.setdefault("peak_rss_mb", resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    result["elapsed_s"] = elapsed
    return result


def run_passes(root: Path, workload: str, seed: int, seconds: float,
               trace: bool) -> list[dict]:
    """Full passes until ``seconds`` have gone by (at least one of each
    kind).  An untraced run follows each full pass with set-up-only
    passes, so that set-up samples keep pace with the elapsed share of
    ``seconds`` and number ``SETUP_SAMPLES`` at the end: host-speed drift
    then reaches both kinds of sample alike."""
    start = time.perf_counter()
    passes = []

    def elapsed():
        return time.perf_counter() - start

    def left():
        return HARD_LIMIT_S - elapsed()

    def sample_setup(share):
        want = math.ceil(SETUP_SAMPLES * min(share, 1.0))
        while not trace and len(samples(passes, "setup_s")) < want \
                and left() > 10.0:
            passes.append(launch(root, workload, seed, "setup", left()))

    while True:
        mode = "traced" if trace and len(passes) % 2 == 1 else "plain"
        passes.append(launch(root, workload, seed, mode, left()))
        sample_setup(elapsed() / seconds if seconds > 0 else 1.0)
        longest = max(p["elapsed_s"] for p in passes if p["mode"] != "setup")
        enough = elapsed() >= seconds and (not trace or len(passes) >= 2)
        if enough or longest > left():
            break
    sample_setup(1.0)
    return passes


def samples(passes: list[dict], name: str) -> list[float]:
    """Values of an end-to-end metric: set-up from every untraced pass,
    the others from full untraced passes."""
    modes = ("plain", "setup") if name == "setup_s" else ("plain",)
    return [p[name] for p in passes if p["mode"] in modes]


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import numpy.__config__
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "commit": commit, "workload": workload,
            "seed": seed,
            "threads": workloads.workload_threads(workload)}


# ------------------------------------------------------------------- report

def summarize(passes: list[dict], expected: dict, same_seed: bool,
              trace: bool, threads: int) -> tuple[dict, int, list]:
    """(metrics, jobs attempted, failed job descriptions) of a run."""
    attempted, failures = 0, []
    for i, p in enumerate(passes):
        if p["mode"] == "setup":
            continue
        n, bad = failed_jobs(expected, p["records"])
        attempted += n
        failures += [f"pass {i}: {key}" for key in bad]
        p["verify"] = {"worst_margin": worst_margin(p["records"]),
                       "drift_log10": residual_drift(expected, p["records"],
                                                     same_seed)}
    if not trace:
        metrics = {name: statistics.median(samples(passes, name))
                   for name in ("setup_s", "wall_s")}
        metrics["peak_rss_mb"] = max(samples(passes, "peak_rss_mb"))
        return metrics, attempted, failures
    traced = [p for p in passes if p["mode"] == "traced" and "trace" in p]
    per_pass = [layers.layer_metrics(dict(p["trace"], verify=p["verify"]),
                                     threads) for p in traced]
    if not per_pass:  # every traced pass crashed: report empty layers
        per_pass = [layers.layer_metrics(
            layers.empty_trace(passes[-1]["verify"]), threads)]
    metrics = layers.median_metrics(per_pass)
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(samples(passes, "wall_s"))) if traced else 0.0
    return metrics, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/conformal_lab/__init__.py",
                           str(workloads.FULL_CONFIG))
               if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from the repository root; missing {missing}",
              file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    expected = reference["workloads"][args.workload]["jobs"]
    threads = workloads.workload_threads(args.workload)

    passes = run_passes(root, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    metrics, attempted, failures = summarize(
        passes, expected, args.seed == reference["seed"], bool(args.trace),
        threads)

    print("env " + json.dumps(environment(root, args.workload, args.seed)))
    counts = Counter(p["mode"] for p in passes)
    print("passes: " + ", ".join(f"{n} {mode}" for mode, n in counts.items()))
    for name, unit in END_TO_END.items():
        values = samples(passes, name)
        how = "max" if name == "peak_rss_mb" else "median"
        value = max(values) if how == "max" else statistics.median(values)
        print(f"{name:<28}{value:>12.4f} {unit:<6}"
              f"{how} of [{' '.join(f'{v:.4f}' for v in values)}]")
    print(f"{'failed_job_ratio':<28}{len(failures) / attempted:>12.4f}"
          f" {'ratio':<6}{len(failures)} of {attempted} jobs")
    judged = [p["verify"] for p in passes if "verify" in p]
    for name in ("worst_margin", "drift_log10"):
        print(f"{'verify.' + name:<28}{max(v[name] for v in judged):>12.4g}")
    for line in failures:
        print(f"FAILED {line}")
    for p in passes:
        if p["error"]:
            print(f"ERROR {p['error'].strip().splitlines()[-1]}")
            sys.stderr.write(p["error"])
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:<50}{value:>14.6g}")
    unit = layers.metric_unit if args.trace else END_TO_END.get
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
