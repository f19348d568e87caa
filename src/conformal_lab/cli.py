"""Batch front end: build backends from a JSON config and run suites.

The run configuration is a single JSON document; flags only select the
config path, the output directory, and verbosity.  One report is written
per (suite, backend) pair plus a summary; the summary is free of timing
so identical configs and seeds produce byte-identical summaries.  The
exit status is 0 exactly when every hypothesis-gated assertion passed;
exploratory records never fail a run.  A job that raises a package
error is reported as that job's typed error, the other jobs still run
and report, and the exit status is 4.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

from .basis import BACKENDS
from .errors import (BackendBuildError, ConfigError, ConformalLabError,
                     checked_integer)
from .geometry import catalog_build
from .spectrum import lambda1_L
from .verify import DECLARATIONS, SUITES, run_suite

logger = logging.getLogger(__name__)


class RunConfig:
    """Validated run configuration."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
        self.seed = checked_integer("seed", raw.get("seed", 0), 0, ConfigError)
        suites = raw.get("suites")
        if not suites or not isinstance(suites, list) or not all(
                isinstance(s, str) for s in suites) \
                or len(set(suites)) < len(suites):
            raise ConfigError(f"suites: a non-empty list of distinct names "
                              f"is required, got {suites!r}")
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            raise ConfigError(f"suites: unknown suite names {unknown}; "
                              f"known: {sorted(SUITES)}")
        self.suites = list(suites)
        catalog = raw.get("catalog")
        if not catalog or not isinstance(catalog, list):
            raise ConfigError("catalog: a non-empty list of backend records "
                              "is required")
        for i, rec in enumerate(catalog):
            if not isinstance(rec, dict) or "kind" not in rec:
                raise ConfigError(f"catalog[{i}]: needs a 'kind' field")
        self.catalog = catalog
        self.level = checked_integer("level", raw.get("level", 2), 0,
                                     ConfigError)
        self.trials = checked_integer("trials", raw.get("trials", 10), 1,
                                      ConfigError)
        self.tolerances = raw.get("tolerances", {})
        if not isinstance(self.tolerances, dict):
            raise ConfigError("tolerances: must map suite name to number")
        for k, tol in self.tolerances.items():
            if k not in SUITES:
                raise ConfigError(f"tolerances: unknown suite {k!r}")
            if DECLARATIONS[k].tolerance is None:
                raise ConfigError(f"tolerances: suite {k!r} takes no "
                                  f"tolerance")
            if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
                    or not 0 < tol <= sys.float_info.max:
                raise ConfigError(f"tolerances: {k!r} must be a positive "
                                  f"finite number, got {tol!r}")
        extra = set(raw) - {"seed", "suites", "catalog", "level", "trials",
                            "tolerances"}
        if extra:
            raise ConfigError(f"unknown config fields {sorted(extra)}")

    @staticmethod
    def from_path(path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON: {exc}") from exc
        return RunConfig(raw)

    def suite_options(self, suite: str) -> dict:
        opts = {"level": self.level, "seed": self.seed, "trials": self.trials}
        if suite in self.tolerances:
            opts["tolerance"] = self.tolerances[suite]
        return opts


def _build_backends(config: RunConfig):
    backends = []
    for i, rec in enumerate(config.catalog):
        try:
            m = catalog_build(rec["kind"], rec.get("n"),
                              rec.get("params"), rec.get("basis"))
        except (ConformalLabError, TypeError, ValueError, KeyError) as exc:
            raise BackendBuildError(
                f"catalog[{i}] ({rec.get('kind')}): {exc}") from exc
        backends.append(m)
    names = [m.descriptor() for m in backends]
    for i, name in enumerate(names):
        if name in names[:i]:  # their reports would overwrite each other
            raise ConfigError(f"catalog[{names.index(name)}] and catalog[{i}]:"
                              f" both build {name}")
    return backends


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-." else "_" for ch in text)


def run(config: RunConfig, out_dir=None, verbose: bool = False) -> int:
    """Execute all compatible (suite, backend) jobs and write reports.

    The jobs run one at a time, backend by backend, suites in config
    order; a backend's identity and total-Q suites share one pass."""
    out = Path(out_dir or "reports")
    backends = _build_backends(config)
    for suite in config.suites:
        if not any(DECLARATIONS[suite].applies(m) for m in backends):
            raise ConfigError(
                f"suites: {suite!r} is not compatible with any backend in "
                f"the catalog (dimension gates)")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create {out}: {exc}") from exc

    results = {}
    for m in backends:
        for suite in config.suites:
            t0 = time.perf_counter()
            try:
                report = run_suite(suite, m, config.suite_options(suite))
            except ConformalLabError as err:
                report = err
            if report is not None:
                results[(suite, m.descriptor())] = (
                    report, time.perf_counter() - t0)

    # write the reports in a fixed aggregation order
    summary_rows = []
    for (suite, backend), (report, secs) in sorted(results.items()):
        row = {"suite": suite, "backend": backend}
        if isinstance(report, ConformalLabError):
            row.update({"pass": False, "checks": [], "error": {
                "code": report.code, "message": str(report)}})
            text = json.dumps(row, indent=2)
            logger.error("[ERROR] %s on %s: %s after %.2f s: %s", suite,
                         backend, report.code, secs, report)
        else:
            row.update({"pass": report.passed, "checks": [
                c.to_dict() for c in report.checks]})
            text = report.to_json()
            logger.info("[%s] %s on %s: %.2f s, %s",
                        "PASS" if report.passed else "FAIL", suite, backend,
                        secs, _margin_text(report))
        with open(out / f"{suite}__{_slug(backend)}.json", "w") as fh:
            fh.write(text)
        summary_rows.append(row)
    all_pass = all(row["pass"] for row in summary_rows)
    summary = {"seed": config.seed, "all_passed": all_pass,
               "results": summary_rows}
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    if verbose:
        print(f"summary: {'PASS' if all_pass else 'FAIL'} "
              f"({len(summary_rows)} reports in {out})")
    if any("error" in row for row in summary_rows):
        return 4
    return 0 if all_pass else 1


def _margin_text(report) -> str:
    """Largest |residual| / tolerance over the asserted checks, if any."""
    asserted = [c for c in report.checks if c.asserted]
    if not asserted:
        return "no asserted check"
    worst = max((abs(c.residual) / c.tolerance for c in asserted
                 if c.tolerance > 0), default=0.0)
    return f"worst asserted |residual|/tol {worst:.3g}"


def list_catalog() -> str:
    """Text table of supported backends with their derived constants.

    One line per dimension of each row of ``basis.BACKENDS``, at the
    row's default scales, read when printed.
    """
    lines = [f"{'kind':<16}{'n':>3}  {'params':<26}{'R':>10}{'Q':>12}"
             f"{'lambda1(L)':>14}"]
    for kind, row in BACKENDS.items():
        params = ", ".join(f"{name}={default:.6g}"
                           for name, (_, default) in row.scales.items())
        for n in row.dims:
            m = catalog_build(kind, n, {}, {"degree_max": 4})
            lines.append(f"{kind:<16}{n:>3}  {params:<26}"
                         f"{m.scalar_curvature:>10.6g}{m.q_value:>12.6g}"
                         f"{lambda1_L(m):>14.6g}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conformal-lab",
        description="verification suites for conformally covariant "
                    "operators on the manifold catalog")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run suites from a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON config")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--verbose", action="store_true")
    sub.add_parser("catalog", help="print the supported backends")
    args = parser.parse_args(argv)
    if getattr(args, "verbose", False):
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    if args.command == "catalog":
        print(list_catalog())
        return 0
    try:
        config = RunConfig.from_path(args.config)
        return run(config, args.out, args.verbose)
    except ConfigError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except BackendBuildError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
