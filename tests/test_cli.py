import json
import logging
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conformal_lab.cli import (RunConfig, _build_backends, list_catalog,
                               main, run)
from conformal_lab.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent

BASE_CONFIG = {
    "seed": 0,
    "suites": ["total-q", "spectrum"],
    "catalog": [
        {"kind": "sphere", "n": 4, "params": {"radius": 1.0},
         "basis": {"degree_max": 16}},
        {"kind": "product-S1xS3", "params": {},
         "basis": {"degree_max": 12, "fourier_max": 6}},
    ],
    "level": 1,
    "trials": 3,
}


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ------------------------------------------------------------- validation

def test_empty_suites_rejected():
    cfg = dict(BASE_CONFIG, suites=[])
    with pytest.raises(ConfigError, match="suites"):
        RunConfig(cfg)


def test_unknown_suite_rejected():
    cfg = dict(BASE_CONFIG, suites=["nonsense"])
    with pytest.raises(ConfigError, match="suites"):
        RunConfig(cfg)


def test_missing_catalog_rejected():
    cfg = {k: v for k, v in BASE_CONFIG.items() if k != "catalog"}
    with pytest.raises(ConfigError, match="catalog"):
        RunConfig(cfg)


def test_unknown_field_rejected():
    cfg = dict(BASE_CONFIG, bogus=1)
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig(cfg)


def test_bad_tolerance_key_rejected():
    cfg = dict(BASE_CONFIG, tolerances={"nope": 1e-3})
    with pytest.raises(ConfigError, match="nope"):
        RunConfig(cfg)


@pytest.mark.parametrize("field, value", [
    ("tolerances", {"green-compare": "tight"}),
    ("tolerances", {"total-q": True}),
    ("tolerances", {"total-q": None}),
    ("tolerances", {"total-q": 0}),
    ("tolerances", {"total-q": -1e-3}),
    ("tolerances", {"total-q": float("nan")}),
    ("tolerances", {"total-q": float("inf")}),
    ("seed", True),
    ("seed", -1),
    ("level", True),
    ("trials", True),
])
def test_bad_config_value_exits_2(tmp_path, capsys, field, value):
    path = _write(tmp_path, dict(BASE_CONFIG, **{field: value}))
    with pytest.raises(ConfigError, match=field):
        RunConfig.from_path(path)
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert "CONFIG_INVALID" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SPHERE5 = {"kind": "sphere", "n": 5, "params": {"radius": 1.0},
            "basis": {"degree_max": 8}}


@pytest.mark.parametrize("change, named", [
    # both records build sphere:n=5:a=1, and one report would overwrite
    # the other
    ({"suites": ["spectrum"], "catalog": [
        _SPHERE5, dict(_SPHERE5, basis={"degree_max": 24})]},
     "catalog[0] and catalog[1]"),
    ({"suites": ["spectrum", "spectrum"]}, "suites"),
    ({"suites": [["spectrum"]]}, "suites"),
    # the output directory is the --out flag, not a config field
    ({"out_dir": "reports"}, "unknown config fields ['out_dir']"),
], ids=["same-descriptor", "repeated-suite", "list-suite", "out-dir-field"])
def test_colliding_or_mistyped_run_config_exits_2(tmp_path, capsys, change,
                                                  named):
    path = _write(tmp_path, dict(BASE_CONFIG, **change))
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_INVALID: ") and named in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_integer_and_float_tolerances_accepted():
    config = RunConfig(dict(BASE_CONFIG,
                            tolerances={"total-q": 1, "covariance": 1e-3}))
    assert config.suite_options("total-q")["tolerance"] == 1


@pytest.mark.parametrize("suite", ["signs", "spectrum"])
def test_a_tolerance_for_a_suite_that_takes_none_exits_2(tmp_path, capsys,
                                                         suite):
    """Such a tolerance would be dropped unread, so it is a config error."""
    path = _write(tmp_path, dict(BASE_CONFIG, tolerances={suite: 1e-300}))
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_INVALID: ") and repr(suite) in err, err
    assert not (tmp_path / "out").exists()


def test_incompatible_suite_rejected(tmp_path):
    cfg = dict(BASE_CONFIG, suites=["mass"])  # no n in 5..7 backend present
    with pytest.raises(ConfigError, match="mass"):
        run(RunConfig(cfg), tmp_path)


# -------------------------------------------------------------------- runs

def test_run_writes_reports_and_summary(tmp_path):
    code = run(RunConfig(BASE_CONFIG), tmp_path / "out")
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["all_passed"] is True
    suites = {(row["suite"], row["backend"]) for row in summary["results"]}
    assert len(suites) == 4  # both suites fit both n = 4 backends
    files = list((tmp_path / "out").glob("*.json"))
    assert len(files) == 5  # four reports plus the summary
    report = json.loads(next(
        p for p in files if p.name.startswith("total-q__sphere")).read_text())
    assert report["suite"] == "total-q"
    assert "runtime_s" in report


def test_run_byte_identical_summaries(tmp_path):
    run(RunConfig(BASE_CONFIG), tmp_path / "a")
    run(RunConfig(BASE_CONFIG), tmp_path / "b")
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()


def test_image_resolution_stays_out_of_the_summary(tmp_path):
    cfg = dict(BASE_CONFIG, suites=["signs", "green-compare"], catalog=[
        {"kind": "product-S1xS2", "params": {},
         "basis": {"degree_max": 12, "fourier_max": 6}}])
    assert run(RunConfig(cfg), tmp_path / "out") == 0
    for suite in ("signs", "green-compare"):
        report = json.loads(next(
            (tmp_path / "out").glob(f"{suite}__*.json")).read_text())
        assert report["resolution"]["images"][0] == 9
    summary = (tmp_path / "out" / "summary.json").read_text()
    assert "images" not in summary


def test_the_ledger_is_built_once_per_backend(tmp_path, monkeypatch):
    from conformal_lab import spectrum, verify

    calls = []
    lambda1 = spectrum.lambda1_L

    def counted(m):
        calls.append(m.descriptor())
        return lambda1(m)

    monkeypatch.setattr(spectrum, "lambda1_L", counted)
    monkeypatch.setattr(verify, "_LEDGERS", {})
    config = RunConfig(BASE_CONFIG)
    assert run(config, tmp_path) == 0
    backends = {m.descriptor(): m for m in _build_backends(config)}
    assert sorted(calls) == sorted(backends)  # 4 jobs, 2 backends
    reports = [json.loads(p.read_text()) for p in tmp_path.glob("*__*.json")]
    assert len(reports) == 4
    for report in reports:
        ledger = spectrum.paneitz_spectrum_check(backends[report["backend"]])
        assert report["hypotheses"] == ledger.hypotheses()


def test_main_run_and_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, BASE_CONFIG)
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_main_config_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, dict(BASE_CONFIG, suites=[]))
    assert main(["run", "--config", str(path)]) == 2
    assert "CONFIG_INVALID" in capsys.readouterr().err


def test_main_missing_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("under", [(), ("reports",)],
                         ids=["a-file", "under-a-file"])
def test_an_unusable_out_directory_exits_2(tmp_path, capsys, under):
    path = _write(tmp_path, BASE_CONFIG)
    out = tmp_path.joinpath("taken", *under)
    (tmp_path / "taken").write_text("not a directory")
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "CONFIG_INVALID: --out: cannot create" in err and str(out) in err


def test_exit_one_on_assertion_failure(tmp_path, monkeypatch):
    from conformal_lab import cli as cli_mod
    from conformal_lab.verify import CheckRecord, VerificationReport

    def failing_suite(m, cfg):
        return VerificationReport(
            "spectrum", m.descriptor(),
            [CheckRecord("stub", 1.0, 0.5, False, True)], {}, {})

    monkeypatch.setitem(cli_mod.SUITES, "spectrum", failing_suite)
    cfg = dict(BASE_CONFIG, suites=["spectrum"])
    assert run(RunConfig(cfg), tmp_path) == 1


def test_exploratory_failures_do_not_break_exit(tmp_path, monkeypatch):
    from conformal_lab import cli as cli_mod
    from conformal_lab.verify import CheckRecord, VerificationReport

    def exploratory_suite(m, cfg):
        return VerificationReport(
            "spectrum", m.descriptor(),
            [CheckRecord("stub", 1.0, 0.5, True, False)], {}, {})

    monkeypatch.setitem(cli_mod.SUITES, "spectrum", exploratory_suite)
    cfg = dict(BASE_CONFIG, suites=["spectrum"])
    assert run(RunConfig(cfg), tmp_path) == 0


def test_backend_build_failure_exit_code(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, catalog=[{"kind": "sphere", "n": 2,
                                      "params": {}, "basis": {}}])
    path = _write(tmp_path, cfg)
    assert main(["run", "--config", str(path)]) == 3
    assert "BACKEND_BUILD_FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("record, field", [
    ({"kind": "sphere", "n": 5.0}, "n"),
    ({"kind": "product-S1xS2", "basis": {"sphere_nodes": 0}}, "sphere_nodes"),
    ({"kind": "product-S1xS2", "basis": {"circle_nodes": 0}}, "circle_nodes"),
    ({"kind": "product-S1xS2", "basis": {"fourier_max": -2}}, "fourier_max"),
    ({"kind": "product-S1xS2", "basis": {"fourier_max": 0}}, "fourier_max"),
    ({"kind": "sphere", "n": 5, "params": {"radius": float("nan")}},
     "radius"),
    ({"kind": "product-S1xS3", "params": {"length": float("inf")}}, "length"),
    ({"kind": "sphere", "n": 5, "basis": {"degree_max": 2.7}}, "degree_max"),
    ({"kind": "sphere", "n": 5, "basis": {"degree_max": True}}, "degree_max"),
    ({"kind": "sphere", "n": 5, "basis": {"degree_max": 3}}, "degree_max"),
])
def test_bad_catalog_record_exits_3(tmp_path, capsys, record, field):
    """Counts are integers with the least value the default test functions
    need, scales finite and positive; a bad record fails the build."""
    cfg = dict(BASE_CONFIG, suites=["weak-identity", "spectrum"],
               catalog=[record])
    path = _write(tmp_path, cfg)
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "BACKEND_BUILD_FAIL" in err and f"{field}:" in err, err
    assert "Traceback" not in err


ALIASING_CONFIG = {
    "seed": 0,
    "suites": ["covariance", "spectrum"],
    "catalog": [
        {"kind": "sphere", "n": 5, "params": {}, "basis": {"degree_max": 4}},
        {"kind": "sphere", "n": 3, "params": {}, "basis": {"degree_max": 24}},
    ],
    "level": 1,
    "trials": 2,
}


def test_job_error_is_isolated(tmp_path, caplog):
    path = _write(tmp_path, ALIASING_CONFIG)
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 4
    assert [r.levelname for r in caplog.records
            if "ALIASING" in r.getMessage()] == ["ERROR"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["all_passed"] is False
    rows = {(r["suite"], r["backend"]): r for r in summary["results"]}
    assert len(rows) == 4
    bad = rows[("covariance", "sphere:n=5:a=1")]
    assert bad["pass"] is False and bad["checks"] == []
    assert bad["error"]["code"] == "ALIASING"
    assert "polar exactness" in bad["error"]["message"]
    report = json.loads(
        (tmp_path / "out" / "covariance__sphere_n_5_a_1.json").read_text())
    assert report == bad
    assert len(list((tmp_path / "out").glob("*.json"))) == 5
    # the rows of the jobs that ran are the rows of a run without the error
    alone = dict(ALIASING_CONFIG, catalog=ALIASING_CONFIG["catalog"][1:])
    assert run(RunConfig(alone), tmp_path / "alone") == 0
    ref = json.loads((tmp_path / "alone" / "summary.json").read_text())
    for row in ref["results"]:
        assert json.dumps(rows[(row["suite"], row["backend"])],
                          sort_keys=True) == json.dumps(row, sort_keys=True)
    assert all(rows[k]["pass"] for k in rows if k[1] == "sphere:n=3:a=1")


def test_too_long_circle_is_a_job_error(tmp_path):
    """A circle beyond the image sum's range is reported as the job's
    typed error, not as NaN residuals."""
    cfg = dict(BASE_CONFIG, suites=["weak-identity"], catalog=[
        {"kind": "product-S1xS2", "params": {"length": 1450.0},
         "basis": {"degree_max": 8, "fourier_max": 4}}])
    assert run(RunConfig(cfg), tmp_path) == 4
    (row,) = json.loads((tmp_path / "summary.json").read_text())["results"]
    assert row["checks"] == []
    assert row["error"]["code"] == "UNSUPPORTED_BACKEND"


def test_a_grid_inside_the_pole_mask_is_a_job_error(tmp_path):
    """Two sphere nodes both lie within three grid spacings of the pole:
    the jobs that read the grid off the pole report the typed error, and
    the spectrum on that backend and every job on S^3 still report."""
    masked = "sphere:n=5:a=1"
    cfg = dict(BASE_CONFIG, suites=["signs", "green-compare", "spectrum"],
               catalog=[{"kind": "sphere", "n": 5,
                         "basis": {"degree_max": 4, "sphere_nodes": 2}},
                        {"kind": "sphere", "n": 3}])
    assert run(RunConfig(cfg), tmp_path) == 4
    rows = {(r["suite"], r["backend"]): r for r in
            json.loads((tmp_path / "summary.json").read_text())["results"]}
    assert len(rows) == 6
    for suite in ("signs", "green-compare"):
        row = rows[suite, masked]
        assert row["checks"] == []
        assert row["error"]["code"] == "UNSUPPORTED_BACKEND"
        assert masked in row["error"]["message"]
    for suite, backend in rows:
        if backend != masked or suite == "spectrum":
            assert "error" not in rows[suite, backend]
            assert rows[suite, backend]["checks"]
    assert len(list(tmp_path.glob("*__*.json"))) == 6


def test_each_job_logs_duration_and_margin(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="conformal_lab.cli"):
        assert run(RunConfig(BASE_CONFIG), tmp_path / "out") == 0
    jobs = [r.getMessage() for r in caplog.records
            if r.name == "conformal_lab.cli"]
    assert len(jobs) == 4
    for msg in jobs:
        m = re.fullmatch(r"\[PASS\] (\S+) on (\S+): ([\d.]+) s, worst "
                         r"asserted \|residual\|/tol (\S+)", msg)
        assert m, msg
        assert m.group(1) in ("total-q", "spectrum")
        assert float(m.group(3)) >= 0.0
        assert 0.0 <= float(m.group(4)) <= 1.0
    worst = max(float(re.search(r"tol (\S+)$", msg).group(1))
                for msg in jobs if msg.startswith("[PASS] total-q"))
    assert worst > 0.0


def test_full_config_jobs_match_the_benchmark_reference(tmp_path):
    """Every job of configs/full.json keeps the multiset of (law, asserted)
    records of the benchmark reference, which this only reads, and its
    verdict: the reference is made from passing runs only.  Paired in
    order with its reference record, no |residual| grows more than 2x,
    both floored at 1e-10 x the check's tolerance and at 1e-12, below
    which a residual is rounding."""
    reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
    jobs = reference["workloads"]["full-catalog-2t"]["jobs"]
    assert run(RunConfig.from_path(REPO / "configs" / "full.json"),
               tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    rows = {f"{r['suite']}|{r['backend']}": r for r in summary["results"]}
    assert sorted(rows) == sorted(jobs)
    for key, records in jobs.items():
        got = Counter((c["eq"], c["asserted"]) for c in rows[key]["checks"])
        assert got == Counter((law, asserted)
                              for law, asserted, _, _ in records), key
        assert rows[key]["pass"] is True, key
        for check, (law, _, ref, _) in zip(rows[key]["checks"], records):
            assert check["eq"] == law, key
            floor = max(1e-10 * check["tol"], 1e-12)
            assert max(abs(check["residual"]), floor) \
                <= 2.0 * max(abs(ref), floor), (key, law, check["residual"])


def test_job_without_asserted_check_says_so(tmp_path, caplog):
    # Q < 0 on S1 x S2 leaves the sign theorems exploratory there
    cfg = dict(BASE_CONFIG, suites=["signs"], catalog=[
        {"kind": "product-S1xS2", "params": {},
         "basis": {"degree_max": 12, "fourier_max": 6}}])
    with caplog.at_level(logging.INFO, logger="conformal_lab.cli"):
        assert run(RunConfig(cfg), tmp_path / "out") == 0
    [msg] = [r.getMessage() for r in caplog.records
             if r.name == "conformal_lab.cli"]
    assert re.fullmatch(r"\[PASS\] signs on product-S1xS2\S*: [\d.]+ s, "
                        r"no asserted check", msg), msg


def test_wrapped_suite_entries_keep_runs_and_gates(tmp_path, monkeypatch):
    """A profiler may wrap every suite entry point in a plain (m, cfg)
    function; where each suite runs is still read from the suite table."""
    from conformal_lab import verify

    assert run(RunConfig(BASE_CONFIG), tmp_path / "plain") == 0
    for name, fn in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name,
                            lambda m, cfg, fn=fn: fn(m, cfg))
    assert run(RunConfig(BASE_CONFIG), tmp_path / "wrapped") == 0
    assert (tmp_path / "plain" / "summary.json").read_bytes() == \
        (tmp_path / "wrapped" / "summary.json").read_bytes()
    path = _write(tmp_path, dict(BASE_CONFIG, suites=["mass"]))
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "none")]) == 2


def test_jobs_run_backend_by_backend_and_take_one_pass_each(tmp_path,
                                                          monkeypatch):
    """Every suite of a backend runs before the next backend's, in config
    order, and each backend takes one blow-up pass: total-q on S1xS3
    reads the Ricci defect that the 4d-identity pass left."""
    from conformal_lab import verify

    order = []
    for name, fn in list(verify.SUITES.items()):
        def recorded(m, cfg, name=name, fn=fn):
            order.append((name, m.descriptor()))
            return fn(m, cfg)
        monkeypatch.setitem(verify.SUITES, name, recorded)
    passes = []
    slabs = verify.blowup_slabs

    def counted(gf, level, resolution=None):
        passes.append((gf.manifold.descriptor(), level))
        return slabs(gf, level, resolution)

    monkeypatch.setattr(verify, "blowup_slabs", counted)
    products = [{"kind": kind, "params": {},
                 "basis": {"degree_max": 12, "fourier_max": 6}}
                for kind in ("product-S1xS2", "product-S1xS3")]
    config = RunConfig(dict(BASE_CONFIG, catalog=products, suites=[
        "weak-identity", "4d-identity", "total-q"]))
    assert run(config, tmp_path) == 0
    backends = _build_backends(config)
    assert order == [(suite, m.descriptor()) for m in backends
                     for suite in config.suites]
    assert passes == [(m.descriptor(), config.level) for m in backends]


# ----------------------------------------------------------------- catalog

def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "sphere" in out and "product-S1xS2" in out
    rows = {tuple(line.split()[:2]) for line in out.splitlines()[1:]}
    assert ("sphere", "4") in rows
    assert ("sphere", "3") in rows


def test_catalog_constants():
    text = list_catalog()
    line4 = next(l for l in text.splitlines()
                 if l.startswith("sphere") and " 4 " in f" {l.split()[1]} ")
    assert "6" in line4.split()[-2]
    line_s1xs2 = next(l for l in text.splitlines()
                      if l.startswith("product-S1xS2"))
    assert math.isclose(float(line_s1xs2.split()[-2]), -1.125)
    line3 = next(l for l in text.splitlines()
                 if l.startswith("sphere") and l.split()[1] == "3")
    assert math.isclose(float(line3.split()[-2]), 1.875)


# ------------------------------------------------------------ dependencies

_MODULES_GUARD = """
import json, sys
from conformal_lab.cli import RunConfig, run
code = run(RunConfig(json.loads(sys.argv[1])), sys.argv[2])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _fresh_run(guard: str, cfg: dict, tmp_path):
    """The last output line of ``guard``, run on ``cfg`` in a fresh
    interpreter, parsed."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", guard, json.dumps(cfg), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_does_not_import_scipy(tmp_path):
    """numpy is the only runtime dependency; scipy is a test oracle.  Nor
    does a run import ``numpy.polynomial``: the Gauss-Legendre panels
    come from the basis's own rule, or ``concurrent.futures``: the jobs
    run in the calling thread.  The run happens in a fresh interpreter
    because this one may import all three."""
    sphere5 = {"kind": "sphere", "n": 5, "basis": {"degree_max": 12}}
    cfg = dict(BASE_CONFIG, suites=["total-q", "mass"],
               catalog=BASE_CONFIG["catalog"] + [sphere5])
    code, modules = _fresh_run(_MODULES_GUARD, cfg, tmp_path)
    assert code == 0
    assert [m for m in modules if m.split(".")[0] in ("scipy", "concurrent")
            or m.startswith("numpy.polynomial")] == []


def test_an_identity_run_does_not_import_numpy_random(tmp_path):
    """The identity and total-Q suites draw nothing, their test functions
    being fixed by the backend's row, so a run of them over the product
    rows of ``configs/full.json`` never imports ``numpy.random``, which
    numpy imports on first use; a covariance run on the same rows
    does."""
    full = json.loads((REPO / "configs" / "full.json").read_text())
    products = [r for r in full["catalog"] if r["kind"] != "sphere"]
    assert len(products) == 2
    identities = dict(full, catalog=products,
                      suites=["weak-identity", "4d-identity", "total-q"])
    code, modules = _fresh_run(_MODULES_GUARD, identities, tmp_path)
    assert code == 0 and "numpy.random" not in modules
    covariance = dict(identities, suites=["covariance"], trials=1)
    code, modules = _fresh_run(_MODULES_GUARD, covariance, tmp_path)
    assert code == 0 and "numpy.random" in modules


_LAPACK_GUARD = """
import json, sys
import numpy.linalg as linalg
calls = []


def guard(name, func):
    def counted(*args, **kwargs):
        calls.append(name)
        return func(*args, **kwargs)
    return counted


for name in linalg.__all__:
    func = getattr(linalg, name)
    if callable(func) and not isinstance(func, type):
        setattr(linalg, name, guard(name, func))
from conformal_lab.cli import RunConfig, run
code = run(RunConfig(json.loads(sys.argv[1])), sys.argv[2])
print(json.dumps([code, sorted(set(calls))]))
"""


def test_run_calls_no_lapack(tmp_path):
    """A run calls no ``numpy.linalg`` routine: the Gauss-Jacobi rules
    come from Newton's method on the zonal recurrence, not ``eigvalsh``,
    and the mass route's extrapolation fits by orthogonal polynomials,
    not ``lstsq``.  A fresh interpreter wraps every public callable of
    ``numpy.linalg`` before it imports the package, then runs the mass
    on S^5 and the identities on both products."""
    sphere5 = {"kind": "sphere", "n": 5, "basis": {"degree_max": 12}}
    s1xs2 = {"kind": "product-S1xS2", "params": {},
             "basis": {"degree_max": 12, "fourier_max": 6}}
    cfg = dict(BASE_CONFIG, suites=["weak-identity", "4d-identity", "mass"],
               catalog=BASE_CONFIG["catalog"] + [sphere5, s1xs2])
    code, calls = _fresh_run(_LAPACK_GUARD, cfg, tmp_path)
    assert code == 0
    assert calls == []
