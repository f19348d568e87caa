"""Tests of the benchmark's own code: tracing, verdicts and workloads.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_of_a_nested_call_tree():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)
    with tracer.span("verify.job", job=True):
        clock.tick(1.0)
        with tracer.span("a", points=3):
            clock.tick(2.0)
            with tracer.span("b"):
                clock.tick(4.0)
            clock.tick(1.0)
        with tracer.span("b", points=5):
            clock.tick(0.5)
        clock.tick(0.25)
    with tracer.span("a", key="k"):  # outside any job
        clock.tick(8.0)
    a, b, job = (tracer.stats[k] for k in ("a", "b", "verify.job"))
    assert (a.calls, a.points, a.self_s, a.job_self_s) == (2, 3, 11.0, 3.0)
    assert (b.calls, b.points, b.self_s, b.job_self_s) == (2, 5, 4.5, 4.5)
    assert job.self_s == 1.25
    assert tracer.jobs == [("verify.job", 0.0, 8.75)]

    trace = dict(layers.dump(tracer), cpu_s=9.0, run_end=9.0,
                 tables=[3, 1], verify={"worst_margin": 0.5,
                                        "drift_log10": 0.0})
    metrics = layers.layer_metrics(trace, threads=1)
    assert metrics["trace.coverage"] == (3.0 + 4.5) / 8.75
    assert metrics["cli.makespan_s"] == 8.75
    assert metrics["cli.critical_job_share"] == 1.0
    assert metrics["cli.report_write_s"] == 0.25
    assert metrics["basis.tables.hit_ratio"] == 0.75


def test_repeat_ratio_counts_calls_on_seen_keys():
    tracer = layers.Tracer()
    for key in ("x", "y", "x", "x"):
        with tracer.span("basis.polar_values", key=key):
            pass
    st = tracer.stats["basis.polar_values"]
    assert (st.calls, st.repeats) == (4, 2)


def _package_snapshot():
    from conformal_lab import basis, green, verify
    owners = layers.package_modules() + [basis.ModeBasis, green.GreenField]
    snap = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    snap.update({("SUITES", k): v for k, v in verify.SUITES.items()})
    return snap


def test_wrappers_are_removed_completely():
    from conformal_lab import operators, verify
    before = _package_snapshot()
    original = operators.apply_P
    patcher = layers.install(layers.Tracer())
    try:
        # verify imported apply_P by name: both bindings are wrapped
        assert verify.apply_P is operators.apply_P
        assert verify.apply_P is not original
    finally:
        patcher.restore()
    after = _package_snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_job_gives_the_untraced_verdicts():
    from conformal_lab.geometry import catalog_build
    from conformal_lab.verify import run_suite
    m = catalog_build("sphere", 5, {}, {"degree_max": 8})
    plain = run_suite("signs", m).to_dict(include_runtime=False)
    tracer = layers.Tracer()
    patcher = layers.install(tracer)
    try:
        traced = run_suite("signs", m).to_dict(include_runtime=False)
    finally:
        patcher.restore()
    assert traced == plain
    assert tracer.stats["green.sign_scan"].calls > 0


def _records(*checks):
    return [[law, asserted, res, 1e-2, passed]
            for law, asserted, res, passed in checks]


def test_job_verdicts_against_the_reference():
    expected = {"s|m": [["law-a", True, 1e-4, True],
                        ["law-b", False, 2e-3, False]]}
    good = {"s|m": _records(("law-b", False, 5.0, False),
                            ("law-a", True, 1e-4, True))}
    assert run.failed_jobs(expected, good) == (1, [])
    failing = {"s|m": _records(("law-a", True, 5e-2, False),
                               ("law-b", False, 2e-3, False))}
    assert run.failed_jobs(expected, failing) == (1, ["s|m"])
    extra = dict(good, **{"t|m": _records(("law-c", True, 0.0, True))})
    assert run.failed_jobs(expected, extra) == (2, ["t|m"])
    assert run.failed_jobs(expected, {}) == (1, ["s|m"])
    assert run.failed_jobs(expected, None) == (1, ["s|m"])


def test_residual_drift_and_margin():
    expected = {"s|m": [["law-a", True, 1e-4, True],
                        ["law-a", True, 1e-2, False]]}
    got = {"s|m": _records(("law-a", True, 1e-3, True),
                           ("law-a", True, 1e-5, True))}
    assert run.residual_drift(expected, got, same_seed=False) == \
        pytest.approx(1.0)
    assert run.residual_drift(expected, got, same_seed=True) == \
        pytest.approx(3.0)
    assert run.worst_margin(got) == pytest.approx(0.1)
    # tolerance 1e-2: residuals below 1e-5 are rounding for these checks,
    # so an exact zero in the reference or the run reads as no drift
    expected = {"s|m": [["law-a", True, 0.0, True],
                        ["law-a", True, 1e-16, True],
                        ["law-a", True, 0.0, True]]}
    rounding = {"s|m": _records(("law-a", True, 1e-16, True),
                                ("law-a", True, 0.0, True),
                                ("law-a", True, -3e-6, True))}
    assert run.residual_drift(expected, rounding, same_seed=True) == 0.0
    moved = {"s|m": _records(("law-a", True, 1e-16, True),
                             ("law-a", True, 0.0, True),
                             ("law-a", True, 1e-3, True))}
    assert run.residual_drift(expected, moved, same_seed=True) == \
        pytest.approx(2.0)


def test_workload_configs_are_deterministic():
    full = workloads.load_full_config(REPO)
    pristine = copy.deepcopy(full)
    from conformal_lab.cli import RunConfig
    for name in workloads.WORKLOADS:
        a = workloads.workload_config(full, name, 7)
        assert a == workloads.workload_config(copy.deepcopy(full), name, 7)
        b = workloads.workload_config(full, name, 8)
        assert (a["seed"], b["seed"]) == (7, 8)
        assert dict(b, seed=7) == a  # the seed is the only input it moves
        RunConfig(a)
    assert full == pristine
    product = workloads.workload_config(full, "product-identities", 0)
    assert product["suites"] == ["weak-identity", "4d-identity", "total-q"]
    assert [r["kind"] for r in product["catalog"]] == list(
        workloads.PRODUCT_KINDS)


def test_benchmark_json_names_every_reported_metric():
    empty = layers.empty_trace({"worst_margin": 0.0, "drift_log10": 0.0})
    names = list(layers.layer_metrics(empty, 1)) + ["trace.overhead_s"]
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {n: layers.metric_unit(n) for n in names}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_raising_job_fails_and_every_metric_prints(tmp_path, monkeypatch,
                                                   capsys, trace):
    from conformal_lab import verify
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "full.json").write_text(json.dumps({
        "suites": ["spectrum"],
        "catalog": [{"kind": "sphere", "n": 3,
                     "basis": {"degree_max": 4}}]}))
    (tmp_path / "src").symlink_to(REPO / "src")
    monkeypatch.chdir(tmp_path)

    def boom(m, cfg):
        raise RuntimeError("job raised")

    def in_process(root, workload, seed, mode, timeout):
        result = worker.run_pass(root, workload, seed, mode,
                                 time.perf_counter())
        return dict(result, elapsed_s=0.1)

    monkeypatch.setitem(verify.SUITES, "spectrum", boom)
    monkeypatch.setattr(run, "launch", in_process)
    code = run.main(["--workload", "sphere-catalog", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    assert "failed_job_ratio" in out and "job raised" in out
    assert not (tmp_path / worker.OUT_ROOT).exists()
