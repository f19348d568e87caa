import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conformal_lab import fields as F
from conformal_lab import green, operators, verify
from conformal_lab import quadrature as Q
from conformal_lab.errors import (HypothesisFailError, KernelError,
                                  UnsupportedDimensionError)
from conformal_lab.geometry import (ConformalFactor, FieldFactor,
                                    ManifoldModel, catalog_build)
from conformal_lab.spectrum import paneitz_spectrum_check
from conformal_lab.verify import (SUITES, check_4d_identity, check_covariance,
                                  check_green_compare, check_mass,
                                  check_sign_theorems, check_spectrum_claims,
                                  check_total_q, check_weak_identity,
                                  default_test_functions, run_suite)


# ------------------------------------------------------------ weak identity

def test_weak_identity_sphere5(sphere5):
    report = check_weak_identity(sphere5, level=2)
    assert report.passed
    main = [c for c in report.checks if c.law == "weak-identity"]
    assert len(main) == 6
    assert all(abs(c.residual) < 1e-10 for c in main)


def test_weak_identity_sphere3(sphere3):
    report = check_weak_identity(sphere3, level=2)
    assert report.passed


def test_weak_identity_product_converges(s1xs2):
    worst = []
    for level in (0, 1, 2):
        report = check_weak_identity(s1xs2, level=level)
        assert report.passed
        worst.append(max(abs(c.residual) for c in report.checks
                         if c.law == "weak-identity"))
    assert worst[0] > worst[1] > worst[2]
    assert worst[0] < 1e-2


@pytest.mark.parametrize("length", [0.5, 40.0])
def test_weak_identity_follows_the_circle_length(length):
    """The far rectangle's panels follow the cut-off band at every circle
    length: at level 2 the worst residual reads 4.0e-9 (l = 0.5) and
    2.4e-10 (l = 40); with 32 panels per axis whatever the length it
    read 1.7e-2 and 1.0e-2, failing the bound 1e-2."""
    m = catalog_build("product-S1xS2", None, {"length": length},
                      {"degree_max": 16, "fourier_max": 8})
    report = check_weak_identity(m)
    assert report.passed
    assert max(_weak_residuals(report)) < 1e-7


def _weak_residuals(report):
    return [abs(c.residual) for c in report.checks if c.law == "weak-identity"]


def test_weak_identity_sees_a_one_entry_symbol_mutation(sphere5, s1xs2,
                                                        monkeypatch):
    """Scaling one entry of the P table by 1 + 1e-6 must show: it fails the
    sphere identity (worst margin 2.3e-7 -> 100) and, inside the product
    bound, multiplies the worst product residual by about 2,900."""
    clean = max(_weak_residuals(check_weak_identity(s1xs2)))
    table = operators.build_symbol

    def mutated(m, operator):
        out = table(m, operator)
        if operator == "P":
            out = out.copy()
            out.flat[2] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(operators, "build_symbol", mutated)
    assert not check_weak_identity(sphere5).passed
    report = check_weak_identity(s1xs2)
    assert report.passed
    assert max(_weak_residuals(report)) >= 100.0 * clean


def test_weak_identity_sees_a_dropped_image(s1xs2, monkeypatch):
    """Without its j = +/-1 images the product G_L leaves a weak-identity
    residual of 1.21 against the bound 1e-2 (3.2e-10 with them).  The
    pair is dropped because the identities read the density on the
    ds > 0 half of the rule: an error odd in ds does not reach them,
    and ``test_parity_of_the_image_kernel`` catches a one-sided drop."""
    sums = green._ProductImageKernelL._sums

    def without_first_images(self, ds, chi, jets):
        full = sums(self, ds, chi, jets)
        cutoff, self.cutoff = self.cutoff, 0
        try:  # the j = +/-1 images are the j = 0 term one circle either way
            ds = np.asarray(ds, dtype=float)
            for shift in (self.ell, -self.ell):
                full = [f - i for f, i in zip(
                    full, sums(self, ds + shift, chi, jets))]
        finally:
            self.cutoff = cutoff
        return full

    monkeypatch.setattr(green._ProductImageKernelL, "_sums",
                        without_first_images)
    report = check_weak_identity(s1xs2)
    assert not report.passed
    assert max(_weak_residuals(report)) > 100.0 * report.checks[0].tolerance


def test_weak_identity_rejects_dimension4(sphere4):
    with pytest.raises(UnsupportedDimensionError):
        check_weak_identity(sphere4)


class _IndefiniteModel(ManifoldModel):
    """A stand-in whose conformal Laplacian has a negative bottom."""

    @property
    def scalar_curvature(self):
        return -1.0


def test_hypothesis_gate_raises(sphere5):
    bad = _IndefiniteModel(sphere5.kind, sphere5.n, sphere5.radius,
                           sphere5.length, sphere5.basis)
    assert not paneitz_spectrum_check(bad).yamabe_positive
    with pytest.raises(HypothesisFailError):
        check_weak_identity(bad)


# ------------------------------------------------------------- 4d identity

def test_4d_identity_sphere(sphere4):
    report = check_4d_identity(sphere4, level=2)
    assert report.passed
    assert all(abs(c.residual) < 1e-8 for c in report.checks)


def test_4d_identity_product(s1xs3):
    report = check_4d_identity(s1xs3, level=1)
    assert report.passed


def test_4d_identity_rejects_other_dimensions(sphere5):
    with pytest.raises(UnsupportedDimensionError):
        check_4d_identity(sphere5)


# ----------------------------------------------------------------- total Q

def test_total_q_round_sphere(sphere4):
    report = check_total_q(sphere4)
    assert report.passed
    assert report.resolution["verdict"] == "EQUALITY"
    assert abs(report.resolution["total_q"] - 16 * math.pi ** 2) < 1e-8
    assert abs(report.resolution["defect"]) < 1e-10


def test_total_q_product_strict(s1xs3):
    report = check_total_q(s1xs3, level=1)
    assert report.passed
    assert report.resolution["verdict"] == "STRICT"
    assert abs(report.resolution["total_q"]) < 1e-10
    target = 16 * math.pi ** 2
    assert abs(report.resolution["defect"] - target) < 0.02 * target


def test_total_q_conformally_perturbed_sphere(sphere4, rng):
    """The total stays 16 pi^2 under random conformal perturbations."""
    target = 16 * math.pi ** 2
    for _ in range(5):
        w = F.random_bandlimited(sphere4.basis, rng, degree=3, amplitude=0.1)
        factor = FieldFactor(sphere4, w)
        report = check_total_q(sphere4, factor=factor, tolerance=1e-3)
        assert report.passed
        total = report.resolution["total_q"] + report.resolution["defect"]
        assert abs(total - target) < 1e-3 * target



def test_total_q_integrand_takes_no_conformal_weight(sphere4, rng,
                                                      monkeypatch):
    """The conformal weights cancel in dimension four, so the defect
    density is built without evaluating the factor."""
    w = F.random_bandlimited(sphere4.basis, rng, degree=3, amplitude=0.1)
    factor = FieldFactor(sphere4, w)
    state = {"inside": False, "blocks": 0, "w_at_inside": 0}
    orig_w_at = ConformalFactor.w_at
    orig_density = verify._blowup_density

    def counting_w_at(self, *points):
        state["w_at_inside"] += state["inside"]
        return orig_w_at(self, *points)

    def marking(m, level):
        state["inside"] = True
        try:
            blocks, resolution = orig_density(m, level)
        finally:
            state["inside"] = False
        state["blocks"] += len(blocks)
        return blocks, resolution

    monkeypatch.setattr(ConformalFactor, "w_at", counting_w_at)
    monkeypatch.setattr(verify, "_blowup_density", marking)
    report = check_total_q(sphere4, factor=factor, tolerance=1e-3)
    assert report.passed
    assert state["blocks"] > 0
    assert state["w_at_inside"] == 0

# -------------------------------------------------------------- covariance

@pytest.mark.parametrize("fixture,laws", [
    ("sphere5", {"bilinear-covariance", "green-transport", "blowup-measure",
                 "difference-transport"}),
    ("sphere3", {"bilinear-covariance", "green-transport", "blowup-measure",
                 "difference-transport"}),
    ("sphere4", {"green-transport", "pointwise-covariance-4d",
                 "q-transform-4d", "defect-measure-4d"}),
])
def test_covariance_laws_pass_on_spheres(fixture, laws, request):
    m = request.getfixturevalue(fixture)
    report = check_covariance(m, trials=10, seed=0)
    assert report.passed
    assert {c.law for c in report.checks} == laws
    for c in report.checks:
        assert abs(c.residual) <= 1e-8, (c.law, c.residual)


def test_covariance_identity_factor_is_exact(sphere5):
    """With the trivial factor both routes coincide to rounding."""
    from conformal_lab.operators import (conformal_quadratic_form_E,
                                         quadratic_form_E)
    rng = np.random.default_rng(0)
    phi = F.random_bandlimited(sphere5.basis, rng, degree=6)
    psi = F.random_bandlimited(sphere5.basis, rng, degree=6)
    identity = FieldFactor(sphere5, sphere5.constant(0.0))
    lhs = conformal_quadratic_form_E(sphere5, identity, phi, psi)
    rhs = quadratic_form_E(sphere5, phi, psi)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_covariance_on_product(s1xs3, s1xs2):
    for m in (s1xs3, s1xs2):
        report = check_covariance(m, trials=5, seed=0)
        assert report.passed
        assert report.checks


def test_covariance_with_pinned_factor(sphere5, rng):
    w = F.random_bandlimited(sphere5.basis, rng, degree=3, amplitude=0.08)
    factor = FieldFactor(sphere5, w)
    report = check_covariance(sphere5, factor=factor, trials=3, seed=1)
    assert report.passed


# ------------------------------------------------------------ sign theorems

def test_sign_theorems_asserted_on_spheres(sphere3, sphere5):
    for m, want in ((sphere5, "POSITIVE"), (sphere3, "NEGATIVE")):
        report = check_sign_theorems(m)
        assert report.passed
        assert all(c.asserted for c in report.checks)
        assert all(f"verdict={want}" in c.detail for c in report.checks)


def test_sign_theorems_exploratory_on_s1xs2(s1xs2):
    """Q < 0 breaks the hypothesis ledger: record only, never assert."""
    report = check_sign_theorems(s1xs2)
    assert report.passed  # exploratory records cannot fail
    assert not any(c.asserted for c in report.checks)
    assert not report.hypotheses["q_nonnegative"]


def test_sign_theorems_record_kernel_obstruction(sphere5, s1xs2,
                                                 monkeypatch):
    def obstructed(*args, **kw):
        raise KernelError("zero mode")

    monkeypatch.setattr(verify, "green_field", obstructed)
    # under the theorems' hypotheses a kernel that cannot be built fails
    report = check_sign_theorems(sphere5)
    assert report.checks and not report.passed
    assert all(c.asserted and not c.passed for c in report.checks)
    assert all("KernelError: zero mode" in c.detail for c in report.checks)
    # where the hypotheses fail it stays an exploratory record
    report = check_sign_theorems(s1xs2)
    assert report.checks and report.passed
    assert not any(c.asserted for c in report.checks)
    assert all("KernelError: zero mode" in c.detail for c in report.checks)


def test_sign_theorems_propagate_other_errors(sphere5, monkeypatch):
    def broken(*args, **kw):
        raise RuntimeError("bug in transport")

    monkeypatch.setattr(verify, "green_field", broken)
    with pytest.raises(RuntimeError, match="bug in transport"):
        check_sign_theorems(sphere5)


# ------------------------------------------------------- quadrature passes

def _count_blocks(monkeypatch, name):
    """Record, per call of ``quadrature.<name>``, the point count of each
    node block of the rule it returns."""
    calls = []
    orig = getattr(Q, name)

    def counting(*args, **kw):
        rule = orig(*args, **kw)
        calls.append([int(np.broadcast(*pts).size) for pts, _ in rule])
        return rule

    monkeypatch.setattr(Q, name, counting)
    return calls


def test_weak_identity_takes_one_pass_on_product(s1xs2, monkeypatch):
    calls = _count_blocks(monkeypatch, "product_blocks")
    jets = []
    orig_jets = green._GreenLogProfile.jets

    def counting_jets(self, points=None):
        jets.append(int(np.broadcast(*points).size))
        return orig_jets(self, points)

    monkeypatch.setattr(green._GreenLogProfile, "jets", counting_jets)
    report = check_weak_identity(s1xs2, level=1)
    assert report.passed
    assert len(calls) == 1
    assert len(calls[0]) == 2  # near patch and far rectangle
    assert jets == calls[0]


@pytest.mark.parametrize("suite, fixture, rule", [
    ("weak-identity", "s1xs2", "product_blocks"),
    ("4d-identity", "s1xs3", "product_blocks"),
    ("total-q", "s1xs3", "product_blocks"),
    ("weak-identity", "sphere5", "sphere_blocks"),
    ("total-q", "sphere4", "sphere_blocks"),
])
def test_resolution_records_the_nodes_the_integrand_received(
        suite, fixture, rule, request, monkeypatch):
    """The nodes of the graded ``rule``, whose blocks the blow-up density
    of the suite is built on."""
    m = request.getfixturevalue(fixture)
    calls = _count_blocks(monkeypatch, rule)
    report = run_suite(suite, m, {"level": 1})
    assert len(calls) == 1
    res = report.resolution
    assert res["nodes"] == calls[0]
    assert res["graded_depth"] == (24 if m.is_product else 32)
    if m.is_product:
        assert res["images"] == green.green_field(m, "L").cutoff > 0
        assert res["mirror"] == "s"  # the nodes of the ds > 0 half
    else:
        assert "images" not in res and "mirror" not in res


def test_4d_and_total_q_share_one_density(s1xs3, monkeypatch):
    """4d-identity then total-q on S1xS3 sum the image kernel once per
    node block, two calls and not four, and the defect total-q reads
    from the shared density is the one it finds alone, bit for bit."""
    alone = check_total_q(s1xs3).resolution["defect"]
    monkeypatch.setattr(verify, "_DENSITIES", {})
    calls = []
    sums = green._ProductImageKernelL._sums

    def counted(self, ds, chi, jets):
        calls.append(jets)
        return sums(self, ds, chi, jets)

    monkeypatch.setattr(green._ProductImageKernelL, "_sums", counted)
    assert check_4d_identity(s1xs3).passed
    report = check_total_q(s1xs3)
    assert report.passed
    assert calls == [True, True]
    assert report.resolution["defect"] == alone


# ----------------------------------------------------------------- spectrum

def test_spectrum_suite(sphere5, sphere3, s1xs3, s1xs2):
    for m in (sphere5, sphere3):
        report = check_spectrum_claims(m)
        assert report.passed
        laws = {c.law for c in report.checks}
        assert {"extremal-simple", "extremal-sign-definite",
                "modulus-ordering", "kernel-trivial"} <= laws
    r4 = check_spectrum_claims(s1xs3)
    assert r4.passed
    assert any(c.law == "kernel-vs-constants" and c.passed for c in r4.checks)
    r2 = check_spectrum_claims(s1xs2)
    assert r2.passed
    assert any(not c.asserted for c in r2.checks)


# ------------------------------------------------------------ green compare

def test_green_compare_suite(sphere5, sphere3):
    for m in (sphere5, sphere3):
        report = check_green_compare(m)
        assert report.passed
        assert all("equality=True" in c.detail for c in report.checks)


def test_image_counts_in_theorem_resolution(s1xs2, sphere5):
    """One G_P image count per pole on products, none on spheres."""
    images = green.green_eigen_expansion(s1xs2, "P").cutoff
    assert images == green.green_eigen_expansion(s1xs2, "L").cutoff == 9
    for report in (check_sign_theorems(s1xs2), check_green_compare(s1xs2)):
        res = report.resolution
        assert res["images"] == [images] * len(res["poles"])
    for report in (check_sign_theorems(sphere5), check_green_compare(sphere5)):
        assert "images" not in report.resolution


def test_theorem_hypotheses_gate_all_three_suites(sphere4, sphere5, s1xs2):
    ledger = paneitz_spectrum_check(sphere4)
    assert ledger.yamabe_positive and ledger.q > ledger.threshold
    # n = 4 alone makes the theorem checks exploratory
    assert not ledger.theorems_hold
    assert any(c.law == "spectrum-exploratory"
               for c in check_spectrum_claims(sphere4).checks)
    assert paneitz_spectrum_check(sphere5).theorems_hold
    assert not paneitz_spectrum_check(s1xs2).theorems_hold
    assert not any(c.asserted for c in check_green_compare(s1xs2).checks)
    assert all(c.asserted for c in check_green_compare(sphere5).checks)


def test_theorem_gate_does_not_depend_on_the_size_of_the_metric():
    """Q = 13.125 / a^4 on S^5(a) is 8.2e-13 at a = 2000, and eigenvalues
    there are about 1e-11 apart: Q > 0 and the simple extremal eigenvalue
    must still read so, with every theorem check asserted."""
    laws = {}
    for radius in (1.0, 1000.0, 2000.0):
        m = catalog_build("sphere", 5, {"radius": radius}, {"degree_max": 24})
        assert paneitz_spectrum_check(m).theorems_hold
        laws[radius] = {suite: [(c.law, c.asserted, c.passed)
                                for c in run_suite(suite, m).checks]
                        for suite in ("signs", "spectrum", "green-compare")}
    assert laws[1000.0] == laws[1.0] and laws[2000.0] == laws[1.0]
    assert all(asserted and passed for records in laws[1.0].values()
               for _, asserted, passed in records)


def test_concurrent_jobs_build_one_ledger(sphere5, monkeypatch):
    """Eight threads asking at once for a backend's ledger build it once
    and all receive that one object."""
    from conformal_lab import spectrum

    calls = []
    lambda1 = spectrum.lambda1_L

    def counted(m):
        calls.append(m)
        return lambda1(m)

    monkeypatch.setattr(spectrum, "lambda1_L", counted)
    monkeypatch.setattr(verify, "_LEDGERS", {})
    ledgers = []
    start = threading.Barrier(8)

    def job():
        start.wait(timeout=10)
        ledgers.append(verify._ledger(sphere5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=job) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1 and len(ledgers) == 8
    assert all(ledger is ledgers[0] for ledger in ledgers)


def test_concurrent_jobs_read_one_density(sphere5):
    """Eight threads asking at once for a blow-up density may each build
    one, unlocked, but all receive the one stored first, read-only."""
    densities = []
    start = threading.Barrier(8)

    def job():
        start.wait(timeout=10)
        densities.append(verify._blowup_density(sphere5, 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=job) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(densities) == 8
    assert all(d is densities[0] for d in densities)
    assert densities[0] is verify._DENSITIES[(sphere5, 1)]
    (block,) = densities[0][0]
    assert not any(arr.flags.writeable for arr in (*block[0], *block[1:]))


# --------------------------------------------------------------------- mass

def test_mass_suite(sphere5):
    report = check_mass(sphere5)
    assert report.passed
    assert {c.law for c in report.checks} == {
        "mass-expansion-base", "mass-integral-base",
        "mass-expansion-moebius", "mass-integral-moebius"}


# ---------------------------------------------------------------- reporting

def test_report_json_schema(sphere4):
    report = check_total_q(sphere4)
    data = json.loads(report.to_json())
    assert set(data) == {"suite", "backend", "checks", "hypotheses",
                         "resolution", "asserted_checks", "runtime_s"}
    for c in data["checks"]:
        assert {"eq", "residual", "tol", "pass", "asserted"} <= set(c)
    data = report.to_dict(include_runtime=False)
    assert "runtime_s" not in data


def test_reports_count_their_asserted_checks(sphere4, s1xs2):
    """S1xS2 has Q < 0, so its theorem suites assert nothing."""
    assert check_total_q(sphere4).to_dict()["asserted_checks"] == 1
    for suite in ("signs", "green-compare"):
        report = run_suite(suite, s1xs2).to_dict()
        assert report["checks"] and report["asserted_checks"] == 0, suite


def test_default_test_functions(sphere5, s1xs2):
    for m in (sphere5, s1xs2):
        fns = default_test_functions(m)
        assert len(fns) == 6
        assert float(np.max(np.abs(fns[0].grid_values - 1.0))) < 1e-12


def test_suite_registry_compatibility(sphere4, sphere5):
    assert run_suite("weak-identity", sphere4) is None
    assert run_suite("4d-identity", sphere5) is None
    assert run_suite("mass", sphere4) is None
    assert set(SUITES) == {"weak-identity", "4d-identity", "total-q",
                           "covariance", "signs", "spectrum",
                           "green-compare", "mass"}


# the backends of configs/full.json, in catalog order
FULL_BACKENDS = ("S3", "S4", "S5", "S6", "S7", "S1xS2", "S1xS3")

# where each suite runs on them: 36 (suite, backend) pairs of the 56
RUNS_ON = {
    "weak-identity": {"S3", "S5", "S6", "S7", "S1xS2"},
    "4d-identity": {"S4", "S1xS3"},
    "total-q": {"S4", "S1xS3"},
    "covariance": set(FULL_BACKENDS),
    "signs": {"S3", "S5", "S6", "S7", "S1xS2"},
    "spectrum": set(FULL_BACKENDS),
    "green-compare": {"S3", "S5", "S6", "S7", "S1xS2"},
    "mass": {"S5", "S6", "S7"},
}

GATED_CHECKS = {
    "weak-identity": check_weak_identity,
    "4d-identity": check_4d_identity,
    "total-q": check_total_q,
    "signs": check_sign_theorems,
    "green-compare": check_green_compare,
    "mass": check_mass,
}


def test_suite_table_is_the_only_gate():
    config = Path(__file__).resolve().parent.parent / "configs" / "full.json"
    catalog = json.loads(config.read_text())["catalog"]
    backends = dict(zip(FULL_BACKENDS, (
        catalog_build(r["kind"], r.get("n"), r.get("params"), r.get("basis"))
        for r in catalog)))
    assert len(backends) == len(catalog)
    assert sum(len(on) for on in RUNS_ON.values()) == 36
    assert set(RUNS_ON) == set(SUITES)
    assert set(GATED_CHECKS) == {s for s, on in RUNS_ON.items()
                                 if on != set(FULL_BACKENDS)}
    for suite, runs_on in RUNS_ON.items():
        for label, m in backends.items():
            on = label in runs_on
            assert verify.DECLARATIONS[suite].applies(m) == on, (suite, label)
            report = run_suite(suite, m, {"level": 1, "trials": 2})
            assert (report is not None) == on, (suite, label)
            if suite in GATED_CHECKS and not on:
                with pytest.raises(UnsupportedDimensionError):
                    GATED_CHECKS[suite](m)


def test_weak_identity_determinism(sphere5):
    r1 = check_weak_identity(sphere5, level=1)
    r2 = check_weak_identity(sphere5, level=1)
    assert [c.residual for c in r1.checks] == [c.residual for c in r2.checks]
