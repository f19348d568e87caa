"""Acceptance suite: one test per advertised guarantee, stated tolerances.

Each test prints a single [PASS]/[FAIL] line so a plain pytest -s run
doubles as the acceptance report.  Everything here runs at desk scale;
the full module finishes in well under ten minutes.
"""

import math
import time

import numpy as np
import pytest

from conformal_lab.geometry import MoebiusFactor, Pole, catalog_build
from conformal_lab.green import (comparison_constant, extract_mass,
                                 green_field)
from conformal_lab.spectrum import paneitz_spectrum_check
from conformal_lab.verify import (check_covariance, check_sign_theorems,
                                  check_total_q, check_weak_identity)

TARGET = 16.0 * math.pi ** 2


def _report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_constant_consistency():
    c3 = comparison_constant(3)
    ok = abs(c3 + 256.0 * math.pi ** 2) <= 1e-12 * 256.0 * math.pi ** 2
    _report(1, "dimension-3 comparison constant equals -256 pi^2 "
               "to 1e-12 relative", ok)


def test_criterion_2_round_sphere4_total_q(sphere4):
    t0 = time.perf_counter()
    report = check_total_q(sphere4)
    elapsed = time.perf_counter() - t0
    res = report.resolution
    ok = (abs(res["total_q"] - TARGET) < 1e-8 * TARGET
          and abs(res["defect"]) < 1e-8 * TARGET
          and res["verdict"] == "EQUALITY"
          and report.passed and elapsed < 5.0)
    _report(2, f"round S4 total Q = 16 pi^2 (residual "
               f"{abs(res['total_q'] - TARGET) / TARGET:.2e}, defect "
               f"{res['defect']:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_3_s1xs3_defect_identity(s1xs3):
    t0 = time.perf_counter()
    errs = []
    for level in (0, 1, 2):
        report = check_total_q(s1xs3, level=level)
        res = report.resolution
        assert abs(res["total_q"]) < 1e-10
        errs.append(abs(res["defect"] - TARGET) / TARGET)
    elapsed = time.perf_counter() - t0
    ok = (errs[0] < 0.02 and errs[0] > errs[1] > errs[2]
          and elapsed < 300.0)
    _report(3, f"S1(2pi) x S3 defect -> 16 pi^2 within 2% and improving "
               f"(rel errs {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}, "
               f"{elapsed:.1f}s)", ok)


def test_criterion_4_sphere5_proportionality(sphere5):
    gL = green_field(sphere5, "L")
    gP = green_field(sphere5, "P")
    keep = ~sphere5.near_pole(gL.pole)
    (theta,) = sphere5.grid_points()
    theta = theta[keep]
    vL = gL.values_at(theta) ** (1.0 / 3.0)
    vP = gP.values_at(theta)
    diff = np.max(np.abs(comparison_constant(5) * vP - vL))
    ok = diff < 1e-8 * np.max(vL)
    _report(4, f"S5 kernels proportional off the pole "
               f"(max deviation {diff:.2e} vs scale {np.max(vL):.3g})", ok)


def test_criterion_5_sphere3_equality_including_diagonal(sphere3):
    gL = green_field(sphere3, "L")
    gP = green_field(sphere3, "P")
    # theta = 0 is the diagonal limit: both terms vanish there
    theta = np.concatenate([[0.0, 1e-9], sphere3.basis.polar_angles(),
                            [math.pi]])
    with np.errstate(divide="ignore"):
        vals = 1.0 / gL.values_at(theta) \
            + 256.0 * math.pi ** 2 * gP.values_at(theta)
    scale = float(1.0 / gL.values_at(np.array([math.pi]))[0])
    worst = float(np.max(np.abs(vals)))
    ok = worst < 1e-8 * scale
    _report(5, f"S3 equality G_L^-1 + 256 pi^2 G_P = 0 incl. diagonal "
               f"(worst {worst:.2e})", ok)


def test_criterion_6_weak_identity_on_product(s1xs2):
    worst = []
    for level in (0, 1, 2):
        report = check_weak_identity(s1xs2, level=level)
        res = [abs(c.residual) for c in report.checks
               if c.law == "weak-identity"]
        assert len(res) >= 5
        worst.append(max(res))
    ok = worst[2] < 1e-2 and worst[0] > worst[1] > worst[2]
    _report(6, f"S1(2pi) x S2 weak identity < 1% over "
               f"{len(res)} test functions, decreasing "
               f"({worst[0]:.2e} > {worst[1]:.2e} > {worst[2]:.2e})", ok)


def test_criterion_7_covariance_suite(sphere5, sphere4):
    wanted = {
        "bilinear-covariance": None, "green-transport": None,
        "blowup-measure": None, "pointwise-covariance-4d": None,
        "q-transform-4d": None, "difference-transport": None,
    }
    for m in (sphere5, sphere4):
        report = check_covariance(m, trials=10, seed=0)
        for c in report.checks:
            if c.law in wanted:
                prev = wanted[c.law]
                wanted[c.law] = max(prev or 0.0, abs(c.residual)) \
                    if prev is not None else abs(c.residual)
    missing = [k for k, v in wanted.items() if v is None]
    ok = not missing and all(v <= 1e-8 for v in wanted.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in wanted.items())
    _report(7, f"six covariance laws at 1e-8 scale over 10 seeded trials "
               f"({detail})", ok)


def test_criterion_8_sign_theorems(sphere3, sphere5, s1xs2):
    ok = True
    for n in (5, 6, 7):
        m = sphere5 if n == 5 else catalog_build("sphere", n, {},
                                                 {"degree_max": 16})
        report = check_sign_theorems(m)
        ok = ok and report.passed and all(c.asserted for c in report.checks)
        ok = ok and all("verdict=POSITIVE" in c.detail for c in report.checks)
    report = check_sign_theorems(sphere3)
    ok = ok and report.passed and all("verdict=NEGATIVE" in c.detail
                                      for c in report.checks)
    exploratory = check_sign_theorems(s1xs2)
    ok = ok and exploratory.passed \
        and not any(c.asserted for c in exploratory.checks)
    _report(8, "kernels positive on S5/S6/S7 (+transports), negative on S3 "
               "(+transports), exploratory on S1 x S2", ok)


def test_criterion_9_spectral_claims(sphere5, s1xs3):
    s5 = paneitz_spectrum_check(sphere5)
    lo, hi = s5.eigenfunction_range
    ok = (s5.smallest_positive is not None and s5.smallest_positive[1] == 1
          and lo > 0 and hi > 0 and s5.ordering_holds
          and s5.largest_negative is None)
    s4 = paneitz_spectrum_check(s1xs3)
    ok = ok and s4.kernel_dimension == 1 and s4.kernel_is_constants
    _report(9, "S5 smallest positive eigenvalue simple with positive "
               "eigenfunction and dominated negatives (vacuous); "
               "S1 x S3 kernel = constants", ok)


def test_criterion_10_mass_vanishes(sphere5):
    res_base = extract_mass(sphere5, Pole(1))
    factor = MoebiusFactor(sphere5, 1.3)
    res_t = extract_mass(sphere5, Pole(1), factor)
    vals = [res_base["A_expansion"], res_base["A_integral"],
            res_t["A_expansion"], res_t["A_integral"]]
    ok = all(abs(v) < 1e-6 for v in vals)
    _report(10, f"mass vanishes on S5 and its Moebius transport, both "
                f"routes (|A| max {max(abs(v) for v in vals):.2e})", ok)
