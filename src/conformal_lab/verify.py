"""Verification suites tying operators, curvature, and Green's functions.

Each suite produces a ``VerificationReport`` whose check records carry a
law tag, a residual, a tolerance, and whether the check is asserted.
Assertions are gated on the hypothesis ledger (sign of the first
conformal-Laplacian eigenvalue, sign of Q): when a hypothesis fails the
check is still run and reported, but marked exploratory and never counted
as a failure.

All identities are tested in weak form, paired against smooth test
functions; singular integrands are handled by the graded quadrature of
:mod:`conformal_lab.quadrature`.  Tolerances default to 1e-8 times the
check scale on closed-form (sphere) backends and 1-2 percent on
eigen-expansion (product) backends, where truncation dominates.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import fields as F
from . import quadrature as Q
from .errors import (CutoffTooLowError, HypothesisFailError, KernelError,
                     UnsupportedDimensionError)
from .geometry import (ConformalFactor, ManifoldModel, Pole, conformal_q,
                       conformal_q_from_curvature, conformal_ricci,
                       ricci_from_jets)
from .green import (comparison_constant, compare_green, extract_mass,
                    green_field, green_sphere_closed_form, sign_scan,
                    transport_green)
from .operators import (apply_P, conformal_quadratic_form_E,
                        quadratic_form_E)
from .spectrum import expected_sign, lambda1_L, paneitz_spectrum_check

__all__ = [
    "CheckRecord",
    "Suite",
    "VerificationReport",
    "applies",
    "check_4d_identity",
    "check_covariance",
    "check_sign_theorems",
    "check_total_q",
    "check_weak_identity",
    "default_test_functions",
    "hypotheses_for",
    "run_suite",
    "SUITES",
]

SPHERE_TOL = 1e-8
PRODUCT_TOL = 1e-2


# ------------------------------------------------------------------ reports

@dataclass
class CheckRecord:
    law: str
    residual: float
    tolerance: float
    passed: bool
    asserted: bool = True
    detail: str = ""

    def to_dict(self) -> dict:
        return {"eq": self.law, "residual": self.residual,
                "tol": self.tolerance, "pass": self.passed,
                "asserted": self.asserted, "detail": self.detail}


@dataclass
class VerificationReport:
    suite: str
    backend: str
    checks: list
    hypotheses: dict
    resolution: dict
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        """True when every asserted check passes."""
        return all(c.passed for c in self.checks if c.asserted)

    def to_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "backend": self.backend,
            "checks": [c.to_dict() for c in self.checks],
            "hypotheses": self.hypotheses,
            "resolution": self.resolution,
        }
        if include_runtime:
            out["runtime_s"] = self.runtime_s
        return out

    def to_json(self, include_runtime: bool = True) -> str:
        return json.dumps(self.to_dict(include_runtime), indent=2)


def _record(law, residual, tol, asserted=True, detail=""):
    return CheckRecord(law, float(residual), float(tol),
                       bool(abs(residual) <= tol), asserted, detail)


def hypotheses_for(m: ManifoldModel) -> dict:
    """The gating ledger: Yamabe sign via lambda_1, Q-sign status."""
    lam1 = lambda1_L(m)
    q = m.q_value
    return {
        "lambda1_L": lam1,
        "yamabe_positive": bool(lam1 > 0),
        "q_min": q,
        "q_max": q,
        "q_nonnegative": bool(q >= -1e-12),
        "q_not_identically_zero": bool(abs(q) > 1e-12),
    }


def default_test_functions(m: ManifoldModel, seed: int = 0):
    """Constants, the first low modes, and one seeded random field."""
    b = m.basis
    fns = [m.constant(1.0)]
    if b.is_product:
        picks = [(0, 1), (1, 0), (1, 1), (0, 2)]
        for j, mm in picks:
            c = np.zeros((b.circle_mode_count, b.sphere_mode_count))
            c[j, mm] = 1.0
            fns.append(F.synthesize(F.field_from_modes(b, c)))
        rng = np.random.default_rng(seed)
        fns.append(F.random_bandlimited(b, rng, degree=4, fourier=3))
    else:
        for l in range(1, 5):
            c = np.zeros(b.sphere_mode_count)
            c[l] = 1.0
            fns.append(F.synthesize(F.field_from_modes(b, c)))
        rng = np.random.default_rng(seed)
        fns.append(F.random_bandlimited(b, rng, degree=6))
    return fns


def _theorems_asserted(m: ManifoldModel, hyp: dict) -> bool:
    """The hypotheses of the sign and comparison theorems: a positive
    Yamabe sign, Q >= 0 not identically zero, and n != 4."""
    return bool(hyp["yamabe_positive"] and hyp["q_nonnegative"]
                and hyp["q_not_identically_zero"] and m.n != 4)


def _degree_sum_record(pole: Pole, cutoff, tail_estimate) -> dict:
    """Resolution entry of one pole's G_P degree sum on a product."""
    return {"pole": pole.label(), "cutoff": cutoff,
            "tail_estimate": tail_estimate}


def _require_positive_yamabe(m: ManifoldModel, hyp: dict):
    if not hyp["yamabe_positive"]:
        raise HypothesisFailError(
            f"lambda1(L) = {hyp['lambda1_L']:.3g} <= 0 on {m.descriptor()}")


def _manifold_integral(m, fn, pole, level, gL):
    """Graded integral around the pole of ``gL`` and its resolution."""
    resolution = {}
    integral = (Q.product_singular_integral if m.is_product
                else Q.sphere_zonal_integral)
    value = integral(m, fn, pole, level=level, resolution=resolution)
    if m.is_product:
        resolution["images"] = gL.cutoff
    return value, resolution


def _paired_integrals(m, pole, level, gL, profile, fns, weights):
    """int a P(phi) dmu and int c phi dmu for every test function phi.

    ``weights(G_L, |Ric_blowup|^2)`` gives the node weights (a, c).  All
    test functions share one graded pass: the integrand evaluates the node
    data once per block and returns the columns [P(phi)..., phi...].  The
    profile w = scale * log G_L of the blow-up metric also gives G_L, so
    the kernel is summed once per block.
    """
    p_fns = [apply_P(m, phi) for phi in fns]
    k = len(fns)

    def integrand(*pts):
        w, grad, hess = profile.jets(pts)
        comps = ricci_from_jets(m, grad, hess)
        a, c = weights(np.exp(w / profile.scale),
                       F.frame_dot(m.basis, comps, comps))
        vals = F.evaluate(p_fns + fns, *pts)
        vals[..., :k] *= a[..., None]
        vals[..., k:] *= c[..., None]
        return vals

    totals, resolution = _manifold_integral(m, integrand, pole, level, gL)
    return totals[:k], totals[k:], resolution


# ----------------------------------------------------------- weak identity

def check_weak_identity(m: ManifoldModel, pole: Pole | None = None,
                        test_functions=None, level: int = 2,
                        tolerance: float | None = None,
                        seed: int = 0) -> VerificationReport:
    """Distributional identity for the fourth-order operator, n != 4.

    For each test function phi the residual of

      int G_L^s P(phi) dmu  =  c_n phi(p)
          - ((n-4)/(n-2)^2) int G_L^s |Ric_blowup|^2 phi dmu,

    with s = (n-4)/(n-2) and the blow-up metric G_L^{4/(n-2)} g, is
    measured against the scale of its largest term.
    """
    t0 = time.perf_counter()
    _require_applies("weak-identity", m)
    n = m.n
    hyp = hypotheses_for(m)
    _require_positive_yamabe(m, hyp)
    pole = pole or Pole()
    if tolerance is None:
        tolerance = PRODUCT_TOL if m.is_product else SPHERE_TOL
    s = (n - 4.0) / (n - 2.0)
    cn = comparison_constant(n)
    gL = green_field(m, "L", pole)
    fns = test_functions or default_test_functions(m, seed)
    pole_pt = [np.array([c]) for c in m.pole_coordinates(pole)]

    t_mains, t_riccis, resolution = _paired_integrals(
        m, pole, level, gL, gL.log_profile(2.0 / (n - 2.0)), fns,
        lambda g, ricci_sq: (g ** s, g ** s * ricci_sq))
    checks = []
    for i, phi_p in enumerate(F.evaluate(fns, *pole_pt)[0]):
        t_main, t_point, t_ricci = t_mains[i], cn * phi_p, t_riccis[i]
        residual = t_main - t_point + (n - 4.0) / (n - 2.0) ** 2 * t_ricci
        scale = max(abs(t_main), abs(t_point), abs(t_ricci), 1e-30)
        checks.append(_record("weak-identity", residual / scale, tolerance,
                              detail=f"phi[{i}]"))
    integrability = abs(t_riccis[0])
    checks.append(_record(
        "blowup-integrability", 0.0 if math.isfinite(integrability) else 1.0,
        0.5, detail=f"L1 mass of the singular density: {integrability:.6g}"))
    return VerificationReport(
        "weak-identity", m.descriptor(), checks, hyp,
        {"level": level, "pole": pole.label(),
         "test_functions": len(fns), **resolution},
        time.perf_counter() - t0)


# ------------------------------------------------------------- 4d identity

def check_4d_identity(m: ManifoldModel, pole: Pole | None = None,
                      test_functions=None, level: int = 2,
                      tolerance: float | None = None,
                      seed: int = 0) -> VerificationReport:
    """Log-kernel identity in dimension four.

    Residual per test function of

      int log G_L P(phi) dmu = 16 pi^2 phi(p)
          - 1/2 int |Ric_blowup|^2 phi dmu - int Q phi dmu.
    """
    t0 = time.perf_counter()
    _require_applies("4d-identity", m)
    hyp = hypotheses_for(m)
    _require_positive_yamabe(m, hyp)
    pole = pole or Pole()
    if tolerance is None:
        tolerance = 2e-2 if m.is_product else 1e-6
    gL = green_field(m, "L", pole)
    fns = test_functions or default_test_functions(m, seed)
    pole_pt = [np.array([c]) for c in m.pole_coordinates(pole)]
    target = 16.0 * math.pi ** 2

    t_mains, t_riccis, resolution = _paired_integrals(
        m, pole, level, gL, gL.log_profile(1.0), fns,
        lambda g, ricci_sq: (np.log(g), ricci_sq))
    checks = []
    for i, phi_p in enumerate(F.evaluate(fns, *pole_pt)[0]):
        t_main, t_point, t_ricci = t_mains[i], target * phi_p, t_riccis[i]
        t_q = F.integrate(fns[i] * m.q_value)
        residual = t_main - t_point + 0.5 * t_ricci + t_q
        scale = max(abs(t_main), abs(t_point), abs(t_ricci), abs(t_q), target)
        checks.append(_record("log-identity-4d", residual / scale, tolerance,
                              detail=f"phi[{i}]"))
    return VerificationReport(
        "4d-identity", m.descriptor(), checks, hyp,
        {"level": level, "pole": pole.label(), "test_functions": len(fns),
         **resolution},
        time.perf_counter() - t0)


# ----------------------------------------------------------------- total Q

def check_total_q(m: ManifoldModel, pole: Pole | None = None,
                  factor: ConformalFactor | None = None, level: int = 2,
                  tolerance: float | None = None) -> VerificationReport:
    """Total Q plus the Ricci defect against 16 pi^2 (dimension four).

    Reports (int Q dmu, defect, sum, verdict); EQUALITY means the defect
    vanishes, which happens exactly in the round conformal class.
    """
    t0 = time.perf_counter()
    _require_applies("total-q", m)
    hyp = hypotheses_for(m)
    _require_positive_yamabe(m, hyp)
    pole = pole or Pole()
    if tolerance is None:
        tolerance = PRODUCT_TOL if m.is_product else SPHERE_TOL
    target = 16.0 * math.pi ** 2
    gL = green_field(m, "L", pole)
    profile = gL.log_profile(1.0)

    if factor is None:
        total_q = m.q_value * m.volume
    else:
        q_tilde = conformal_q_from_curvature(m, factor)
        w = factor.w_grid.grid_values
        total_q = float(np.sum(q_tilde.grid_values * np.exp(4.0 * w)
                               * m.basis.quadrature_weights()))

    def fn(*pts):
        comps = conformal_ricci(m, profile, pts)
        # in dimension four the norm in a changed frame (e^{-4w}) times its
        # volume element (e^{4w}) is the base integrand, so the defect
        # needs no conformal weight
        return 0.5 * F.frame_dot(m.basis, comps, comps)

    defect, resolution = _manifold_integral(m, fn, pole, level, gL)
    total = total_q + defect
    verdict = "EQUALITY" if abs(defect) <= max(tolerance, 1e-6) * target \
        else "STRICT"
    checks = [
        _record("total-q", (total - target) / target, tolerance,
                detail=f"int Q = {total_q:.8g}, defect = {defect:.8g}, "
                       f"verdict = {verdict}"),
    ]
    return VerificationReport(
        "total-q", m.descriptor(), checks, hyp,
        {"level": level, "pole": pole.label(),
         "conformal": factor is not None,
         "total_q": total_q, "defect": defect, "verdict": verdict,
         **resolution},
        time.perf_counter() - t0)


# -------------------------------------------------------------- covariance

def _random_factor(m: ManifoldModel, rng) -> ConformalFactor:
    w = F.random_bandlimited(m.basis, rng, degree=3,
                             fourier=2 if m.is_product else 0,
                             amplitude=0.1)
    return ConformalFactor.from_w(m, w)


def _law_bilinear(m, rng, level, fixed=None):
    factor = fixed or _random_factor(m, rng)
    deg = min(6, m.basis.degree_max // 3)
    four = min(3, m.basis.fourier_max) if m.is_product else 0
    phi = F.random_bandlimited(m.basis, rng, degree=deg, fourier=four)
    psi = F.random_bandlimited(m.basis, rng, degree=deg, fourier=four)
    lhs = conformal_quadratic_form_E(m, factor, phi, psi)
    rho = factor.rho("paneitz")
    rhs = F.integrate(apply_P(m, F.analyze(rho * phi)) * (rho * psi))
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return (lhs - rhs) / scale


def _law_pointwise_4d(m, rng, level, fixed=None):
    factor = fixed or _random_factor(m, rng)
    deg = min(6, m.basis.degree_max // 3)
    four = min(3, m.basis.fourier_max) if m.is_product else 0
    phi = F.random_bandlimited(m.basis, rng, degree=deg, fourier=four)
    psi = F.random_bandlimited(m.basis, rng, degree=deg, fourier=four)
    lhs = conformal_quadratic_form_E(m, factor, phi, psi)
    rhs = quadratic_form_E(m, phi, psi)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return (lhs - rhs) / scale


def _law_green_transport(m, rng, level, fixed=None):
    # needs the dilation family: the changed metric is an isometric
    # pullback there, giving an independent expression for the kernel
    lam = math.exp(rng.uniform(-0.35, 0.35))
    factor = ConformalFactor.moebius(m, lam)
    profile = factor.profile
    theta = m.basis.polar_angles()
    worst = 0.0
    ops = ["L"] if m.n == 4 else ["L", "P"]
    for op in ops:
        gf = green_sphere_closed_form(m, op)
        gt = transport_green(gf, factor)
        keep = ~gf.mask(3.0)
        got = gt.values_at(theta)[keep]
        truth = gf.evaluator(profile.mapped_angle(theta)[keep])
        scale = float(np.max(np.abs(truth)))
        worst = max(worst, float(np.max(np.abs(got - truth))) / scale)
    return worst


def _law_blowup_measure(m, rng, level, fixed=None):
    factor = fixed or _random_factor(m, rng)
    n = m.n
    s = (n - 4.0) / (n - 2.0)
    pole = Pole()
    gL = green_field(m, "L", pole)
    gLt = transport_green(gL, factor)
    profile = gL.log_profile(2.0 / (n - 2.0))
    pts = m.grid_points()
    keep = ~gL.mask(3.0)
    comps = conformal_ricci(m, profile, pts)
    nsq = F.frame_dot(m.basis, comps, comps)[keep]
    w = factor.w_at(*pts)[keep]
    rho_l = np.exp(0.5 * (n - 2.0) * w)
    pole_pt = [np.array([c]) for c in m.pole_coordinates(pole)]
    rho_l_p = float(np.exp(0.5 * (n - 2.0) * factor.w_at(*pole_pt))[0])
    g_vals = gL.values_at(*pts)[keep]
    gt_vals = gLt.values_at(*pts)[keep]
    lhs = gt_vals ** s * np.exp(-4.0 * w) * nsq * np.exp(n * w)
    rhs = rho_l_p ** (-s) * rho_l ** s * g_vals ** s * nsq
    scale = max(float(np.max(np.abs(rhs))), 1e-30)
    return float(np.max(np.abs(lhs - rhs))) / scale


def _law_defect_measure_4d(m, rng, level, fixed=None):
    factor = fixed or _random_factor(m, rng)
    pole = Pole()
    gL = green_field(m, "L", pole)
    profile = gL.log_profile(1.0)
    pts = m.grid_points()
    keep = ~gL.mask(3.0)
    comps = conformal_ricci(m, profile, pts)
    nsq = F.frame_dot(m.basis, comps, comps)[keep]
    w = factor.w_at(*pts)[keep]
    lhs = np.exp(-4.0 * w) * nsq * np.exp(4.0 * w)
    rhs = nsq
    scale = max(float(np.max(np.abs(rhs))), 1e-30)
    return float(np.max(np.abs(lhs - rhs))) / scale


def _law_q_transform_4d(m, rng, level, fixed=None):
    factor = fixed or _random_factor(m, rng)
    lhs = conformal_q_from_curvature(m, factor).grid_values
    rhs = conformal_q(m, factor).grid_values
    scale = max(float(np.max(np.abs(rhs))), 1e-30)
    return float(np.max(np.abs(lhs - rhs))) / scale


def _law_difference_transport(m, rng, level, fixed=None):
    factor = fixed or _random_factor(m, rng)
    n = m.n
    s = (n - 4.0) / (n - 2.0)
    cn = comparison_constant(n)
    pole = Pole()
    gL = green_sphere_closed_form(m, "L", pole)
    gP = green_sphere_closed_form(m, "P", pole)
    gLt = transport_green(gL, factor)
    gPt = transport_green(gP, factor)
    pts = m.grid_points()
    keep = ~gL.mask(3.0)
    w = factor.w_at(*pts)[keep]
    pole_pt = [np.array([c]) for c in m.pole_coordinates(pole)]
    rho_p = np.exp(0.5 * (n - 4.0) * w)
    rho_p_pole = float(np.exp(0.5 * (n - 4.0) * factor.w_at(*pole_pt))[0])
    lhs = cn * gPt.values_at(*pts)[keep] - gLt.values_at(*pts)[keep] ** s
    base = cn * gP.values_at(*pts)[keep] - gL.values_at(*pts)[keep] ** s
    rhs = base / (rho_p_pole * rho_p)
    scale = max(float(np.max(np.abs(gLt.values_at(*pts)[keep] ** s))), 1e-30)
    return float(np.max(np.abs(lhs - rhs))) / scale


_COVARIANCE_LAWS = {
    "bilinear-covariance": (_law_bilinear, lambda m: m.n != 4),
    "green-transport": (_law_green_transport, lambda m: not m.is_product),
    "blowup-measure": (_law_blowup_measure, lambda m: m.n != 4),
    "pointwise-covariance-4d": (_law_pointwise_4d, lambda m: m.n == 4),
    "q-transform-4d": (_law_q_transform_4d, lambda m: m.n == 4),
    "defect-measure-4d": (_law_defect_measure_4d, lambda m: m.n == 4),
    "difference-transport": (_law_difference_transport,
                             lambda m: m.n != 4 and not m.is_product),
}


def check_covariance(m: ManifoldModel, factor: ConformalFactor | None = None,
                     trials: int = 10, seed: int = 0, level: int = 1,
                     tolerance: float | None = None) -> VerificationReport:
    """Conformal covariance laws over seeded random trials.

    Each applicable law reports its worst residual over ``trials`` draws
    of test functions and factors; passing ``factor`` pins the factor
    while the test functions keep varying.  The Green's transport law
    always draws round-to-round dilations, where the changed metric has
    an exact independent description.
    """
    t0 = time.perf_counter()
    hyp = hypotheses_for(m)
    if tolerance is None:
        # products pay spectral reprojection error in the curvature routes
        tolerance = SPHERE_TOL if not m.is_product else 1e-4
    checks = []
    for name, (law, applies) in _COVARIANCE_LAWS.items():
        if not applies(m):
            continue
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        worst = 0.0
        for _ in range(trials):
            worst = max(worst, abs(law(m, rng, level, factor)))
        checks.append(_record(name, worst, tolerance,
                              detail=f"worst of {trials} trials"))
    return VerificationReport(
        "covariance", m.descriptor(), checks, hyp,
        {"trials": trials, "seed": seed, "level": level},
        time.perf_counter() - t0)


# ---------------------------------------------------------------- theorems

def check_sign_theorems(m: ManifoldModel, poles=None,
                        with_transport: bool = True,
                        seed: int = 0) -> VerificationReport:
    """Sign of the fourth-order Green's function over a pole set.

    The theorem verdict (positive for n > 4, negative for n = 3) is
    asserted only when the ledger shows a positive Yamabe sign and
    Q >= 0 not identically zero; otherwise the scan is exploratory.
    """
    t0 = time.perf_counter()
    _require_applies("signs", m)
    hyp = hypotheses_for(m)
    asserted = _theorems_asserted(m, hyp)
    expected = expected_sign(m.n)
    if poles is None:
        poles = [Pole(1), Pole(-1)] if not m.is_product else \
            [Pole(1, 0.0), Pole(1, m.length / 3.0)]
    checks = []
    resolution = {"poles": [p.label() for p in poles], "asserted": asserted}
    variants = [("base", None)]
    if with_transport and not m.is_product:
        rng = np.random.default_rng(seed)
        variants.append(("moebius", ConformalFactor.moebius(
            m, math.exp(rng.uniform(0.15, 0.4)))))
        variants.append(("random", _random_factor(m, rng)))
    for tag, factor in variants:
        try:
            gfs = [green_field(m, "P", pole, factor) for pole in poles]
        except (KernelError, CutoffTooLowError) as exc:
            # under the theorems' hypotheses a kernel that cannot be built
            # fails the check; elsewhere it is an exploratory record
            checks.append(_record(f"sign-{tag}", 1.0, 0.5, asserted=asserted,
                                  detail=f"{type(exc).__name__}: {exc}"))
            continue
        if m.is_product:
            resolution.setdefault("degree_sum", []).extend(
                _degree_sum_record(gf.pole, gf.cutoff, gf.tail_estimate)
                for gf in gfs)
        scan = sign_scan(gfs)
        ok = scan["verdict"] == expected
        detail = json.dumps(scan["poles"])
        checks.append(CheckRecord(f"sign-{tag}", 0.0 if ok else 1.0, 0.5,
                                  ok if asserted else True, asserted,
                                  detail=f"verdict={scan['verdict']} "
                                         f"expected={expected} {detail}"))
    return VerificationReport("signs", m.descriptor(), checks, hyp,
                              resolution, time.perf_counter() - t0)


def check_spectrum_claims(m: ManifoldModel) -> VerificationReport:
    """Spectral side of the sign theorems plus the kernel statement."""
    t0 = time.perf_counter()
    hyp = hypotheses_for(m)
    asserted = _theorems_asserted(m, hyp)
    summary = paneitz_spectrum_check(m)
    checks = [
        _record("lambda1-positive", 0.0 if hyp["yamabe_positive"] else 1.0,
                0.5, detail=f"lambda1 = {hyp['lambda1_L']:.6g}"),
        CheckRecord("kernel-vs-constants",
                    0.0 if summary.kernel_is_constants else 1.0, 0.5,
                    summary.kernel_is_constants, True,
                    detail=f"kernel dimension {summary.kernel_dimension}"),
    ]
    if asserted:
        checks.append(CheckRecord(
            "extremal-simple", 0.0 if summary.extremal_simple else 1.0, 0.5,
            summary.extremal_simple, True,
            detail=f"extremal {summary.extremal}"))
        checks.append(CheckRecord(
            "extremal-sign-definite",
            0.0 if summary.extremal_sign_definite else 1.0, 0.5,
            summary.extremal_sign_definite, True,
            detail=f"eigenfunction range {summary.eigenfunction_range}"))
        checks.append(CheckRecord(
            "modulus-ordering", 0.0 if summary.ordering_holds else 1.0, 0.5,
            summary.ordering_holds, True))
        if hyp["q_not_identically_zero"]:
            checks.append(CheckRecord(
                "kernel-trivial", 0.0 if summary.kernel_dimension == 0 else 1.0,
                0.5, summary.kernel_dimension == 0, True))
    else:
        checks.append(CheckRecord(
            "spectrum-exploratory", 0.0, 0.5, True, False,
            detail=f"smallest positive {summary.smallest_positive}, "
                   f"largest negative {summary.largest_negative}, "
                   f"kernel {summary.kernel_dimension}"))
    return VerificationReport(
        "spectrum", m.descriptor(), checks, hyp,
        {"modes": int(np.sum(m.basis.multiplicities()))},
        time.perf_counter() - t0)


def check_green_compare(m: ManifoldModel, poles=None,
                        tolerance: float = 1e-8) -> VerificationReport:
    """Kernel comparison margins and the equality-case verdict."""
    t0 = time.perf_counter()
    _require_applies("green-compare", m)
    hyp = hypotheses_for(m)
    asserted = _theorems_asserted(m, hyp)
    poles = poles or ([Pole(1), Pole(-1)] if not m.is_product
                      else [Pole(1, 0.0)])
    results = compare_green(m, poles, tolerance=tolerance)
    checks = []
    for res in results:
        # margins must be nonnegative (up to tolerance) under the hypotheses
        viol = max(0.0, -res.margin_min)
        checks.append(CheckRecord(
            "comparison-margin", viol, res.tolerance,
            viol <= res.tolerance if asserted else True, asserted,
            detail=f"min {res.margin_min:.3e}, max {res.margin_max:.3e}, "
                   f"equality={res.equality}"))
    resolution = {"poles": [p.label() for p in poles]}
    if m.is_product:
        resolution["degree_sum"] = [
            _degree_sum_record(pole, res.cutoff, res.tail_estimate)
            for pole, res in zip(poles, results)]
    return VerificationReport("green-compare", m.descriptor(), checks, hyp,
                              resolution, time.perf_counter() - t0)


def check_mass(m: ManifoldModel, poles=None, with_transport: bool = True,
               tolerance: float = 1e-6, level: int = 2,
               seed: int = 0) -> VerificationReport:
    """Vanishing of the kernel-difference mass on round-conformal backends."""
    t0 = time.perf_counter()
    _require_applies("mass", m)
    hyp = hypotheses_for(m)
    poles = poles or [Pole(1)]
    variants = [("base", None)]
    if with_transport:
        rng = np.random.default_rng(seed)
        variants.append(("moebius", ConformalFactor.moebius(
            m, math.exp(rng.uniform(0.15, 0.4)))))
    checks = []
    for tag, factor in variants:
        for pole in poles:
            res = extract_mass(m, pole, factor, level=level)
            for route in ("expansion", "integral"):
                checks.append(_record(
                    f"mass-{route}-{tag}", res[f"A_{route}"], tolerance,
                    detail=f"pole {res['pole']}"))
    return VerificationReport(
        "mass", m.descriptor(), checks, hyp,
        {"poles": [p.label() for p in poles], "level": level},
        time.perf_counter() - t0)


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Suite:
    """Where a suite runs (``applies``), its check, and the job options
    the check takes."""

    applies: Callable
    check: Callable
    options: tuple = ()

    def __call__(self, m: ManifoldModel, cfg: dict):
        if not self.applies(m):
            return None
        return self.check(m, **{k: cfg[k] for k in self.options if k in cfg})


# The paper's identities are conditional on the dimension: the weak
# identity, the sign and the comparison theorems need n != 4, the log
# identity and the 16 pi^2 balance n = 4, and the vanishing mass a round
# sphere of dimension 5..7.  This table is the only place that says so.
_SUITES = {
    "weak-identity": Suite(lambda m: m.n != 4, check_weak_identity,
                           ("level", "tolerance", "seed")),
    "4d-identity": Suite(lambda m: m.n == 4, check_4d_identity,
                         ("level", "tolerance", "seed")),
    "total-q": Suite(lambda m: m.n == 4, check_total_q,
                     ("level", "tolerance")),
    "covariance": Suite(lambda m: True, check_covariance,
                        ("trials", "seed", "level", "tolerance")),
    "signs": Suite(lambda m: m.n != 4, check_sign_theorems, ("seed",)),
    "spectrum": Suite(lambda m: True, check_spectrum_claims),
    "green-compare": Suite(lambda m: m.n != 4, check_green_compare,
                           ("tolerance",)),
    "mass": Suite(lambda m: not m.is_product and m.n in (5, 6, 7),
                  check_mass, ("tolerance", "level", "seed")),
}

# the job entry points; a profiler may wrap these, never the gates above
SUITES = dict(_SUITES)


def applies(name: str, m: ManifoldModel) -> bool:
    """Whether suite ``name`` runs on the backend ``m``."""
    return _SUITES[name].applies(m)


def _require_applies(name: str, m: ManifoldModel):
    if not applies(name, m):
        raise UnsupportedDimensionError(
            f"{name} does not apply to {m.descriptor()}")


def run_suite(name: str, m: ManifoldModel, cfg: dict | None = None):
    """Run one suite; returns None when the backend is incompatible."""
    return SUITES[name](m, cfg or {})
