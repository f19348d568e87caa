"""Verification suites tying operators, curvature, and Green's functions.

Each suite produces a ``VerificationReport`` whose check records carry a
law tag, a residual, a tolerance, and whether the check is asserted.
Assertions are gated on the backend's hypothesis ledger
(``spectrum.SpectrumSummary``, built once per backend on first use):
when a hypothesis fails the check is still run and reported, but marked
exploratory and never counted as a failure.

All identities are tested in weak form, paired against smooth test
functions; singular integrands are handled by the graded quadrature of
:mod:`conformal_lab.quadrature`.  Each suite's gate, hypotheses,
assertion rule and default tolerances (relative to the check scale, on
closed-form sphere and on eigen-expansion product backends) are stated
once, in its ``@Suite`` declaration.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import threading
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import fields as F
from . import quadrature as Q
from . import spectrum
from .errors import (HypothesisFailError, KernelError,
                     UnsupportedDimensionError)
from .geometry import (ConformalFactor, FieldFactor, ManifoldModel,
                       MoebiusFactor, Pole, conformal_q,
                       conformal_q_from_curvature, conformal_ricci,
                       ricci_from_jets)
from .green import (comparison_constant, compare_green, extract_mass,
                    green_field, green_sphere_closed_form, sign_scan,
                    transport_green)
from .operators import (apply_P, conformal_quadratic_form_E,
                        quadratic_form_E)

__all__ = [
    "CheckRecord",
    "DECLARATIONS",
    "Suite",
    "VerificationReport",
    "default_test_functions",
    "run_suite",
    "SUITES",
]

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
            "asserted_checks": sum(c.asserted for c in self.checks),
        }
        if include_runtime:
            out["runtime_s"] = self.runtime_s
        return out

    def to_json(self, include_runtime: bool = True) -> str:
        return json.dumps(self.to_dict(include_runtime), indent=2)


def _record(law, residual, tol, detail=""):
    return CheckRecord(law, float(residual), float(tol),
                       bool(abs(residual) <= tol), detail=detail)


def _verdict(law, ok, detail=""):
    """A yes/no record: residual 0 or 1 against 0.5."""
    return _record(law, 0.0 if ok else 1.0, 0.5, detail)


_LEDGERS = {}
_LEDGER_LOCK = threading.Lock()


def _ledger(m: ManifoldModel) -> spectrum.SpectrumSummary:
    """The hypothesis ledger of ``m``, built on first use and then kept."""
    with _LEDGER_LOCK:
        if m not in _LEDGERS:
            _LEDGERS[m] = spectrum.paneitz_spectrum_check(m)
        return _LEDGERS[m]


# ------------------------------------------------------------------ suites

# the declaration of every suite by name, which also gates the run
DECLARATIONS = {}
# the job entry points, (m, cfg) -> report or None; a profiler may wrap
# these, never the declarations above
SUITES = {}


@dataclass(frozen=True)
class Suite:
    """The declaration of one suite, written as the decorator of its body.

    ``applies(m)`` is the dimension gate, ``positive_yamabe`` whether
    the suite needs lambda1(L) > 0, ``tolerance`` the default tolerance
    on (sphere, product) backends, None for a suite that takes none, and
    ``theorems`` whether the records state the sign and comparison
    theorems, asserted only where the ledger's ``theorems_hold``.

    The body takes the backend and keyword options, and returns (checks,
    resolution).  The decorated name is the suite's check: outside the
    gate it raises ``UnsupportedDimensionError``, on a required Yamabe
    sign that fails ``HypothesisFailError``, and otherwise it returns
    the timed ``VerificationReport`` with the backend's ledger.  In a
    theorems suite a Green's function that cannot be built
    (``KernelError``) is one failed record, and where the theorems'
    hypotheses fail every record is exploratory.
    The suite's job, ``SUITES[name]``, returns None outside the gate and
    passes the check the run options its signature names.
    """

    name: str
    applies: Callable = lambda m: True
    positive_yamabe: bool = False
    tolerance: tuple | None = None
    theorems: bool = False

    def __call__(self, body):
        options = list(inspect.signature(body).parameters)[1:]

        @functools.wraps(body)
        def check(m: ManifoldModel, **opts) -> VerificationReport:
            t0 = time.perf_counter()
            if not self.applies(m):
                raise UnsupportedDimensionError(
                    f"{self.name} does not apply to {m.descriptor()}")
            ledger = _ledger(m)
            if self.positive_yamabe and not ledger.yamabe_positive:
                raise HypothesisFailError(
                    f"lambda1(L) = {ledger.lambda1:.3g} <= 0 on "
                    f"{m.descriptor()}")
            if self.tolerance:
                opts.setdefault("tolerance", self.tolerance[m.is_product])
            try:
                checks, resolution = body(m, **opts)
            except KernelError as exc:
                if not self.theorems:
                    raise
                checks, resolution = [_verdict(
                    "kernel-obstruction", False,
                    f"{type(exc).__name__}: {exc}")], {}
            if self.theorems and not ledger.theorems_hold:
                for c in checks:
                    c.passed, c.asserted = True, False
            return VerificationReport(self.name, m.descriptor(), checks,
                                      ledger.hypotheses(), resolution,
                                      time.perf_counter() - t0)

        def job(m: ManifoldModel, cfg: dict):
            if not self.applies(m):
                return None
            return check(m, **{k: cfg[k] for k in options if k in cfg})

        DECLARATIONS[self.name] = self
        SUITES[self.name] = job
        return check


def run_suite(name: str, m: ManifoldModel, cfg: dict | None = None):
    """Run one suite; returns None when the backend is incompatible."""
    return SUITES[name](m, cfg or {})


# ----------------------------------------------------- pole identities

def default_test_functions(m: ManifoldModel, seed: int = 0):
    """Constants, the first low modes, and one seeded random field."""
    b = m.basis
    fns = [m.constant(1.0)]
    if b.is_product:
        picks = [(0, 1), (1, 0), (1, 1), (0, 2)]
        for j, mm in picks:
            c = np.zeros((b.circle_mode_count, b.sphere_mode_count))
            c[j, mm] = 1.0
            fns.append(F.synthesize(b, c))
        rng = np.random.default_rng(seed)
        fns.append(F.random_bandlimited(b, rng, degree=4, fourier=3))
    else:
        for l in range(1, 5):
            c = np.zeros(b.sphere_mode_count)
            c[l] = 1.0
            fns.append(F.synthesize(b, c))
        rng = np.random.default_rng(seed)
        fns.append(F.random_bandlimited(b, rng, degree=6))
    return fns


_DENSITIES = {}
_DENSITY_LOCK = threading.Lock()


def _blowup_density(m: ManifoldModel, level: int):
    """The graded rule around the north pole of ``m`` at ``level``, with
    G_L and |Ric_blowup|^2 of the blow-up metric G_L^{4/(n-2)} g at its
    nodes, and the resolution of the rule.

    On a product the reflection s -> -s fixes the pole at s = 0 and is an
    isometry, so the density is even in s, and the rule is the ds > 0
    half of ``quadrature.product_blocks``, with doubled weights: a field
    pairs with it through its ``fields.even_part``.

    Returns ``(blocks, resolution)``: per node block of the rule a tuple
    ``(points, weights, G_L, |Ric_blowup|^2)`` of read-only arrays, and a
    read-only resolution.  The profile w = (2/(n-2)) log G_L of the
    blow-up metric gives G_L too, so the kernel is summed once per
    block.  Only the (backend, level) built last is kept, so the
    identities and the total Q of a backend, run one after the other,
    read one density, and a run holds one at a time.  It is built
    unlocked; a lock covers the check-and-store, which drops any other
    key.  Threads that build one key at once all receive the first.
    """
    key = (m, level)
    density = _DENSITIES.get(key)
    if density is None:
        gL = green_field(m, "L", Pole())
        profile = gL.log_profile(2.0 / (m.n - 2.0))
        resolution = {}
        rule = Q.product_blocks if m.is_product else Q.sphere_blocks
        blocks = []
        for points, weights in rule(m, gL.pole, level=level,
                                    resolution=resolution):
            w, grad, hess = profile.jets(points)
            comps = ricci_from_jets(m, grad, hess)
            block = (points, weights, np.exp(w / profile.scale),
                     F.frame_dot(m.basis, comps, comps))
            for arr in (*points, *block[1:]):
                arr.setflags(write=False)
            blocks.append(block)
        if m.is_product:
            resolution["images"] = gL.cutoff
        with _DENSITY_LOCK:
            if key not in _DENSITIES:
                _DENSITIES.clear()
                _DENSITIES[key] = (tuple(blocks),
                                   MappingProxyType(resolution))
            density = _DENSITIES[key]
    return density


def _paired_integrals(m, level, fns, densities):
    """int a P(phi) dmu and int c phi dmu for every test function phi.

    ``densities(G_L, |Ric_blowup|^2)`` gives (a, c) at the nodes of the
    blow-up density of ``m``.  Both are paired with all test functions
    in one call per node block, by mode moments, so no value of a test
    function at a node is formed.  The density is even in s, so only the
    even part of each test function meets it; P commutes with the
    reflection, so P of that part is the even part of P(phi).
    """
    evens = [F.even_part(phi) for phi in fns]
    p_evens = [apply_P(m, phi) for phi in evens]
    k = len(fns)
    blocks, resolution = _blowup_density(m, level)
    totals = sum(F.pair(p_evens + evens, np.stack(
        [wq * d for d in densities(g, ricci_sq)], axis=-1), *points)
        for points, wq, g, ricci_sq in blocks)
    return totals[0, :k], totals[1, k:], resolution


def _pole_identity(m, law, level, tolerance, seed):
    """The identity of ``check_weak_identity`` (n != 4) or of
    ``check_4d_identity`` (n = 4), one residual per default test function,
    each measured against the scale of its largest term."""
    n = m.n
    four = n == 4
    s = (n - 4.0) / (n - 2.0)
    target = 16.0 * math.pi ** 2 if four else comparison_constant(n)
    fns = default_test_functions(m, seed)
    t_mains, t_riccis, resolution = _paired_integrals(
        m, level, fns,
        (lambda g, ricci_sq: (np.log(g), ricci_sq)) if four
        else (lambda g, ricci_sq: (g ** s, g ** s * ricci_sq)))
    checks = []
    for i, phi_p in enumerate(F.evaluate(fns, *m.pole_point(Pole()))[0]):
        t_main, t_point, t_ricci = t_mains[i], target * phi_p, t_riccis[i]
        if four:
            t_q = F.integrate(fns[i] * m.q_value)
            residual = t_main - t_point + 0.5 * t_ricci + t_q
            scale = max(abs(t_main), abs(t_point), abs(t_ricci), abs(t_q),
                        target)
        else:
            residual = t_main - t_point + (n - 4.0) / (n - 2.0) ** 2 * t_ricci
            scale = max(abs(t_main), abs(t_point), abs(t_ricci), 1e-30)
        checks.append(_record(law, residual / scale, tolerance,
                              detail=f"phi[{i}]"))
    if not four:
        integrability = abs(t_riccis[0])
        checks.append(_verdict(
            "blowup-integrability", math.isfinite(integrability),
            detail=f"L1 mass of the singular density: {integrability:.6g}"))
    return checks, {"level": level, "pole": Pole().label(),
                    "test_functions": len(fns), **resolution}


@Suite("weak-identity", lambda m: m.n != 4, positive_yamabe=True,
       tolerance=(1e-8, 1e-2))
def check_weak_identity(m: ManifoldModel, tolerance: float, level: int = 2,
                        seed: int = 0):
    """Distributional identity for the fourth-order operator, n != 4.

    For each test function phi the residual of

      int G_L^s P(phi) dmu  =  c_n phi(p)
          - ((n-4)/(n-2)^2) int G_L^s |Ric_blowup|^2 phi dmu,

    with s = (n-4)/(n-2) and the blow-up metric G_L^{4/(n-2)} g, is
    measured against the scale of its largest term.
    """
    return _pole_identity(m, "weak-identity", level, tolerance, seed)


@Suite("4d-identity", lambda m: m.n == 4, positive_yamabe=True,
       tolerance=(1e-6, 2e-2))
def check_4d_identity(m: ManifoldModel, tolerance: float, level: int = 2,
                      seed: int = 0):
    """Log-kernel identity in dimension four.

    Residual per test function of

      int log G_L P(phi) dmu = 16 pi^2 phi(p)
          - 1/2 int |Ric_blowup|^2 phi dmu - int Q phi dmu.
    """
    return _pole_identity(m, "log-identity-4d", level, tolerance, seed)


# ----------------------------------------------------------------- total Q

@Suite("total-q", lambda m: m.n == 4, positive_yamabe=True,
       tolerance=(1e-8, 1e-2))
def check_total_q(m: ManifoldModel, tolerance: float,
                  factor: ConformalFactor | None = None, level: int = 2):
    """Total Q plus the Ricci defect against 16 pi^2 (dimension four).

    Reports (int Q dmu, defect, sum, verdict); EQUALITY means the defect
    vanishes, which happens exactly in the round conformal class.
    """
    target = 16.0 * math.pi ** 2
    if factor is None:
        total_q = m.q_value * m.volume
    else:
        q_tilde = conformal_q_from_curvature(m, factor)
        w = factor.w_grid.grid_values
        total_q = float(np.sum(q_tilde.grid_values * np.exp(4.0 * w)
                               * m.basis.quadrature_weights()))
    # in dimension four the norm in a changed frame (e^{-4w}) times its
    # volume element (e^{4w}) is the base integrand, so the defect needs
    # no conformal weight and reads the blow-up density of the identity
    blocks, resolution = _blowup_density(m, level)
    defect = sum(0.5 * float(np.tensordot(wq, ricci_sq, wq.ndim))
                 for _, wq, _, ricci_sq in blocks)
    total = total_q + defect
    verdict = "EQUALITY" if abs(defect) <= max(tolerance, 1e-6) * target \
        else "STRICT"
    checks = [
        _record("total-q", (total - target) / target, tolerance,
                detail=f"int Q = {total_q:.8g}, defect = {defect:.8g}, "
                       f"verdict = {verdict}"),
    ]
    return checks, {"level": level, "pole": Pole().label(),
                    "conformal": factor is not None, "total_q": total_q,
                    "defect": defect, "verdict": verdict, **resolution}


# -------------------------------------------------------------- covariance

def _random_w(m: ManifoldModel, rng) -> np.ndarray:
    """The coefficient table of one random conformal logarithm."""
    return F.random_modes(m.basis, rng, degree=3,
                          fourier=2 if m.is_product else 0)


def _factor(m: ManifoldModel, tables) -> ConformalFactor:
    """The factor of a table, or a stack of tables, of ``_random_w``."""
    return FieldFactor(m, F.sup_normalized(m.basis, tables, 0.1))


def _random_factors(m: ManifoldModel, rng, trials: int) -> ConformalFactor:
    """One factor stacking ``trials`` random draws."""
    return _factor(m, [_random_w(m, rng) for _ in range(trials)])


def _draw(m, rng, fixed, trials):
    """The factors (``fixed``, or random ones) and two random test
    functions of ``trials`` bilinear trials, drawn trial by trial in
    that order and stacked."""
    deg = min(6, m.basis.degree_max // 3)
    four = min(3, m.basis.fourier_max) if m.is_product else 0
    draws = []
    for _ in range(trials):
        w = None if fixed else _random_w(m, rng)
        draws.append((w, F.random_modes(m.basis, rng, deg, four),
                      F.random_modes(m.basis, rng, deg, four)))
    ws, phis, psis = zip(*draws)
    return (fixed or _factor(m, ws), F.sup_normalized(m.basis, phis),
            F.sup_normalized(m.basis, psis))


def _off_pole(m, factor):
    """G_L at the north pole, the grid points, the mask of the grid nodes
    away from the pole, and w at those nodes (flattened into the last
    axis) and at the pole (a last axis of one)."""
    gL = green_field(m, "L", Pole())
    pts = m.grid_points()
    keep = ~gL.mask()
    return (gL, pts, keep, factor.w_at(*pts)[..., keep],
            factor.w_at(*m.pole_point(Pole())))


def _sup_ratio(diff, ref, point_axes: int = 1):
    """sup |diff| / sup |ref| over the trailing ``point_axes``, per trial:
    the relative defect of a pointwise law."""
    axes = tuple(range(-point_axes, 0))
    return (np.max(np.abs(diff), axis=axes)
            / np.maximum(np.max(np.abs(ref), axis=axes), 1e-30))


def _relative(lhs, rhs):
    """(lhs - rhs) against the larger of the two, per trial."""
    return (lhs - rhs) / np.maximum(np.maximum(abs(lhs), abs(rhs)), 1e-30)


# A law takes the backend, the rng, a fixed factor or None, and the trial
# count; it draws every trial in order, evaluates them as one stack and
# returns one residual per trial (one for all, when nothing is drawn).

def _law_bilinear(m, rng, fixed=None, trials=1):
    factor, phi, psi = _draw(m, rng, fixed, trials)
    lhs = conformal_quadratic_form_E(m, factor, phi, psi)
    rho = factor.rho("paneitz")
    rhs = F.integrate(apply_P(m, F.analyze(rho * phi)) * (rho * psi))
    return _relative(lhs, rhs)


def _law_pointwise_4d(m, rng, fixed=None, trials=1):
    factor, phi, psi = _draw(m, rng, fixed, trials)
    lhs = conformal_quadratic_form_E(m, factor, phi, psi)
    rhs = quadratic_form_E(m, phi, psi)
    return _relative(lhs, rhs)


def _law_green_transport(m, rng, fixed=None, trials=1):
    # needs the dilation family: the changed metric is an isometric
    # pullback there, giving an independent expression for the kernel
    factor = MoebiusFactor(
        m, [math.exp(rng.uniform(-0.35, 0.35)) for _ in range(trials)])
    theta = m.basis.polar_angles()
    worst = 0.0
    for op in ["L"] if m.n == 4 else ["L", "P"]:
        gf = green_sphere_closed_form(m, op)
        keep = ~gf.mask()
        got = transport_green(gf, factor).values_at(theta)[..., keep]
        truth = gf.at(factor.mapped_angle(theta)[..., keep])
        worst = np.maximum(worst, _sup_ratio(got - truth, truth))
    return worst


def _law_blowup_measure(m, rng, fixed=None, trials=1):
    factor = fixed or _random_factors(m, rng, trials)
    n = m.n
    s = (n - 4.0) / (n - 2.0)
    gL, pts, keep, w, w_pole = _off_pole(m, factor)
    comps = conformal_ricci(m, gL.log_profile(2.0 / (n - 2.0)), pts)
    nsq = F.frame_dot(m.basis, comps, comps)[keep]
    rho_l = np.exp(0.5 * (n - 2.0) * w)
    rho_l_p = np.exp(0.5 * (n - 2.0) * w_pole)
    g_vals = gL.values_at(*pts)[keep]
    gt_vals = transport_green(gL, factor).values_at(*pts)[..., keep]
    lhs = gt_vals ** s * np.exp(-4.0 * w) * nsq * np.exp(n * w)
    rhs = rho_l_p ** (-s) * rho_l ** s * g_vals ** s * nsq
    return _sup_ratio(lhs - rhs, rhs)


def _law_defect_measure_4d(m, rng, fixed=None, trials=1):
    factor = fixed or _random_factors(m, rng, trials)
    gL, pts, keep, w, _ = _off_pole(m, factor)
    comps = conformal_ricci(m, gL.log_profile(1.0), pts)
    nsq = F.frame_dot(m.basis, comps, comps)[keep]
    lhs = np.exp(-4.0 * w) * nsq * np.exp(4.0 * w)
    return _sup_ratio(lhs - nsq, nsq)


def _law_q_transform_4d(m, rng, fixed=None, trials=1):
    factor = fixed or _random_factors(m, rng, trials)
    lhs = conformal_q_from_curvature(m, factor).grid_values
    rhs = conformal_q(m, factor).grid_values
    return _sup_ratio(lhs - rhs, rhs, len(m.basis.grid_shape))


def _law_difference_transport(m, rng, fixed=None, trials=1):
    factor = fixed or _random_factors(m, rng, trials)
    n = m.n
    s = (n - 4.0) / (n - 2.0)
    cn = comparison_constant(n)
    gL, pts, keep, w, w_pole = _off_pole(m, factor)
    gP = green_sphere_closed_form(m, "P", gL.pole)
    gLt = transport_green(gL, factor)
    gPt = transport_green(gP, factor)
    rho_p = np.exp(0.5 * (n - 4.0) * w)
    rho_p_pole = np.exp(0.5 * (n - 4.0) * w_pole)
    gLt_s = gLt.values_at(*pts)[..., keep] ** s
    lhs = cn * gPt.values_at(*pts)[..., keep] - gLt_s
    base = cn * gP.values_at(*pts)[keep] - gL.values_at(*pts)[keep] ** s
    rhs = base / (rho_p_pole * rho_p)
    return _sup_ratio(lhs - rhs, gLt_s)


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


# products pay spectral reprojection error in the curvature routes
@Suite("covariance", tolerance=(1e-8, 1e-4))
def check_covariance(m: ManifoldModel, tolerance: float,
                     factor: ConformalFactor | None = None,
                     trials: int = 10, seed: int = 0):
    """Conformal covariance laws over seeded random trials.

    Each applicable law reports its worst residual over ``trials`` draws
    of test functions and factors, drawn in order and evaluated as one
    stack; passing ``factor`` pins the factor while the test functions
    keep varying.  The Green's transport law always draws round-to-round
    dilations, where the changed metric has an exact independent
    description.
    """
    checks = []
    for name, (law, law_applies) in _COVARIANCE_LAWS.items():
        if not law_applies(m):
            continue
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        worst = float(np.max(np.abs(law(m, rng, factor, trials))))
        checks.append(_record(name, worst, tolerance,
                              detail=f"worst of {trials} trials"))
    return checks, {"trials": trials, "seed": seed}


# ---------------------------------------------------------------- theorems

@Suite("signs", lambda m: m.n != 4, theorems=True)
def check_sign_theorems(m: ManifoldModel, seed: int = 0):
    """Sign of the fourth-order Green's function over a pole set, against
    the ledger's predicted sign (positive for n > 4, negative for n = 3).
    """
    ledger = _ledger(m)
    expected = ledger.g_p_sign
    poles = [Pole(1), Pole(-1)] if not m.is_product else \
        [Pole(1, 0.0), Pole(1, m.length / 3.0)]
    checks = []
    resolution = {"poles": [p.label() for p in poles]}
    variants = [("base", None)]
    if not m.is_product:
        rng = np.random.default_rng(seed)
        variants.append(("moebius", MoebiusFactor(
            m, math.exp(rng.uniform(0.15, 0.4)))))
        variants.append(("random", _factor(m, _random_w(m, rng))))
    for tag, factor in variants:
        gfs = [green_field(m, "P", pole, factor) for pole in poles]
        if m.is_product:
            resolution["images"] = [gf.cutoff for gf in gfs]
        scan = sign_scan(gfs)
        checks.append(_verdict(
            f"sign-{tag}", scan["verdict"] == expected,
            f"verdict={scan['verdict']} expected={expected} "
            f"{json.dumps(scan['poles'])}"))
    return checks, resolution


@Suite("spectrum")
def check_spectrum_claims(m: ManifoldModel):
    """Spectral side of the sign theorems plus the kernel statement.

    This body, and not the ``@Suite`` declaration, reads the ledger's
    ``theorems_hold``: where it fails, the four extremal claims give way
    to one exploratory ``spectrum-exploratory`` record, while
    ``lambda1-positive`` and ``kernel-vs-constants`` stay asserted, since
    they state the hypotheses themselves.  The ``theorems`` flag would
    mark every record of the suite exploratory, those two as well.
    """
    ledger = _ledger(m)
    checks = [
        _verdict("lambda1-positive", ledger.yamabe_positive,
                 detail=f"lambda1 = {ledger.lambda1:.6g}"),
        _verdict("kernel-vs-constants", ledger.kernel_is_constants,
                 detail=f"kernel dimension {ledger.kernel_dimension}"),
    ]
    if ledger.theorems_hold:
        checks += [
            _verdict("extremal-simple", ledger.extremal_simple,
                     detail=f"extremal {ledger.extremal}"),
            _verdict("extremal-sign-definite",
                     ledger.extremal_sign_definite,
                     detail=f"eigenfunction range "
                            f"{ledger.eigenfunction_range}"),
            _verdict("modulus-ordering", ledger.ordering_holds),
            _verdict("kernel-trivial", ledger.kernel_dimension == 0)]
    else:
        checks.append(CheckRecord(
            "spectrum-exploratory", 0.0, 0.5, passed=True, asserted=False,
            detail=f"smallest positive {ledger.smallest_positive}, "
                   f"largest negative {ledger.largest_negative}, "
                   f"kernel {ledger.kernel_dimension}"))
    return checks, {"modes": int(np.sum(m.basis.multiplicities()))}


@Suite("green-compare", lambda m: m.n != 4, tolerance=(1e-8, 1e-8),
       theorems=True)
def check_green_compare(m: ManifoldModel, tolerance: float):
    """Kernel comparison margins and the equality-case verdict."""
    poles = [Pole(1), Pole(-1)] if not m.is_product else [Pole(1, 0.0)]
    results = compare_green(m, poles, tolerance=tolerance)
    checks = []
    for res in results:
        # margins must be nonnegative, up to tolerance
        checks.append(_record(
            "comparison-margin", max(0.0, -res.margin_min), res.tolerance,
            detail=f"min {res.margin_min:.3e}, max {res.margin_max:.3e}, "
                   f"equality={res.equality}"))
    resolution = {"poles": [p.label() for p in poles]}
    if m.is_product:
        resolution["images"] = [res.cutoff for res in results]
    return checks, resolution


@Suite("mass", lambda m: not m.is_product and m.n in (5, 6, 7),
       tolerance=(1e-6, 1e-6))
def check_mass(m: ManifoldModel, tolerance: float, level: int = 2,
               seed: int = 0):
    """Vanishing of the kernel-difference mass on round-conformal backends,
    at the north pole of the base metric and of a Moebius change of it."""
    pole = Pole(1)
    rng = np.random.default_rng(seed)
    moebius = MoebiusFactor(m, math.exp(rng.uniform(0.15, 0.4)))
    checks = []
    for tag, factor in (("base", None), ("moebius", moebius)):
        res = extract_mass(m, pole, factor, level=level)
        for route in ("expansion", "integral"):
            checks.append(_record(
                f"mass-{route}-{tag}", res[f"A_{route}"], tolerance,
                detail=f"pole {res['pole']}"))
    return checks, {"poles": [pole.label()], "level": level}
