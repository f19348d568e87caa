"""Green's functions of the conformal Laplacian and the Paneitz operator.

Sphere backends use closed forms: transporting the flat fundamental
solution through the stereographic conformal factor gives

    G_L = (4 n (n-1) w_n)^{-1} (2 a sin(xi/2))^{2-n}

with xi the polar angle from the pole, w_n the unit-ball volume, and the
corresponding fourth-order kernel is

    G_P = (2 n (n-2) (n-4) w_n)^{-1} (2 a sin(xi/2))^{4-n}     (n != 4),

proportional to G_L^{(n-4)/(n-2)} with the dimensional comparison
constant below (on the sphere the Ricci tensor of the blow-up metric
vanishes, so the proportionality is exact).

Product backends S^1(l) x S^d(b) are quotients of the conformally flat
cylinder; the Fourier sum over circle wavenumbers of the eigen-expansion
telescopes into the one-dimensional circle kernel of (-beta d^2/ds^2 + c),
and for the conformal Laplacian the remaining sphere-degree sum has the
closed generating function

    H(u, chi) = (4 n (n-1) w_n)^{-1} (2 cosh u - 2 cos chi)^{-(n-2)/2},

so G_L is the exponentially convergent image sum of H over circle
periods.  The fourth-order kernel keeps an explicit degree sum with a
partial-fraction circle kernel per degree and a monitored tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import fields as F
from . import quadrature as Q
from .basis import ball_volume, harmonic_dimension, zonal_polynomials
from .errors import (CutoffTooLowError, KernelError, UnsupportedBackendError)
from .fields import ScalarField
from .geometry import ConformalFactor, ManifoldModel, Pole, conformal_ricci
from .operators import build_symbol
from .spectrum import zero_threshold

__all__ = [
    "ComparisonResult",
    "GreenField",
    "compare_green",
    "comparison_constant",
    "extract_mass",
    "flat_L_coefficient",
    "flat_P_coefficient",
    "green_eigen_expansion",
    "green_pair",
    "green_sphere_closed_form",
    "sign_scan",
    "transport_green",
]


def comparison_constant(n: int) -> float:
    """Constant c with P(G_L^{(n-4)/(n-2)}) = c * delta on the round sphere."""
    w = ball_volume(n)
    return (2.0 ** (-(n - 6) / (n - 2)) * n ** (2.0 / (n - 2))
            * (n - 1) ** (-(n - 4) / (n - 2)) * (n - 2) * (n - 4)
            * w ** (2.0 / (n - 2)))


def flat_L_coefficient(n: int) -> float:
    """Leading coefficient of G_L, i.e. of r^{2-n} at the pole."""
    return 1.0 / (4.0 * n * (n - 1) * ball_volume(n))


def flat_P_coefficient(n: int) -> float:
    """Leading coefficient of G_P, i.e. of r^{4-n} at the pole (n != 4)."""
    return 1.0 / (2.0 * n * (n - 2) * (n - 4) * ball_volume(n))


# ------------------------------------------------------------------ kernels
#
# A kernel maps pole coordinates (``ManifoldModel.pole_separation``) to
# values and names its representation, its cutoff and its tail estimate;
# a kernel of G_L also gives ``log_jets(scale, *sep)``, the value, frame
# gradient and frame Hessian of w = scale * log G_L for a north pole.

class _SphereKernel:
    """Closed-form kernel c * (2 a sin(xi/2))^p as a function of pole angle."""

    representation = "closed-form"
    cutoff = None
    tail_estimate = 0.0

    def __init__(self, coefficient: float, a: float, power: float):
        self.c = coefficient
        self.a = a
        self.p = power

    def chord(self, xi):
        return 2.0 * self.a * np.sin(0.5 * np.asarray(xi, dtype=float))

    def value(self, xi):
        with np.errstate(divide="ignore"):
            return self.c * self.chord(xi) ** self.p

    def log_jets(self, scale: float, xi):
        xi = np.asarray(xi, dtype=float)
        w = scale * (math.log(abs(self.c)) + self.p * np.log(self.chord(xi)))
        half = 0.5 * xi
        w1 = scale * self.p * 0.5 / np.tan(half)
        w2 = -scale * self.p * 0.25 / np.sin(half) ** 2
        # cot(xi) * w1 without the axis blowup at xi = pi
        cot_w1 = scale * self.p * np.cos(xi) / (4.0 * np.sin(half) ** 2)
        a = self.a
        return w, (w1 / a,), {"rr": w2 / a ** 2, "orb": cot_w1 / a ** 2}


class _ProductImageKernelL:
    """Image sum of the cylinder kernel for the conformal Laplacian.

    ``value`` and ``log_jets`` share one loop over the images (``_sums``),
    which keeps running sums over the points instead of a
    (points x images) table.  The image count is the cutoff.
    """

    representation = "eigen-expansion"
    tail_estimate = 0.0

    def __init__(self, m: ManifoldModel, images: int):
        self.m = m
        self.n = m.n
        self.b = m.radius
        self.ell = m.length
        self.q = 0.5 * (self.n - 2)
        self.cL = flat_L_coefficient(self.n)
        self.cutoff = images

    def _sums(self, ds, chi, jets: bool):
        """Image sums of D^-q and, for jets, of its derivative terms.

        D = 2 cosh u - 2 cos chi = 4 (sinh^2(u/2) + sin^2(chi/2)) at
        u = (ds + j l) / b.  The images are added one at a time into
        running sums over the points: S0 = sum D^-q, and for jets
        S1 = sum D^(-q-1), S2 = sum D^(-q-2), T1 = sum D^(-q-1) sinh u and
        T2 = sum D^(-q-2) sinh u.  Every power comes from r = 1/D, with
        one square root for half-integer q.

        The j = 0 image takes sinh(u/2), exact at the pole.  An image
        j != 0 lies at |u| >= l / 2b for ``ds`` in [-l/2, l/2), so it is
        written in E = exp(-|u|) = exp(-|j| l / b) exp(-+u0), from one
        exp per point for all images:
        E D = (1 - E)^2 + 4 E sin^2(chi/2) and
        2 D^-1 sinh u = +-(1 - E^2) / (E D), so an image beyond double
        range underflows to 0 instead of overflowing (up to
        l = 1400 b, beyond which exp(-u0) and sinh(u/2)^2 at the pole's
        own image overflow, so ``green_eigen_expansion`` refuses them).
        ``ds`` terms run along ``ds`` and sin^2(chi/2) along ``chi`` as
        given, so on an open mesh only the quotients and sums take the
        broadcast shape; those reuse a few work arrays, written in place.
        """
        u0 = np.asarray(ds, dtype=float) / self.b
        sin2 = np.sin(0.5 * np.asarray(chi, dtype=float)) ** 2
        shape = np.broadcast_shapes(u0.shape, sin2.shape)
        sums = [np.zeros(shape) for _ in range(5 if jets else 1)]
        # work arrays: 1/(E D), r = 1/D, 2 D^-1 sinh u, the power, a term
        inv, r, sinh_r, d, term = (np.empty(shape) for _ in range(5))
        # D^-q = r^q: a square root for half-integer q, then products
        root = self.q % 1.0 != 0.0
        products = int(self.q) - (0 if root else 1)

        def add(accumulate):
            """Add the image in r and sinh_r to the sums; ``accumulate``
            adds or, for sinh u < 0, subtracts the sinh terms."""
            if root:
                np.sqrt(r, out=d)
            else:
                np.copyto(d, r)
            for _ in range(products):
                np.multiply(d, r, out=d)             # D^-q
            sums[0] += d
            if not jets:
                return
            _, S1, S2, T1, T2 = sums
            accumulate(T1, np.multiply(d, sinh_r, out=term), out=T1)
            S1 += np.multiply(d, r, out=d)          # D^(-q-1)
            accumulate(T2, np.multiply(d, sinh_r, out=term), out=T2)
            S2 += np.multiply(d, r, out=d)          # D^(-q-2)

        h = np.sinh(0.5 * u0)
        h2 = h * h
        np.add(h2, sin2, out=r)
        np.divide(0.25, r, out=r)
        if jets:
            np.multiply(4.0 * h * np.sqrt(1.0 + h2), r, out=sinh_r)
        add(np.add)
        sin2 *= 4.0
        per = self.ell / self.b
        e_plus = np.exp(-u0)             # j > 0: E = exp(-j l / b) e_plus
        e_minus = 1.0 / e_plus
        E, gap = np.empty_like(e_plus), np.empty_like(e_plus)
        for k in range(1, self.cutoff + 1):
            far = math.exp(-k * per)
            for accumulate, e_side in ((np.add, e_plus),
                                       (np.subtract, e_minus)):
                np.multiply(far, e_side, out=E)
                np.subtract(1.0, E, out=gap)
                np.multiply(sin2, E, out=inv)
                inv += np.multiply(gap, gap, out=gap)
                np.divide(1.0, inv, out=inv)
                np.multiply(E, inv, out=r)
                if jets:  # (1 - E^2) / (E D) = 1/(E D) - E r
                    np.multiply(E, r, out=sinh_r)
                    np.subtract(inv, sinh_r, out=sinh_r)
                add(accumulate)
        if jets:
            sums[3] *= 0.5
            sums[4] *= 0.5
        return sums

    def value(self, ds, chi):
        (S0,) = self._sums(ds, chi, jets=False)
        return self.cL * self.b ** (2 - self.n) * S0

    def log_jets(self, scale: float, ds, chi):
        chi = np.asarray(chi, dtype=float)
        S0, S1, S2, T1, T2 = self._sums(ds, chi, jets=True)
        q, b = self.q, self.b
        s_chi, cos_chi = np.sin(chi), np.cos(chi)
        w = np.log(self.cL * b ** (2 - self.n) * S0)
        # chart partials of G in (s, chi) over G.  The chi-derivative
        # carries a factor sin(chi), kept split off (x_over_sin) so the
        # orbit Hessian component stays regular on the axis.  The
        # s-Hessian takes sum D^(-q-1) cosh u and sum D^(-q-2) sinh^2 u
        # from cosh u = D/2 + cos chi and
        # sinh^2 u = D^2/4 + cos chi D - sin^2 chi
        over = 1.0 / S0
        g_s = T1 * over
        g_s *= -2.0 * q / b
        x_over_sin = S1 * over
        x_over_sin *= -2.0 * q
        cos_x = cos_chi * x_over_sin
        sin2_x = S2 * over
        sin2_x *= 4.0 * q * (q + 1) * s_chi ** 2
        g_ss = (q * q - (2.0 * q + 1.0) * cos_x - sin2_x) / b ** 2
        g_x = x_over_sin * s_chi
        g_xx = sin2_x + cos_x
        g_sx = T2 * over
        g_sx *= 4.0 * q * (q + 1) / b * s_chi
        del S0, S1, S2, T1, T2, over  # spent: keep the peak to ~20 vectors
        # the log jets: (log G)'' = G''/G - (G'/G)^2
        g_ss -= g_s * g_s
        g_xx -= g_x * g_x
        g_sx -= g_s * g_x
        return scale * w, (scale * g_s, (scale / b) * g_x), {
            "ss": scale * g_ss, "sx": (scale / b) * g_sx,
            "xx": (scale / b ** 2) * g_xx, "orb": (scale / b ** 2) * cos_x}


class _ProductDegreeSumP:
    """Sphere-degree sum with closed-form circle kernels for the P operator.

    Per sphere degree m the Paneitz operator of S^1 x S^d(b) factors
    into two circle operators -d^2/ds^2 + z, with the real roots
    sqrt(z1) = |m + (n-4)/2| / b and sqrt(z2) = (m + n/2) / b, so
    z2 - z1 = 2 (2m + n - 2) / b^2 > 0 and the circle kernel of the
    degree is the partial fraction (k(z1) - k(z2)) / (z2 - z1).
    """

    representation = "eigen-expansion"

    def __init__(self, m: ManifoldModel, cutoff: int):
        self.m = m
        self.cutoff = cutoff
        n, d, b = m.n, m.sphere_dim, m.radius
        self.ell = m.length
        ms = np.arange(cutoff + 1, dtype=float)
        self.r1 = np.abs(ms + 0.5 * (n - 4)) / b
        self.r2 = (ms + 0.5 * n) / b
        self.disc = 2.0 * (2.0 * ms + n - 2) / b ** 2
        factor_volume = m.volume / self.ell
        self.norm = np.array([harmonic_dimension(d, int(mm))
                              for mm in range(cutoff + 1)], dtype=float) \
            / factor_volume
        (self.pole_values,) = zonal_polynomials(d, cutoff, np.ones(1),
                                                order=0)

    def _circle_kernel(self, rz, u):
        """Kernel of -d^2/ds^2 + rz^2 on the circle at offsets u >= 0."""
        eu = np.exp(-rz * u[..., None])
        el = np.exp(-rz * (self.ell - u[..., None]))
        return (eu + el) / (2.0 * rz * (1.0 - np.exp(-rz * self.ell)))

    def kernel_1d(self, ds):
        """Per-degree circle kernels at offsets ds (shape ds x modes)."""
        u = np.abs(np.atleast_1d(np.asarray(ds, dtype=float)))
        k1 = self._circle_kernel(self.r1, u)
        k2 = self._circle_kernel(self.r2, u)
        return (k1 - k2) / self.disc

    def zonal(self, chi):
        """Zonal harmonics p_m(cos chi) / p_m(1) for all degrees."""
        chi = np.asarray(chi, dtype=float)
        (p,) = zonal_polynomials(self.m.sphere_dim, self.cutoff,
                                 np.cos(chi), order=0)
        return (p / self.pole_values).reshape(chi.shape + (-1,))

    def value(self, ds, chi):
        """The degree sum at broadcastable offsets: ``kernel_1d`` runs on
        ``ds`` and ``zonal`` on ``chi`` as given, so an open mesh
        tabulates them once per distinct offset and angle."""
        k = self.norm * self.kernel_1d(ds)
        z = self.zonal(np.atleast_1d(np.asarray(chi, dtype=float)))
        return np.sum(k * z, axis=-1)

    @cached_property
    def tail_estimate(self) -> float:
        """Magnitude bound for the dropped degrees at the worst offset."""
        m_top = self.cutoff
        k_top = abs(self.kernel_1d(np.zeros(1))[0, -1])
        return float(self.norm[-1] * k_top * m_top)


# -------------------------------------------------------------- GreenField

_WEIGHT = {"L": "metric", "P": "paneitz"}


@dataclass
class GreenField:
    """A Green's function: a kernel with pole metadata, and the conformal
    factor it was transported by, if any.

    ``at`` evaluates in pole coordinates (``ManifoldModel.pole_separation``:
    (xi,) on spheres, (ds, xi) on products), ``values_at`` at chart
    coordinates.  A transported kernel is divided by the factor's weight
    at the pole, ``rho_pole``, and at the point; a factor that stacks
    trials gives one ``rho_pole`` and one set of values per trial.  The
    distributional normalization is the basis-projected point mass:
    pairing the eigen-expansion against (operator applied to an in-basis
    field) returns the field value at the pole exactly.
    """

    manifold: ManifoldModel
    operator: str
    pole: Pole
    kernel: object
    factor: ConformalFactor | None = None
    rho_pole: float | np.ndarray = 1.0

    @property
    def representation(self) -> str:
        suffix = "" if self.factor is None else "+transport"
        return self.kernel.representation + suffix

    @property
    def cutoff(self):
        return self.kernel.cutoff

    @property
    def tail_estimate(self) -> float:
        return self.kernel.tail_estimate

    def at(self, *sep) -> np.ndarray:
        vals = self.kernel.value(*sep)
        if self.factor is None:
            return vals
        q = self.manifold.chart_from_pole(self.pole, *sep)
        rho_q = self.factor.rho_at(_WEIGHT[self.operator], *q)
        return vals / (F.trial_axes(self.rho_pole, np.ndim(vals)) * rho_q)

    def values_at(self, *points) -> np.ndarray:
        return self.at(*self.manifold.pole_separation(self.pole, *points))

    def diagonal_value(self):
        """Value at the pole when the kernel is continuous there (P in
        dimension three), else None."""
        if (self.operator, self.manifold.n) != ("P", 3):
            return None
        at = self.manifold.pole_point(self.pole)
        # + 0.0 writes a kernel that vanishes at the pole as 0.0, not -0.0
        return float(self.values_at(*at)[0]) + 0.0

    def log_profile(self, scale: float) -> "_GreenLogProfile":
        """Conformal logarithm w = scale * log G with exact derivatives."""
        if self.operator != "L" or self.factor is not None:
            raise UnsupportedBackendError(
                "log profiles exist only for closed-form L kernels")
        return _GreenLogProfile(self, scale)

    def mask(self) -> np.ndarray:
        """Grid mask: True within three grid spacings of the pole, where
        the singular part dominates."""
        pts = self.manifold.grid_points()
        r = self.manifold.geodesic_from_pole(self.pole, *pts)
        return r < 3.0 * self.manifold.grid_spacing()


class _GreenLogProfile(ConformalFactor):
    """w = scale * log G_L of an untransported kernel, with the kernel's
    closed-form frame jets.  A south pole reverses the polar direction,
    which flips the sign of the polar gradient component and of the
    ``sx`` Hessian component."""

    def __init__(self, gf: GreenField, scale: float):
        super().__init__(gf.manifold)
        self.pole = gf.pole
        self.kernel = gf.kernel
        self.scale = scale

    def jets(self, points=None):
        m = self.manifold
        sep = m.pole_separation(self.pole, *(points or m.grid_points()))
        w, grad, hess = self.kernel.log_jets(self.scale, *sep)
        if self.pole.axis < 0:
            grad = grad[:-1] + (-grad[-1],)
            if "sx" in hess:
                hess["sx"] = -hess["sx"]
        return w, grad, hess


# ------------------------------------------------------------ construction

def green_sphere_closed_form(m: ManifoldModel, operator: str,
                             pole: Pole | None = None) -> GreenField:
    """Closed-form Green's function on a round sphere."""
    if m.is_product:
        raise UnsupportedBackendError("closed forms are for sphere backends")
    pole = pole or Pole()
    n, a = m.n, m.radius
    if operator == "L":
        kern = _SphereKernel(flat_L_coefficient(n), a, 2.0 - n)
    elif operator == "P":
        if n == 4:
            raise KernelError(
                "P annihilates constants on the round 4-sphere; "
                "no Green's function exists")
        kern = _SphereKernel(flat_P_coefficient(n), a, 4.0 - n)
    else:
        raise ValueError(f"unknown operator {operator!r}")
    return GreenField(m, operator, pole, kern)


def green_eigen_expansion(m: ManifoldModel, operator: str,
                          pole: Pole | None = None,
                          cutoff: int | None = None,
                          tolerance: float = 1e-3) -> GreenField:
    """Eigen-expansion Green's function on a product backend.

    The circle sum is carried out in closed form per sphere degree; for
    the conformal Laplacian the degree sum also closes (image kernel),
    for the fourth-order operator it is truncated at ``cutoff`` with a
    tail estimate checked against ``tolerance`` times the constant-mode
    scale.
    """
    if not m.is_product:
        raise UnsupportedBackendError("eigen expansions are for products")
    pole = pole or Pole()
    table = build_symbol(m, operator)
    thr = zero_threshold(m)
    lam_min = float(np.min(np.abs(table)))
    if lam_min < thr:
        raise KernelError(
            f"{operator} has a zero mode on {m.kind} "
            f"(|eigenvalue| {lam_min:.3e} < threshold {thr:.3e})")
    if operator == "L":
        if m.length > 1400.0 * m.radius:  # see _ProductImageKernelL._sums
            raise UnsupportedBackendError(
                f"the G_L image sum overflows on a circle longer than 1400 "
                f"sphere radii (length {m.length:g}, radius {m.radius:g})")
        images = max(4, int(math.ceil(40.0 * m.radius
                                      / ((m.n - 2) * m.length))) + 2)
        return GreenField(m, "L", pole, _ProductImageKernelL(m, images))
    if operator != "P":
        raise ValueError(f"unknown operator {operator!r}")
    cutoff = cutoff or 240
    kern = _ProductDegreeSumP(m, cutoff)
    tail = kern.tail_estimate
    # reference scale: the constant-mode contribution to the kernel
    scale = abs(1.0 / float(table.ravel()[0]))
    if tail > tolerance * scale:
        raise CutoffTooLowError(
            f"degree cutoff {cutoff} leaves tail ~{tail:.2e} "
            f"(tolerance {tolerance * scale:.2e})")
    return GreenField(m, "P", pole, kern)


def transport_green(gf: GreenField, factor: ConformalFactor) -> GreenField:
    """Green's function of the conformally changed metric, from an
    untransported one.

    Both operators obey G~(p, q) = rho(p)^{-1} rho(q)^{-1} G(p, q) in
    their own weight convention (second order: rho^{4/(n-2)}, fourth
    order: rho^{4/(n-4)}); in dimension four the fourth-order kernel is
    conformally invariant, handled by the vanishing weight exponent.
    """
    m = gf.manifold
    if gf.operator == "P" and m.n == 4:
        return gf
    rho_p = factor.rho_at(_WEIGHT[gf.operator], *m.pole_point(gf.pole))
    return replace(gf, factor=factor, rho_pole=rho_p[..., 0])


def green_field(m: ManifoldModel, operator: str, pole: Pole | None = None,
                factor: ConformalFactor | None = None) -> GreenField:
    """Closed form on spheres, eigen-expansion on products, then transport."""
    gf = (green_eigen_expansion(m, operator, pole) if m.is_product
          else green_sphere_closed_form(m, operator, pole))
    if factor is not None:
        gf = transport_green(gf, factor)
    return gf


# ----------------------------------------------------------------- pairing

def green_pair(gf: GreenField, f: ScalarField, level: int = 2) -> float:
    """Quadrature of int G(pole, q) f(q) dmu(q) with pole grading, for a
    mode field ``f``: ``f`` paired by ``fields.pair`` with w G at the
    nodes of the graded rule around the pole.

    On a product each half block of ``quadrature.product_blocks`` is
    paired at s and at its mirror 2 s0 - s, each side with weights
    w / 2: the full rule, so ``f`` need not be even about the pole.  A
    transported kernel need not be even either and is evaluated on each
    side; an untransported one is even about its pole, so its values at
    s serve the mirror too.
    """
    m = gf.manifold
    if not m.is_product:
        [(points, w)] = Q.sphere_blocks(m, gf.pole, level=level)
        return float(F.pair(f, w * gf.values_at(*points), *points))
    total = 0.0
    for (s, chi), w in Q.product_blocks(m, gf.pole, level=level):
        mirror = 2.0 * gf.pole.s0 - s
        vals = gf.values_at(s, chi)
        total += F.pair(f, 0.5 * w * vals, s, chi)
        if gf.factor is not None:
            vals = gf.values_at(mirror, chi)
        total += F.pair(f, 0.5 * w * vals, mirror, chi)
    return float(total)


# --------------------------------------------------------------- sign scan

def sign_scan(green_fields) -> dict:
    """Extremal off-pole values and a global sign verdict.

    For each pole the scan reports min G over the unmasked grid in
    dimensions above four and max G in dimension three (where the kernel
    is continuous; its diagonal value is reported alongside).
    """
    per_pole = []
    signs = []
    for gf in green_fields:
        n = gf.manifold.n
        vals = gf.values_at(*gf.manifold.grid_points())
        keep = ~gf.mask()
        kept = vals[keep]
        if n == 3:
            worst = float(np.max(kept))
        else:
            worst = float(np.min(kept))
        pos = bool(np.all(kept > 0))
        neg = bool(np.all(kept < 0))
        verdict = "POSITIVE" if pos else ("NEGATIVE" if neg else "MIXED")
        signs.append(verdict)
        rec = {
            "pole": gf.pole.label(),
            "theta_value": worst,
            "verdict": verdict,
            "masked_nodes": int(np.sum(~keep)),
        }
        diag = gf.diagonal_value()
        if diag is not None:
            rec["diagonal_value"] = diag
        per_pole.append(rec)
    overall = signs[0] if len(set(signs)) == 1 else "MIXED"
    return {"poles": per_pole, "verdict": overall}


# -------------------------------------------------------------- comparison

@dataclass
class ComparisonResult:
    """Pointwise margins of the Green's function comparison.

    The margin field is c_n G_P - G_L^{(n-4)/(n-2)} for n > 4 and
    -(G_L^{-1} + 256 pi^2 G_P) for n = 3; nonnegative margins are the
    comparison statement, and a vanishing extremum is the round-sphere
    equality case.  ``cutoff`` and ``tail_estimate`` are those of the
    G_P degree sum (``None`` and 0 for closed forms).
    """

    margin_min: float
    margin_max: float
    equality: bool
    tolerance: float
    cutoff: int | None
    tail_estimate: float


def compare_green(m: ManifoldModel, poles,
                  factor: ConformalFactor | None = None,
                  tolerance: float = 1e-8) -> list[ComparisonResult]:
    """Margins of the kernel comparison for each pole."""
    if m.n == 4:
        raise UnsupportedBackendError("the comparison needs n != 4")
    out = []
    n = m.n
    s = (n - 4.0) / (n - 2.0)
    cn = comparison_constant(n)
    for pole in poles:
        gL = green_field(m, "L", pole, factor)
        gP = green_field(m, "P", pole, factor)
        pts = m.grid_points()
        keep = ~gL.mask()
        vL = gL.values_at(*pts)[keep]
        vP = gP.values_at(*pts)[keep]
        if n == 3:
            margin = -(1.0 / vL + 256.0 * math.pi ** 2 * vP)
            if not m.is_product:
                # the three-dimensional closed forms are continuous up to
                # the pole, so the comparison includes the diagonal itself
                with np.errstate(divide="ignore"):
                    diag = -(1.0 / gL.at(np.zeros(1))
                             + 256.0 * math.pi ** 2 * gP.at(np.zeros(1)))
                margin = np.concatenate([margin, diag])
            scale = float(np.max(np.abs(1.0 / vL)))
        else:
            margin = cn * vP - vL ** s
            scale = float(np.max(np.abs(vL ** s)))
        margin_min = float(np.min(margin))
        out.append(ComparisonResult(
            margin_min=margin_min,
            margin_max=float(np.max(margin)),
            equality=bool(abs(margin_min) <= tolerance * scale),
            tolerance=tolerance * scale,
            cutoff=gP.cutoff,
            tail_estimate=gP.tail_estimate,
        ))
    return out


# -------------------------------------------------------------------- mass

def extract_mass(m: ManifoldModel, pole: Pole | None = None,
                 factor: ConformalFactor | None = None,
                 level: int = 2) -> dict:
    """Constant term of the kernel difference at the pole, two routes.

    The expansion route extrapolates c_n G_P - G_L^{(n-4)/(n-2)} to the
    pole along a radial ray (the difference is const + O(r)); the
    integral route integrates G_P G_L^{(n-4)/(n-2)} |Ric_blowup|^2
    against the measure.  Both carry the (4 n (n-1) w_n)^{(n-4)/(n-2)}
    normalization.
    """
    if m.is_product or m.n not in (3, 5, 6, 7):
        raise UnsupportedBackendError(
            "mass extraction needs a sphere-conformal backend, n in 5..7 "
            "or locally conformally flat")
    pole = pole or Pole()
    n = m.n
    s = (n - 4.0) / (n - 2.0)
    cn = comparison_constant(n)
    norm = (4.0 * n * (n - 1) * ball_volume(n)) ** s
    gL = green_field(m, "L", pole, factor)
    gP = green_field(m, "P", pole, factor)

    # expansion route: sample along a ray through the pole
    xi = 0.4 * 0.6 ** np.arange(8)
    r = m.radius * xi
    diff = cn * gP.at(xi) - gL.at(xi) ** s
    a_exp = Q.extrapolate_to_zero(r, diff) * norm

    # integral route: the blow-up Ricci of the (transported) metric is the
    # base blow-up Ricci up to a constant factor that Ricci ignores
    base_L = green_sphere_closed_form(m, "L", pole)
    profile = base_L.log_profile(2.0 / (n - 2.0))

    # the integrand is O(1) dr near the pole after the measure, so a
    # moderate graded depth resolves it; descending further only picks up
    # the squared rounding noise of the curvature cancellation against
    # the r^(2(4-n)) kernel weight
    [((theta,), w_q)] = Q.sphere_blocks(m, pole, level=level, graded_depth=12)
    comps = conformal_ricci(m, profile, (theta,))
    nsq = F.frame_dot(m.basis, comps, comps)
    w = 0.0 if factor is None else factor.w_at(theta)
    vals = gP.values_at(theta) * gL.values_at(theta) ** s \
        * (np.exp(-4.0 * w) * nsq) * np.exp(n * w)
    integral = float(np.tensordot(w_q, vals, w_q.ndim))
    a_int = norm * (n - 4.0) / (n - 2.0) ** 2 * integral
    return {
        "pole": pole.label(),
        "A_expansion": float(a_exp),
        "A_integral": float(a_int),
        "normalization": norm,
    }
