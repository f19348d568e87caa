"""Green's functions of the conformal Laplacian and the Paneitz operator.

Each operator has a flat kernel c r^(-2q): the conformal Laplacian L
has c_L = (4 n (n-1) w_n)^{-1} and q = (n-2)/2, the Paneitz operator P
has c_P = (2 n (n-2) (n-4) w_n)^{-1} and q = (n-4)/2 (n != 4), with w_n
the unit-ball volume.  One conformal pullback carries it to each
backend.  On the sphere S^n(a) it gives the closed form

    G = c (2 a sin(xi/2))^(-2q)

with xi the polar angle from the pole; G_P is proportional to
G_L^{(n-4)/(n-2)} with the dimensional comparison constant below (on
the sphere the Ricci tensor of the blow-up metric vanishes, so the
proportionality is exact).

Product backends S^1(l) x S^d(b) are quotients of the conformally flat
cylinder, so their kernels are image sums over circle periods of the
flat kernel pulled back to the cylinder R x S^d(b),

    H(u, chi) = c b^(-2q) (2 cosh u - 2 cos chi)^(-q),

for either operator where q > 0 (``_ProductImageKernel``).  For P in
dimension three q = -1/2, and the sum is that of the pulled back c_P r
less the degree-0 homogeneous solution that makes it grow
(``_ProductImageKernelP``); both sums converge exponentially.

``green_field`` builds every kernel, transported by a conformal factor
if one is given, ``GreenField.values_at`` evaluates it at chart points,
and ``blowup_density`` gives G_L with the squared Ricci norm of the
blow-up metric G_L^{4/(n-2)} g, the density of the identities, the
covariance laws and the mass, from G_L = P0 (1 + R): P0, the pole's own
image, has a flat blow-up, and R, the other images over P0, is 0 on S^n.
``blowup_slabs`` is its one pass over the graded pole rule, block by
block, read by the identities, the Ricci defect and the mass integral.
Past ``green_field``'s choice of kernel nothing here asks for the
backend: the sign scan, the comparison and the mass read either alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fields as F
from . import quadrature as Q
from .basis import ball_volume, zonal_polynomials
from .errors import KernelError, UnsupportedBackendError
from .fields import ScalarField
from .geometry import (FRAME_AXES, ConformalFactor, ManifoldModel, Pole,
                       ricci_from_jets)
from .operators import smallest_abs_eigenvalue
from .spectrum import zero_threshold

__all__ = [
    "ComparisonResult",
    "GreenField",
    "blowup_density",
    "blowup_slabs",
    "compare_green",
    "comparison_constant",
    "extract_mass",
    "flat_L_coefficient",
    "flat_P_coefficient",
    "green_field",
    "green_pair",
    "sign_scan",
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
# values and names its representation and its cutoff (the image count);
# a kernel of G_L also gives ``split_jets(*sep)`` for a north pole: P0,
# the pole's own image, with its frame gradient and Hessian over P0, and
# R, the other images over P0, with theirs over P0 (G_L = P0 (1 + R)).
# ``green_field`` picks the kernel, ``GreenField`` carries it.

class _SphereKernel:
    """Closed-form kernel c (2 a sin(xi/2))^p of the pole angle, one image."""

    representation = "closed-form"
    cutoff = None

    def __init__(self, coefficient: float, a: float, power: float):
        self.c = coefficient
        self.a = a
        self.p = power

    def value(self, xi):
        with np.errstate(divide="ignore"):
            return self.c * (2.0 * self.a * np.sin(
                0.5 * np.asarray(xi, dtype=float))) ** self.p

    def split_jets(self, xi):
        xi = np.asarray(xi, dtype=float)
        inv_sin2 = 0.25 / (self.a * np.sin(0.5 * xi)) ** 2
        b_x = 0.5 * self.p / (self.a * np.tan(0.5 * xi))
        # xx as (log P0)'' + b_x^2; orb, cot(xi) b_x / a, regular at pi
        hess = {"xx": b_x * b_x - self.p * inv_sin2,
                "orb": self.p * np.cos(xi) * inv_sin2}
        return (self.value(xi), ((b_x,), hess),
                (0.0, (np.zeros_like(b_x),), dict.fromkeys(hess, 0.0)))


class _ProductImageKernel:
    """Image sum of the cylinder kernel c b^(-2q) D^-q, q > 0.

    ``value`` and ``split_jets`` share ``_sums``, which takes the pole's
    own image pointwise and the other images by the layout of the points:
    at points given one by one it adds them one at a time into running
    sums over the points, with no (points x images) table; on an open
    mesh, an s column against a chi row, it sums them in closed form,
    each sum one matrix product of an s-side and a chi-side table
    (``_mesh_sums``).  ``c`` holds the prefactor c b^(-2q); the image
    count is the cutoff.
    """

    representation = "eigen-expansion"

    def __init__(self, m: ManifoldModel, images: int, coefficient: float,
                 q: float):
        self.b = m.radius
        self.ell = m.length
        self.q = q
        self.c = coefficient * self.b ** (-2.0 * q)
        self.cutoff = images

    def _sums(self, ds, sin4, jets: bool):
        """Image sums of D^-q and, for jets, of its derivative terms, at
        ``sin4`` = 4 sin^2(chi/2).

        D = 2 cosh u - 2 cos chi = 4 (sinh^2(u/2) + sin^2(chi/2)) at
        u = (ds + j l) / b, summed over j = -K..K, K the cutoff:
        S0 = sum D^-q, and for jets S1 = sum D^(-q-1), S2 = sum D^(-q-2),
        T1 = 2 sum D^(-q-1) sinh u and T2 = 2 sum D^(-q-2) sinh u.
        Without jets [S0] comes back, the pole's own image first; with
        jets the pole's own (D^-q, r, 2 D^-1 sinh u), r = 1/D, and the
        sums over the other images apart.

        The j = 0 image takes sinh(u/2), exact at the pole, and the
        others are added to the sums in closed form on an open mesh, an
        s column (Ns, 1) against a chi row (1, Nx) (``_mesh_sums``), and
        one at a time at points given one by one (``_image_loop``).
        """
        u0 = np.asarray(ds, dtype=float) / self.b
        shape = np.broadcast_shapes(u0.shape, sin4.shape)
        h = np.sinh(0.5 * u0)
        h2 = h * h
        r = np.multiply(4.0, h2, out=np.empty(shape))
        r += sin4
        np.divide(1.0, r, out=r)
        if jets:  # the pole's own image, apart from the sums
            own = (np.power(r, self.q), r,
                   np.multiply(4.0 * h * np.sqrt(1.0 + h2), r))
            sums = [np.zeros(shape) for _ in range(5)]
        else:  # the pole's own image first
            sums = [self._power(r, np.empty(shape))]
        del h, h2
        if u0.ndim == sin4.ndim == 2 and u0.shape[1] == sin4.shape[0] == 1:
            self._mesh_sums(u0, 1.0 - 0.5 * sin4, sums)
        else:
            self._image_loop(u0, sin4, sums)
        return (own, sums) if jets else sums

    def _power(self, r, out):
        """D^-q = r^q into ``out``: a square root for half-integer q, then
        products."""
        root = self.q % 1.0 != 0.0
        if root:
            np.sqrt(r, out=out)
        else:
            np.copyto(out, r)
        for _ in range(int(self.q) - (0 if root else 1)):
            np.multiply(out, r, out=out)
        return out

    def _image_loop(self, u0, sin4, sums):
        """Add the images j != 0 one at a time into the running ``sums`` of
        ``_sums``, [S0] or all five, in place.

        An image j != 0 lies at |u| >= l / 2b for ``ds`` in [-l/2, l/2),
        so it is written in E = exp(-|u|) = exp(-|j| l / b) exp(-+u0), from
        one exp per point for all images: E D = (1 - E)^2
        + 4 E sin^2(chi/2) and 2 D^-1 sinh u = +-(1 - E^2) / (E D), so an
        image beyond double range underflows to 0 instead of overflowing
        (up to l = 1400 b, beyond which exp(-u0) and sinh(u/2)^2 at the
        pole's own image overflow, so ``green_field`` refuses them).
        Every power comes from r = 1/D.  ``u0`` terms run along ``u0`` and
        sin^2(chi/2) along ``chi`` as given, and the quotients and sums
        reuse a few work arrays, written in place.
        """
        jets = len(sums) > 1
        shape = sums[0].shape
        # work arrays: 1/(E D), r = 1/D, 2 D^-1 sinh u, the power, a term
        inv, r, sinh_r, d, term = (np.empty(shape) for _ in range(5))
        e_plus = np.exp(-u0)             # j > 0: E = exp(-j l / b) e_plus
        e_minus = 1.0 / e_plus
        per = self.ell / self.b
        E, gap = np.empty_like(e_plus), np.empty_like(e_plus)
        for k in range(1, self.cutoff + 1):
            far = math.exp(-k * per)
            # the sinh terms add for u > 0 and subtract for u < 0
            for accumulate, e_side in ((np.add, e_plus),
                                       (np.subtract, e_minus)):
                np.multiply(far, e_side, out=E)
                np.subtract(1.0, E, out=gap)
                np.multiply(sin4, E, out=inv)
                inv += np.multiply(gap, gap, out=gap)
                np.divide(1.0, inv, out=inv)
                np.multiply(E, inv, out=r)
                sums[0] += self._power(r, d)
                if not jets:
                    continue
                _, S1, S2, T1, T2 = sums
                # (1 - E^2) / (E D) = 1/(E D) - E r
                np.multiply(E, r, out=sinh_r)
                np.subtract(inv, sinh_r, out=sinh_r)
                accumulate(T1, np.multiply(d, sinh_r, out=term), out=T1)
                S1 += np.multiply(d, r, out=d)      # D^(-q-1)
                accumulate(T2, np.multiply(d, sinh_r, out=term), out=T2)
                S2 += np.multiply(d, r, out=d)      # D^(-q-2)

    def _mesh_sums(self, u0, x, sums):
        """Add the images j != 0 on an open mesh, ``u0`` = ds / b a column
        and ``x`` = cos chi a row, to the ``sums`` of ``_sums``, [S0] or
        all five, each sum one matrix product of an s-side table
        (Ns, degrees) and a chi-side table (degrees, Nx).

        In E = exp(-|u|) an image is D^-p = E^p (1 - 2 E x + E^2)^-p
        = sum_m C_m^(p)(x) E^(p+m) (DLMF 18.12.4), and
        2 sinh u = +-(1/E - E).  Over j = 1..K on the side u > 0,
        E_j = exp(-j l / b - u0), and on the other exp(-j l / b + u0), so
        sum_j E_j^s = E_1^s (1 - g^(Ks)) / (1 - g^s), g = exp(-l / b):
        the loop's images, summed per power.  Up to a constant per
        degree, C_m^(q) is the zonal polynomial of S^(2q+1), and
        d/dx C_m^(p) = 2 p C_(m-1)^(p+1), so one tabulation gives all
        three families; the constants, square roots of the norms
        h_m = pi 2^(1-2q) Gamma(m+2q) / (m! (m+q) Gamma(q)^2), go to the
        s side.  The series stops at the first degree M with
        E_max^M C_M^(q+2)(1) < 2^-56, E_max = exp(max |u0| - l / b) the
        largest E.  An E_max of 1 or more, an image at or past a point,
        raises ``ValueError``; with no images nothing is added.
        """
        q, per, images = self.q, self.ell / self.b, self.cutoff
        if not images:
            return
        reach = float(np.max(np.abs(u0)))
        if reach >= per:
            raise ValueError(
                f"the image series needs |ds| < l, got |ds| up to "
                f"{reach * self.b:g} on a circle of length {self.ell:g}")
        e_max = math.exp(reach - per)
        degree, bound = 0, 1.0  # bound = E_max^M C_M^(q+2)(1) at M = degree
        while bound >= 2.0 ** -56:
            degree += 1
            bound *= e_max * (degree + 2.0 * q + 3.0) / degree
        terms = degree + 1
        jets = len(sums) > 1
        # the chi side: row m of table i is the i-th x-derivative of the
        # zonal polynomial of degree m, C_(m-i)^(q+i) / h_m^(1/2) times 1,
        # 2q or 4q(q+1)
        tables = [t.T for t in zonal_polynomials(
            round(2.0 * q + 1.0), degree + 2, x, order=2 if jets else 0)]
        # h_m^(1/2), m = 0..M+2, from h_0 by the ratios of successive norms
        m = np.arange(1.0, degree + 3)
        ratios = (m + 2.0 * q - 1.0) * (m + q - 1.0) / (m * (m + q))
        norm = np.sqrt(math.sqrt(math.pi) * math.gamma(q + 0.5)
                       / math.gamma(q + 1.0)
                       * np.cumprod(np.append(1.0, ratios)))
        # the s side: sum_j E_j^s on either side, s = q + 0..M+3
        s = q + np.arange(degree + 4)
        per_power = np.expm1(-images * per * s) / np.expm1(-per * s)
        plus = per_power * np.exp(-s * (per + u0))
        minus = per_power * np.exp(-s * (per - u0))
        even = plus + minus      # sum D^-p: both sides alike
        sums[0] += (even[:, :terms] * norm[:terms]) @ tables[0][:terms]
        if not jets:
            return
        _, S1, S2, T1, T2 = sums
        odd = plus - minus       # sum 2 D^-p sinh u: the sides opposed
        w1 = norm[1:terms + 1] / (2.0 * q)
        w2 = norm[2:] / (4.0 * q * (q + 1.0))
        d1, d2 = tables[1][1:terms + 1], tables[2][2:]
        S1 += (even[:, 1:terms + 1] * w1) @ d1
        S2 += (even[:, 2:terms + 2] * w2) @ d2
        T1 += ((odd[:, :terms] - odd[:, 2:terms + 2]) * w1) @ d1
        T2 += ((odd[:, 1:terms + 1] - odd[:, 3:]) * w2) @ d2

    def value(self, ds, chi):
        (S0,) = self._sums(
            ds, (2.0 * np.sin(0.5 * np.asarray(chi, dtype=float))) ** 2,
            jets=False)
        return self.c * S0

    def split_jets(self, ds, chi):
        chi = np.asarray(chi, dtype=float)
        sin_half = np.sin(0.5 * chi)
        sin4 = (2.0 * sin_half) ** 2
        (p0, r0, s0), others = self._sums(ds, sin4, jets=True)
        trig = ((1.0 - 0.5 * sin4) / self.b,
                2.0 * sin_half * np.cos(0.5 * chi))  # cos(chi) / b, sin(chi)
        del sin_half, sin4
        over = 1.0 / p0
        for s in others:
            s *= over
        own = self._jets([1.0, r0, r0 * r0, s0, r0 * s0], *trig)
        p0 *= self.c
        return p0, own[1:], self._jets(others, *trig)

    def _jets(self, sums, cos_b, sin_chi):
        """(S0, frame gradient, frame Hessian) of ``_sums`` sums over the
        pole's own D^-q, in place.  S1 keeps the chi-derivative over
        sin(chi), so the orbit Hessian stays regular on the axis; the
        s-Hessian takes sum D^(-q-1) cosh u and sum D^(-q-2) sinh^2 u from
        cosh u = D/2 + cos chi and sinh^2 u = D^2/4 + cos chi D - sin^2 chi."""
        S0, S1, S2, T1, T2 = sums
        q, b = self.q, self.b
        S1 *= -2.0 * q / b
        orb = cos_b * S1
        S2 *= sin_chi
        S2 *= sin_chi
        S2 *= 4.0 * q * (q + 1) / b ** 2
        g_ss = orb * -(2.0 * q + 1.0)
        g_ss -= S2
        g_ss += q * q / b ** 2 * S0
        S2 += orb
        T1 *= -q / b
        S1 *= sin_chi
        T2 *= sin_chi
        T2 *= 2.0 * q * (q + 1) / b ** 2
        return S0, (T1, S1), {"ss": g_ss, "sx": T2, "xx": S2, "orb": orb}


class _ProductImageKernelP:
    """Image sum of the regularized cylinder kernel for the Paneitz
    operator in dimension three.

    The flat kernel c_P r pulled back to the cylinder R x S^2(b) is
    c_P b D^(1/2), D = 2 cosh u - 2 cos chi, which grows like e^(|u|/2).
    Subtracting 2 c_P b cosh(u/2), the degree-0 homogeneous solution (the
    one degree whose root |m - 1/2| flips sign), leaves in E = exp(-|u|)

        -4 c_P b cos^2(chi/2) E^(1/2)
            / (sqrt((1 - E)^2 + 4 E sin^2(chi/2)) + 1 + E),

    which decays like E^(1/2), has no cancellation and is exact at the
    pole.  It is summed over u = (ds + j l) / b, every image from one exp
    per point as in ``_ProductImageKernel._image_loop``, j = 0 included as
    exp(-|u0|), so nothing overflows below l = 1400 b.  ``c`` holds the
    prefactor -4 c_P b.
    """

    representation = "eigen-expansion"

    def __init__(self, m: ManifoldModel, images: int, coefficient: float):
        self.b = m.radius
        self.ell = m.length
        self.c = -4.0 * coefficient * self.b
        self.cutoff = images

    def value(self, ds, chi):
        chi = np.asarray(chi, dtype=float)
        sin2 = 4.0 * np.sin(0.5 * chi) ** 2
        e_plus = np.exp(-np.asarray(ds, dtype=float) / self.b)
        e_minus = 1.0 / e_plus
        far = np.exp(-np.arange(1, self.cutoff + 1) * (self.ell / self.b))

        def image(E):
            return np.sqrt(E) / (np.sqrt((1.0 - E) ** 2 + sin2 * E) + 1.0 + E)

        # one image at a time into one running sum, in place: memory
        # stays a few point vectors whatever the image count
        total = image(np.minimum(e_plus, e_minus))
        for f in far:
            for e in (e_plus, e_minus):
                total += image(f * e)
        return self.c * np.cos(0.5 * chi) ** 2 * total


# -------------------------------------------------------------- GreenField

_WEIGHT = {"L": "metric", "P": "paneitz"}


@dataclass
class GreenField:
    """A Green's function: a kernel with pole metadata, and the conformal
    factor it was transported by, if any; ``green_field`` builds one.

    ``values_at`` evaluates at chart points: the kernel at their pole
    coordinates (``ManifoldModel.pole_separation``: (xi,) on spheres,
    (ds, xi) on products), and a transported kernel divided by the
    factor's weight at the pole, ``rho_pole``, and at the points; a
    factor that stacks trials gives one ``rho_pole`` and one set of
    values per trial.  The kernels are closed forms and image sums of
    the flat kernel: ``green_pair`` of an untransported one with the
    operator applied to a field meets the field's value at the pole only
    up to the error of the pole rule (held to 1e-8 on spheres, and to
    1e-6 on S1 x S2 at level 3).
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

    def values_at(self, *points) -> np.ndarray:
        vals = self.kernel.value(
            *self.manifold.pole_separation(self.pole, *points))
        if self.factor is None:
            return vals
        rho_q = self.factor.rho_at(_WEIGHT[self.operator], *points)
        return vals / (F.trial_axes(self.rho_pole, np.ndim(vals)) * rho_q)

    def diagonal_value(self):
        """Value at the pole when the kernel is continuous there (P in
        dimension three), else None; there a factor that stacks trials
        raises ``ValueError``."""
        if (self.operator, self.manifold.n) != ("P", 3):
            return None
        at = self.manifold.pole_point(self.pole)
        vals = _one_trial(self, "the diagonal value").values_at(*at)
        # + 0.0 writes a kernel that vanishes at the pole as 0.0, not -0.0
        return float(vals[0]) + 0.0


def _one_trial(gf: GreenField, job: str) -> GreenField:
    """``gf``, unless its factor stacks trials: ``job`` takes one."""
    if np.ndim(gf.rho_pole):
        raise ValueError(f"{job} takes one factor, got a stack of "
                         f"{np.size(gf.rho_pole)} trials")
    return gf


def blowup_density(gf: GreenField, *points):
    """(G_L, |Ric_blowup|^2) at chart points for an untransported G_L, the
    squared frame norm of the Ricci tensor of G_L^{4/(n-2)} g, from the
    kernel's split G_L = P0 (1 + R): the blow-up e^{2 w0} g of P0 is flat,
    so Ric_blowup is that of e^{2u} times it, u = (2/(n-2)) log(1 + R).
    With a, A (b, B) the frame jets of the other images (of P0) over P0,
    dR = a - R b and Hess R = A - R B - b (x) dR - dR (x) b, so every
    O(r^-2) term meets R ~ r^(n-2) first.  On a sphere R = 0.

    Any other kernel raises ``ValueError``: the split is that of the
    untransported G_L, so a transported one would come back untransported
    and a G_P would read a blow-up of the wrong power."""
    if gf.operator != "L" or gf.factor is not None:
        raise ValueError(f"blowup_density needs an untransported G_L, got "
                         f"G_{gf.operator} ({gf.representation})")
    m = gf.manifold
    k = 2.0 / (m.n - 2.0)
    g, (b, hess_b), (ratio, grad, hess) = gf.kernel.split_jets(
        *m.pole_separation(gf.pole, *points))
    scale = k / (1.0 + ratio)
    for a_i, b_i in zip(grad, b):  # du = k dR / (1+R), dR = a - R b
        a_i -= ratio * b_i
        a_i *= scale
    # Hess u = k (Hess R / (1+R) - e (x) e), e = dR / (1+R) = du / k
    for key, h in hess.items():  # in place, but for a sphere's 0.0
        h -= ratio * hess_b.pop(key)
        h *= scale
        if key in FRAME_AXES:
            i, j = FRAME_AXES[key]
            h -= b[i] * grad[j]
            h -= grad[i] * (b[j] + grad[j] / k)
        hess[key] = h
    g = g * (1.0 + ratio)  # G_L
    del ratio, scale
    for b_i in b:  # dw0 = k b
        b_i *= k
    comps = ricci_from_jets(m, grad, hess,
                            dict.fromkeys(m.ricci_eigenvalues, 0.0), b)
    return g, F.frame_dot(m.basis, comps, comps)


def blowup_slabs(gf: GreenField, level: int, resolution: dict | None = None):
    """The blow-up density of an untransported G_L over the graded rule
    around its pole, one node block of ``quadrature.pole_blocks`` at a
    time: yields ``(points, weights, G_L, |Ric_blowup|^2)`` from
    ``blowup_density``, each block, a slab on a product, built only when
    it is reached, so no density outlives its block.

    The density is even about the pole, as the rule asks (on a product
    the reflection s -> -s fixes it and is an isometry), and a field
    pairs with it through its ``fields.even_part``.  A ``resolution``
    dict receives the rule's node counts and, on a product, the kernel's
    image count."""
    blocks = Q.pole_blocks(gf.manifold, gf.pole, level=level,
                           resolution=resolution)
    if resolution is not None and gf.cutoff is not None:
        resolution["images"] = gf.cutoff
    for points, w in blocks:
        yield (points, w, *blowup_density(gf, *points))


# ------------------------------------------------------------ construction

def _image_count(m: ManifoldModel, q: float) -> int:
    """Images per side of a product image sum of the kernel c r^(-2q):
    the terms decay like exp(-|q u|), so the count reaches exp(-20) of
    the pole's own."""
    return max(4, int(math.ceil(40.0 * m.radius
                                / (abs(2.0 * q) * m.length)))) + 2


def green_field(m: ManifoldModel, operator: str, pole: Pole | None = None,
                factor: ConformalFactor | None = None) -> GreenField:
    """The Green's function of ``operator`` ("L" or "P") with its pole at
    ``pole`` (the north pole by default), transported by ``factor``.

    Spheres take the closed forms; products the eigen-expansion summed
    in closed form, as an image sum of the cylinder kernel over circle
    periods.  No kernel exists where the operator's symbol has a zero
    mode: in dimension four P annihilates the constants, on every
    backend.  Both operators obey
    G~(p, q) = rho(p)^{-1} rho(q)^{-1} G(p, q) in their own weight
    convention (second order: rho^{4/(n-2)}, fourth order:
    rho^{4/(n-4)}), which ``values_at`` applies.  Every kernel is read
    off the operator's flat kernel c r^(-2q).  An operator other than L
    and P raises ``ValueError``, a zero mode ``KernelError``, and a
    circle longer than 1400 sphere radii ``UnsupportedBackendError``.
    """
    if operator not in _WEIGHT:
        raise ValueError(f"unknown operator {operator!r}")
    pole = pole or Pole()
    n = m.n
    # see _ProductImageKernel._image_loop; a sphere has length 0
    if m.length > 1400.0 * m.radius:
        raise UnsupportedBackendError(
            f"the image sums overflow on a circle longer than 1400 "
            f"sphere radii (length {m.length:g}, radius {m.radius:g})")
    thr = zero_threshold(m)
    lam_min = smallest_abs_eigenvalue(m, operator)
    if lam_min < thr:
        raise KernelError(
            f"{operator} has a zero mode on {m.kind} "
            f"(|eigenvalue| {lam_min:.3e} < threshold {thr:.3e})")
    c, q = ((flat_L_coefficient(n), 0.5 * (n - 2)) if operator == "L"
            else (flat_P_coefficient(n), 0.5 * (n - 4)))
    if not m.backend.circle:
        kernel = _SphereKernel(c, m.radius, -2.0 * q)
    elif q > 0:
        kernel = _ProductImageKernel(m, _image_count(m, q), c, q)
    else:  # P in dimension three
        kernel = _ProductImageKernelP(m, _image_count(m, q), c)
    rho_pole = 1.0
    if factor is not None:
        rho_pole = factor.rho_at(_WEIGHT[operator],
                                 *m.pole_point(pole))[..., 0]
    return GreenField(m, operator, pole, kernel, factor, rho_pole)


# ----------------------------------------------------------------- pairing

def green_pair(gf: GreenField, f: ScalarField, level: int = 2) -> float:
    """Quadrature of int G(pole, q) f(q) dmu(q) with pole grading for an
    untransported kernel, even about its pole: ``fields.pair`` of the
    ``fields.even_part`` of ``f`` about the pole with w G at each block of
    ``quadrature.pole_blocks``, as the identities pair their densities; a
    transported kernel raises ``ValueError``, as in ``blowup_density``."""
    if gf.factor is not None:
        raise ValueError(f"green_pair needs an untransported kernel, got "
                         f"G_{gf.operator} ({gf.representation})")
    even = F.even_part(f, gf.pole.s0)
    return float(sum(F.pair(even, w * gf.values_at(*points), *points)
                     for points, w in Q.pole_blocks(gf.manifold, gf.pole,
                                                    level=level)))


# --------------------------------------------------------------- sign scan

def sign_scan(green_fields) -> dict:
    """Extremal off-pole values and a global sign verdict.

    For each pole the scan reports min G over the unmasked grid in
    dimensions above four and max G in dimension three (where the kernel
    is continuous; its diagonal value is reported alongside).  A factor
    that stacks trials raises ``ValueError``.
    """
    per_pole = []
    signs = []
    for gf in green_fields:
        _one_trial(gf, "the sign scan")
        n = gf.manifold.n
        vals = gf.values_at(*gf.manifold.grid_points())
        keep = ~gf.manifold.near_pole(gf.pole)
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
    equality case.  ``cutoff`` is the image count of the G_P image sum
    (``None`` for closed forms).
    """

    margin_min: float
    margin_max: float
    equality: bool
    tolerance: float
    cutoff: int | None


def compare_green(m: ManifoldModel, poles,
                  tolerance: float = 1e-8) -> list[ComparisonResult]:
    """Margins of the kernel comparison for each pole, off the pole and,
    in dimension three, where G_P is continuous, at the diagonal too."""
    if m.n == 4:
        raise UnsupportedBackendError("the comparison needs n != 4")
    out = []
    n = m.n
    s = (n - 4.0) / (n - 2.0)
    cn = comparison_constant(n)
    for pole in poles:
        gL = green_field(m, "L", pole)
        gP = green_field(m, "P", pole)
        pts = m.grid_points()
        keep = ~m.near_pole(pole)
        vL = gL.values_at(*pts)[keep]
        vP = gP.values_at(*pts)[keep]
        if n == 3:
            margin = np.append(-(1.0 / vL + 256.0 * math.pi ** 2 * vP),
                               -256.0 * math.pi ** 2 * gP.diagonal_value())
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
        ))
    return out


# -------------------------------------------------------------------- mass

def extract_mass(m: ManifoldModel, pole: Pole | None = None,
                 factor: ConformalFactor | None = None,
                 level: int = 2) -> dict:
    """Constant term of the kernel difference at the pole, two routes.

    The expansion route extrapolates c_n G_P - G_L^{(n-4)/(n-2)} to the
    pole along its polar ray (the difference is const + O(r)), both
    kernels transported; the integral route sums
    G_P G_L^{(n-4)/(n-2)} |Ric_blowup|^2 over ``blowup_slabs``.  There
    a factor's weights cancel at each node: with rho_P = e^{(n-4)w/2},
    G~_L^{(n-4)/(n-2)} = G_L^{(n-4)/(n-2)} / (rho_P(p) rho_P(q)) and
    rho_P(q)^-2 e^{-4w} e^{nw} = 1, so the route sums the untransported
    kernels, an even integrand, and divides by rho_P(pole)^2.  Both
    carry the (4 n (n-1) w_n)^{(n-4)/(n-2)} normalization, and the
    rule's ``resolution`` comes back with them; a factor that stacks
    trials raises ``ValueError``.
    """
    if m.n not in (3, 5, 6, 7):
        raise UnsupportedBackendError(
            f"mass extraction needs dimension 3, 5, 6 or 7, got {m.kind} "
            f"with n={m.n}")
    pole = pole or Pole()
    n = m.n
    s = (n - 4.0) / (n - 2.0)
    cn = comparison_constant(n)
    norm = (4.0 * n * (n - 1) * ball_volume(n)) ** s
    gL = green_field(m, "L", pole, factor)
    gP = _one_trial(green_field(m, "P", pole, factor), "the mass")

    # expansion route: sample along the polar ray through the pole
    xi = 0.4 * 0.6 ** np.arange(8)
    r = m.radius * xi
    *along, _ = m.pole_separation(pole, *m.pole_point(pole))
    ray = m.chart_from_pole(pole, *along, xi)
    diff = cn * gP.values_at(*ray) - gL.values_at(*ray) ** s
    a_exp = Q.extrapolate_to_zero(r, diff) * norm

    # integral route: the base integrand over rho_P(pole)^2
    integral, resolution = _mass_integral(m, pole, level)
    a_int = norm * (n - 4.0) / (n - 2.0) ** 2 * integral / gP.rho_pole ** 2
    return {
        "pole": pole.label(),
        "A_expansion": float(a_exp),
        "A_integral": float(a_int),
        "normalization": norm,
        "resolution": dict(resolution),
    }


@lru_cache(maxsize=64)
def _mass_integral(m: ManifoldModel, pole: Pole, level: int):
    """(int G_P G_L^{(n-4)/(n-2)} |Ric_blowup|^2 dmu, resolution) of the
    untransported kernels over ``blowup_slabs``, one pass per (backend,
    pole, level): a transported mass divides it by rho_P(pole)^2."""
    s = (m.n - 4.0) / (m.n - 2.0)
    base_p = green_field(m, "P", pole)
    resolution = {}
    integral = 0.0
    for points, w_q, g, nsq in blowup_slabs(green_field(m, "L", pole),
                                            level, resolution):
        vals = base_p.values_at(*points) * g ** s * nsq
        integral += float(np.tensordot(w_q, vals, w_q.ndim))
    return integral, resolution
