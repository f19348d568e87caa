import copy
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_legendre

from conformal_lab import fields as F
from conformal_lab import quadrature as Q
from conformal_lab.errors import KernelError, UnsupportedBackendError
from conformal_lab.geometry import (FieldFactor, MoebiusFactor, Pole,
                                    catalog_build)
from conformal_lab.green import (ComparisonResult, _ProductImageKernelL,
                                 compare_green,
                                 comparison_constant, extract_mass,
                                 flat_L_coefficient, green_eigen_expansion,
                                 green_field, green_pair,
                                 green_sphere_closed_form, sign_scan,
                                 transport_green)
from conformal_lab.operators import apply_L, build_symbol


# ---------------------------------------------------------------- constants

def test_comparison_constant_dimension3():
    got = comparison_constant(3)
    assert abs(got + 256.0 * math.pi ** 2) < 1e-12 * 256.0 * math.pi ** 2


def test_flat_coefficient():
    # 1 / (4 n (n-1) w_n) at n = 4 equals 1 / (24 pi^2)
    assert_allclose(flat_L_coefficient(4), 1.0 / (24.0 * math.pi ** 2),
                    rtol=1e-14)


# ----------------------------------------------------------- sphere kernels

def test_sphere_green_value(sphere3):
    gf = green_sphere_closed_form(sphere3, "L")
    got = gf.values_at(np.array([math.pi / 2]))[0]
    assert_allclose(got, math.sqrt(2.0) / (64.0 * math.pi), rtol=1e-13)


def test_sphere_green_pairs_constants_to_inverse_R(sphere3, sphere5):
    for m in (sphere3, sphere5):
        gf = green_sphere_closed_form(m, "L")
        got = green_pair(gf, m.constant(1.0))
        assert_allclose(got, 1.0 / m.scalar_curvature, rtol=1e-10)


def test_sphere_P_green_dimension3(sphere3):
    gf = green_sphere_closed_form(sphere3, "P")
    th = np.array([0.4, 1.1, 2.8])
    assert_allclose(gf.values_at(th), -np.sin(th / 2) / (4 * math.pi),
                    rtol=1e-13)
    assert_allclose(green_pair(gf, sphere3.constant(1.0)), -16.0 / 15.0,
                    rtol=1e-10)


def test_sphere_harmonicity_off_pole(sphere5):
    """L applied to the closed form vanishes away from the pole."""
    m = sphere5
    n, a = m.n, m.radius
    c = flat_L_coefficient(n)
    p = 2.0 - n
    theta = np.linspace(0.25, math.pi - 0.05, 30)

    def chord(t):
        return 2.0 * a * np.sin(t / 2)

    g = c * chord(theta) ** p
    g1 = c * p * chord(theta) ** (p - 1) * a * np.cos(theta / 2)
    g2 = (c * p * (p - 1) * chord(theta) ** (p - 2) * a ** 2
          * np.cos(theta / 2) ** 2
          - c * p * chord(theta) ** (p - 1) * (a / 2) * np.sin(theta / 2))
    lap = (g2 + (n - 1) / np.tan(theta) * g1) / a ** 2
    residual = -4 * (n - 1) / (n - 2) * lap + m.scalar_curvature * g
    assert np.max(np.abs(residual)) < 1e-8 * np.max(np.abs(g) * m.scalar_curvature)


def test_delta_normalization_sphere(sphere5, rng):
    gf = green_sphere_closed_form(sphere5, "L")
    for _ in range(5):
        phi = F.random_bandlimited(sphere5.basis, rng, degree=9)
        got = green_pair(gf, apply_L(sphere5, phi))
        want = float(F.evaluate(phi, np.array([0.0]))[0])
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_p_green_needs_dimension_not_four(sphere4):
    with pytest.raises(KernelError):
        green_sphere_closed_form(sphere4, "P")


def test_sphere3_eigen_expansion_cross_check(sphere3):
    """Accelerated zonal eigen-expansion vs the closed form, off-pole."""
    theta = np.linspace(0.35, math.pi - 0.2, 25)
    # eigenvalues 8 j^2 - 2 at zonal degree j - 1; split off the 1/(8j)
    # tail whose sine series is (pi - theta) / 2
    jmax = 4000
    j = np.arange(1, jmax + 1, dtype=float)
    coef = j / (8.0 * j ** 2 - 2.0) - 1.0 / (8.0 * j)
    series = np.sin(np.outer(theta, j)) @ coef
    eigen = ((math.pi - theta) / 16.0 + series) / (2.0 * math.pi ** 2
                                                   * np.sin(theta))
    gf = green_sphere_closed_form(sphere3, "L")
    assert np.max(np.abs(eigen - gf.values_at(theta))) < 1e-6


# ---------------------------------------------------------- product kernels

def test_product_green_pairs_constants(s1xs2, s1xs3):
    for m in (s1xs2, s1xs3):
        gf = green_eigen_expansion(m, "L")
        got = green_pair(gf, m.constant(1.0))
        assert_allclose(got, 1.0 / m.scalar_curvature, rtol=1e-8)


def test_delta_normalization_product(s1xs2, rng):
    gf = green_eigen_expansion(s1xs2, "L")
    for _ in range(5):
        phi = F.random_bandlimited(s1xs2.basis, rng, degree=6, fourier=4)
        got = green_pair(gf, apply_L(s1xs2, phi), level=3)
        want = float(F.evaluate(phi, np.array([0.0]), np.array([0.0]))[0])
        assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_product_image_kernel_matches_mode_sum(s1xs2):
    """The closed image sum equals the raw truncated eigen-expansion."""
    big = catalog_build("product-S1xS2", None, {"length": 2 * math.pi},
                        {"degree_max": 120, "fourier_max": 80,
                         "sphere_nodes": 130, "circle_nodes": 170})
    b = big.basis
    lam = build_symbol(big, "L")
    ds, chi = 1.1, 1.9
    U0 = b.circle_values(np.array([0.0, ds]))
    P0 = b.polar_values(np.array([1.0, math.cos(chi)]))
    series = float(np.sum(U0[0][:, None] * P0[0][None, :]
                          * U0[1][:, None] * P0[1][None, :] / lam))
    gf = green_eigen_expansion(s1xs2, "L")
    got = float(gf.values_at(np.array([ds]), np.array([chi]))[0])
    assert abs(got - series) < 1e-5


@pytest.mark.parametrize("name", ["s1xs2", "s1xs3"])
def test_image_kernel_jets_match_value_and_differences(name, request):
    m = request.getfixturevalue(name)
    kern = green_eigen_expansion(m, "L").kernel
    rng = np.random.default_rng(5)
    ds = rng.uniform(-3.0, 3.0, 30)
    chi = rng.uniform(0.4, 2.7, 30)
    w, (w_s, w_x), hess = kern.log_jets(1.0, ds, chi)
    assert_allclose(np.exp(w), kern.value(ds, chi), rtol=1e-14)
    # frame jets to chart partials of w = log G_L in (s, chi)
    b = m.radius
    j = {"s": w_s, "x": b * w_x, "ss": hess["ss"], "xx": b ** 2 * hess["xx"],
         "sx": b * hess["sx"]}
    assert_allclose(b ** 2 * hess["orb"], j["x"] / np.tan(chi), rtol=1e-12)

    def logv(s, x):
        return np.log(kern.value(s, x))

    def d1(h, *shift):
        return (logv(ds + h * shift[0], chi + h * shift[1])
                - logv(ds - h * shift[0], chi - h * shift[1])) / (2 * h)

    def d2(h, *shift):
        return (logv(ds + h * shift[0], chi + h * shift[1]) - 2 * logv(ds, chi)
                + logv(ds - h * shift[0], chi - h * shift[1])) / h ** 2

    h = 1e-4
    want = {
        "s": d1(1e-5, 1, 0),
        "x": d1(1e-5, 0, 1),
        "ss": d2(h, 1, 0),
        "xx": d2(h, 0, 1),
        # d_s d_chi from the second differences along the diagonals
        "sx": (d2(h, 1, 1) - d2(h, 1, -1)) / 4,
    }
    for key, fd in want.items():
        scale = np.max(np.abs(j[key]))
        assert_allclose(j[key], fd, rtol=0, atol=1e-6 * scale, err_msg=key)


def _mirror_defects(kern):
    """Per component of the image kernel's value and log jets, the
    largest defect of its parity under ds -> -ds over a mesh off the
    pole, relative to the component's largest value: w_s and sx must
    be odd, every other component even."""
    ell = kern.ell
    ds = np.linspace(0.0, 0.5 * ell, 24)[1:, None]
    chi = np.linspace(0.0, math.pi, 20)[None, 1:]

    def components(sign):
        w, (w_s, w_x), hess = kern.log_jets(0.5, sign * ds, chi)
        return {"value": kern.value(sign * ds, chi), "w": w, "w_s": w_s,
                "w_x": w_x, **hess}

    plus, minus = components(1.0), components(-1.0)
    odd = {"w_s", "sx"}
    return {k: float(np.max(np.abs(plus[k] - (-1.0 if k in odd else 1.0)
                                   * minus[k])) / np.max(np.abs(plus[k])))
            for k in plus}


@pytest.mark.parametrize("kind", ["product-S1xS2", "product-S1xS3"])
@pytest.mark.parametrize("length", [0.5, 2 * math.pi, 40.0])
def test_parity_of_the_image_kernel(kind, length, monkeypatch):
    """The reflection ds -> -ds fixes the pole and is an isometry, so G_L
    and its log jets keep their parity to 6e-15 (at l = 2 pi), which
    the half rule of the identities relies on.  Dropping only the
    j = +1 image breaks the parity of every component by more than
    1e3 times that bound (5e-10 for orb at l = 40, where the image is
    far from the mesh's largest values) and of some component by more
    than 0.1."""
    m = catalog_build(kind, None, {"length": length},
                      {"degree_max": 4, "fourier_max": 2})
    kern = green_eigen_expansion(m, "L").kernel
    defects = _mirror_defects(kern)
    assert set(defects) == {"value", "w", "w_s", "w_x", "ss", "sx", "xx",
                            "orb"}
    for k, defect in defects.items():
        assert defect <= 1e-14, (k, defect)

    sums = _ProductImageKernelL._sums

    def without_plus_one(self, ds, chi, jets):
        full = sums(self, ds, chi, jets)
        cutoff, self.cutoff = self.cutoff, 0
        try:  # the j = +1 image alone is the j = 0 term one circle on
            image = sums(self, np.asarray(ds, dtype=float) + self.ell, chi,
                         jets)
        finally:
            self.cutoff = cutoff
        return [f - i for f, i in zip(full, image)]

    monkeypatch.setattr(_ProductImageKernelL, "_sums", without_plus_one)
    broken = _mirror_defects(kern)
    assert min(broken.values()) > 1e3 * 1e-14, broken
    assert max(broken.values()) > 0.1, broken


def _per_image_jets(kern, scale, ds, chi):
    """The image kernel's value and log jets the long way: per image
    j = -K..K a half-angle sinh, general powers D ** -q and seven running
    sums, with sum D^(-q-2) sinh^2 u and sum D^(-q-1) cosh u taken as
    they stand."""
    q, b, per = kern.q, kern.b, kern.ell / kern.b
    u0 = np.asarray(ds, dtype=float) / b
    chi = np.asarray(chi, dtype=float)
    sin2 = np.sin(0.5 * chi) ** 2
    S0 = S1 = S2 = H1 = T1 = T2 = Q2 = 0.0
    for j in range(-kern.cutoff, kern.cutoff + 1):
        h = np.sinh(0.5 * (u0 + per * j))
        D = 4.0 * (h * h + sin2)
        sinh_u = 2.0 * h * np.sqrt(1.0 + h * h)
        S0 = S0 + D ** -q
        S1 = S1 + D ** (-q - 1)
        S2 = S2 + D ** (-q - 2)
        H1 = H1 + D ** (-q - 1) * h * h
        T1 = T1 + D ** (-q - 1) * sinh_u
        T2 = T2 + D ** (-q - 2) * sinh_u
        Q2 = Q2 + D ** (-q - 2) * sinh_u ** 2
    c = kern.cL * b ** (2 - kern.n)
    s_chi, c_chi = np.sin(chi), np.cos(chi)
    g = c * S0
    g_s = -2.0 * q * c / b * T1
    g_ss = c / b ** 2 * (4.0 * q * (q + 1) * Q2 - 2.0 * q * (S1 + 2.0 * H1))
    x_over_sin = -2.0 * q * c * S1
    g_x = x_over_sin * s_chi
    g_xx = c * (4.0 * q * (q + 1) * s_chi ** 2 * S2 - 2.0 * q * c_chi * S1)
    g_sx = 4.0 * q * (q + 1) * c / b * s_chi * T2
    return {"value": g, "w": scale * np.log(g), "w_s": scale * g_s / g,
            "w_x": scale * g_x / g / b,
            "ss": scale * (g_ss / g - (g_s / g) ** 2),
            "sx": scale * (g_sx / g - g_s * g_x / g ** 2) / b,
            "xx": scale * (g_xx / g - (g_x / g) ** 2) / b ** 2,
            "orb": scale * c_chi * x_over_sin / g / b ** 2}


def _kernel_components(kern, scale, ds, chi):
    w, (w_s, w_x), hess = kern.log_jets(scale, ds, chi)
    return {"value": kern.value(ds, chi), "w": w, "w_s": w_s, "w_x": w_x,
            **hess}


@pytest.mark.parametrize("kind", ["product-S1xS2", "product-S1xS3"])
@pytest.mark.parametrize("length", [0.5, 2 * math.pi, 40.0])
def test_image_kernel_matches_the_per_image_sum(kind, length):
    """On both half blocks of the level-2 product rule, the kernel's value
    and every log-jet component agree with ``_per_image_jets`` to 1e-13
    of the component's largest value on the block.  They read at most
    2.7e-14, for ss at l = 0.5 on S1xS3 at the far rectangle's node
    nearest the pole, where w_ss cancels a hundredfold and the five sums
    enter it through the sinh^2 u identity with independent roundings
    (an 80-bit evaluation of the per-image sum puts the kernel 2.4e-14
    and the reference 4.9e-15 off there)."""
    m = catalog_build(kind, None, {"length": length},
                      {"degree_max": 4, "fourier_max": 2})
    kern = green_eigen_expansion(m, "L").kernel
    for points, _ in Q.product_blocks(m, Pole(), level=2):
        ds, chi = m.pole_separation(Pole(), *points)
        got = _kernel_components(kern, 0.5, ds, chi)
        want = _per_image_jets(kern, 0.5, ds, chi)
        assert set(got) == set(want)
        for key, ref in want.items():
            assert_allclose(got[key], ref, rtol=0,
                            atol=1e-13 * np.max(np.abs(ref)), err_msg=key)


@pytest.mark.parametrize("kind", ["product-S1xS2", "product-S1xS3"])
@pytest.mark.parametrize("length", [180.0, 250.0, 1000.0])
def test_long_circle_jets_are_finite(kind, length):
    """On a long circle the images j != 0 fall below double range at the
    points near the pole and add 0: value and jets stay finite and equal
    the j = 0 image alone to rounding.  (Written with sinh(u/2)^2 the far
    images overflow to inf, and inf * 0 made w_s, ss and sx NaN from
    l = 180 on.)"""
    m = catalog_build(kind, None, {"length": length},
                      {"degree_max": 4, "fourier_max": 2})
    kern = green_eigen_expansion(m, "L").kernel
    alone = copy.copy(kern)
    alone.cutoff = 0
    ds, chi = np.array([0.3, -0.3, 1.0]), np.array([0.5, 0.1, 2.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _kernel_components(kern, 0.5, ds, chi)
    want = _kernel_components(alone, 0.5, ds, chi)
    for key, ref in want.items():
        assert np.all(np.isfinite(got[key])), key
        assert_allclose(got[key], ref, rtol=1e-15, atol=0, err_msg=key)


@pytest.mark.parametrize("kind", ["product-S1xS2", "product-S1xS3"])
def test_image_kernel_refuses_circles_beyond_its_range(kind):
    """Up to l = 1400 b value and jets stay finite at |ds| = 0.49 l, the
    far end of the circle; beyond it the pole's own image overflows and
    they would turn NaN, so the expansion raises instead, for either
    operator and before it looks for a zero mode (P on S1xS3)."""
    m = catalog_build(kind, None, {"length": 1400.0},
                      {"degree_max": 4, "fourier_max": 2})
    kern = green_eigen_expansion(m, "L").kernel
    ds, chi = 0.49 * m.length * np.array([1.0, -1.0]), np.array([0.5, 2.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        comps = _kernel_components(kern, 0.5, ds, chi)
    for key, arr in comps.items():
        assert np.all(np.isfinite(arr)), key
    m = catalog_build(kind, None, {"length": 1450.0},
                      {"degree_max": 4, "fourier_max": 2})
    for operator in ("L", "P"):
        with pytest.raises(UnsupportedBackendError,
                           match="1400 sphere radii"):
            green_eigen_expansion(m, operator)


def test_image_kernel_jets_take_a_few_point_vectors(s1xs2):
    """Images are added one at a time: no (points x images) arrays."""
    kern = green_eigen_expansion(s1xs2, "L").kernel
    n = 50_000
    rng = np.random.default_rng(6)
    ds = rng.uniform(-math.pi, math.pi, n)
    chi = rng.uniform(0.0, math.pi, n)
    tracemalloc.start()
    try:
        kern.log_jets(1.0, ds, chi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 8 * n, f"peak {peak / (8 * n):.0f} point vectors"


def test_south_pole_log_profile_matches_differences_of_its_w(s1xs2):
    """A south pole reverses the polar direction: the profile's polar
    gradient component and its sx Hessian component change sign, and
    central differences of its own w in chart coordinates agree."""
    prof = green_eigen_expansion(s1xs2, "L", Pole(-1, 0.7)).log_profile(2.0)
    rng = np.random.default_rng(7)
    s = rng.uniform(-3.0, 3.0, 20)
    chi = rng.uniform(0.3, 2.8, 20)
    _, (g_s, g_x), hess = prof.jets((s, chi))
    b = s1xs2.radius

    def d(h, ks, kx):
        return prof.w_at(s + ks * h, chi + kx * h)

    h = 1e-5
    fd_s = (d(h, 1, 0) - d(h, -1, 0)) / (2 * h)
    fd_x = (d(h, 0, 1) - d(h, 0, -1)) / (2 * h * b)
    h = 1e-4
    fd_sx = (d(h, 1, 1) - d(h, 1, -1) - d(h, -1, 1) + d(h, -1, -1)) \
        / (4 * h * h * b)
    # measured 8e-11, 7e-11 and 5e-8 of the largest component
    for got, fd, rel in ((g_s, fd_s, 1e-9), (g_x, fd_x, 1e-9),
                         (hess["sx"], fd_sx, 1e-6)):
        assert_allclose(got, fd, rtol=0, atol=rel * np.max(np.abs(got)))


def test_product_green_symmetry(s1xs2):
    gf_n = green_eigen_expansion(s1xs2, "L", Pole(axis=1, s0=0.0))
    gf_s = green_eigen_expansion(s1xs2, "L", Pole(axis=-1, s0=1.3))
    v1 = gf_n.values_at(np.array([1.3]), np.array([math.pi]))
    v2 = gf_s.values_at(np.array([0.0]), np.array([0.0]))
    assert_allclose(v1, v2, rtol=1e-12)


def test_kernel_error_for_P_on_s1xs3(s1xs3):
    with pytest.raises(KernelError):
        green_eigen_expansion(s1xs3, "P")


def _degree_roots(m, degrees):
    """Per sphere degree m the P symbol of S1 x S^d(b) factors as
    (w + z1)(w + z2) over the circle eigenvalues w, with the real roots
    sqrt(z1) = |m + (n-4)/2| / b and sqrt(z2) = (m + n/2) / b."""
    ms = np.arange(degrees + 1, dtype=float)
    return (np.abs(ms + 0.5 * (m.n - 4)) / m.radius,
            (ms + 0.5 * m.n) / m.radius)


def _degree_sum_P(m, ds, chi, degrees=600):
    """G_P on S1(l) x S2(b) as its truncated sphere-degree sum: the circle
    kernel of a degree is the partial fraction (k(z1) - k(z2)) / (z2 - z1)
    of the kernels k(z) of -d^2/ds^2 + z on the circle, and its zonal
    harmonic the Legendre polynomial P_m(cos chi), weighted by
    (2m + 1) / (4 pi b^2).  Off ds = 0 the degrees decay like
    exp(-m |ds| / b)."""
    b, ell = m.radius, m.length
    r1, r2 = _degree_roots(m, degrees)
    u = np.abs(np.asarray(ds, dtype=float))[..., None]

    def circle(r):
        return (np.exp(-r * u) + np.exp(-r * (ell - u))) \
            / (2.0 * r * -np.expm1(-r * ell))

    ms = np.arange(degrees + 1)
    zonal = eval_legendre(ms, np.cos(np.asarray(chi, dtype=float))[..., None])
    weight = (2 * ms + 1) / (4.0 * math.pi * b * b)
    return np.sum(weight * (circle(r1) - circle(r2)) / (r2 ** 2 - r1 ** 2)
                  * zonal, axis=-1)


@pytest.mark.parametrize("kind", ["product-S1xS2", "product-S1xS3"])
@pytest.mark.parametrize("radius, length", [(1.0, 2 * math.pi), (1.3, 0.7)])
def test_degree_sum_roots_factor_the_P_symbol(kind, radius, length):
    """The closed-form real roots of the degree sum factor the P symbol
    of every (circle mode, degree): (w + z1)(w + z2), w = (2 pi k / l)^2."""
    m = catalog_build(kind, None, {"length": length, "radius": radius},
                      {"degree_max": 16, "fourier_max": 8})
    r1, r2 = _degree_roots(m, 16)
    w = m.basis.circle_factor_eigenvalues()[:, None]
    table = build_symbol(m, "P")
    assert_allclose((w + r1 ** 2) * (w + r2 ** 2), table,
                    rtol=0, atol=1e-14 * np.max(np.abs(table)))


# (length, radius) of the S1 x S2 cases, with the relative bound on the G_P
# image sum: the images stop at exp(-20) of the pole's own, which shows at
# l = 0.5 (measured 1.1e-9 against the degree sum, 1.1e-9 at the pole and
# 1.2e-9 in the pairing) and is below rounding elsewhere (at most 2.7e-12)
P_CASES = [(2 * math.pi, 1.0, 2e-11), (0.5, 1.0, 5e-9), (40.0, 1.0, 2e-11),
           (2 * math.pi, 1.3, 2e-11), (3.0, 0.7, 2e-11)]


def _s1xs2(length, radius):
    return catalog_build("product-S1xS2", None,
                         {"length": length, "radius": radius},
                         {"degree_max": 8, "fourier_max": 4})


@pytest.mark.parametrize("length, radius, rel", P_CASES)
def test_paneitz_image_kernel_matches_the_degree_sum(length, radius, rel):
    """Off ds = 0, where the degree sum converges, the two agree."""
    m = _s1xs2(length, radius)
    rng = np.random.default_rng(11)
    ds = length * rng.uniform(0.1, 0.5, 40) * rng.choice([-1.0, 1.0], 40)
    chi = rng.uniform(0.0, math.pi, 40)
    got = green_eigen_expansion(m, "P").kernel.value(ds, chi)
    want = _degree_sum_P(m, ds, chi)
    assert_allclose(got, want, rtol=0, atol=rel * np.max(np.abs(want)))


@pytest.mark.parametrize("length, radius, rel", P_CASES)
def test_paneitz_image_kernel_pole_value(length, radius, rel):
    """At the pole each image is E^(1/2) / 2, which sums to
    (b / 4 pi) coth(l / 4b)."""
    gp = green_eigen_expansion(_s1xs2(length, radius), "P")
    want = radius / (4.0 * math.pi * math.tanh(length / (4.0 * radius)))
    assert_allclose(gp.diagonal_value(), want, rtol=rel)


@pytest.mark.parametrize("length, radius, rel", P_CASES)
def test_paneitz_image_kernel_inverts_P_on_constants(length, radius, rel):
    """int G_P dmu is 1 / P_00, the inverse of P on the constants; the
    bound is at least 1e-9, since the level-2 rule itself is off by up to
    2.8e-10 (b = 1.3)."""
    m = _s1xs2(length, radius)
    gp = green_eigen_expansion(m, "P")
    p00 = float(build_symbol(m, "P").flat[0])
    assert_allclose(green_pair(gp, m.constant(1.0)) * p00, 1.0,
                    rtol=max(rel, 1e-9))


def test_paneitz_image_kernel_on_a_long_circle_is_finite():
    """At l = 1000 b the grid reaches |ds| = l / 2, where exp(-ds / b) of
    the far images is near the end of double range."""
    m = catalog_build("product-S1xS2", None, {"length": 1000.0},
                      {"degree_max": 4, "fourier_max": 2})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = green_eigen_expansion(m, "P").values_at(*m.grid_points())
    assert np.all(np.isfinite(vals))


def test_eigen_expansion_rejects_spheres(sphere5):
    with pytest.raises(UnsupportedBackendError):
        green_eigen_expansion(sphere5, "L")


# ---------------------------------------------------------------- transport

def test_transport_identity_factor(sphere5):
    gf = green_sphere_closed_form(sphere5, "L")
    gt = transport_green(gf, FieldFactor(sphere5, sphere5.constant(0.0)))
    th = np.linspace(0.2, 3.0, 7)
    assert_allclose(gt.values_at(th), gf.values_at(th), rtol=1e-12)


def test_transport_constant_factor_scales(sphere5):
    c, n = 1.7, sphere5.n

    def constant(rho, exponent):
        # the factor whose weight rho^exponent multiplies the metric
        w = 0.5 * exponent * math.log(rho)
        return FieldFactor(sphere5, sphere5.constant(w))

    gf = green_sphere_closed_form(sphere5, "L")
    gt = transport_green(gf, constant(c, 4.0 / (n - 2)))
    th = np.linspace(0.2, 3.0, 7)
    assert_allclose(gt.values_at(th), gf.values_at(th) / c ** 2, rtol=1e-12)
    gp = green_sphere_closed_form(sphere5, "P")
    gpt = transport_green(gp, constant(c, 4.0 / (n - 4)))
    assert_allclose(gpt.values_at(th), gp.values_at(th) / c ** 2, rtol=1e-12)


def test_transport_preserves_sign(sphere5, rng):
    w = F.random_bandlimited(sphere5.basis, rng, degree=3, amplitude=0.3)
    factor = FieldFactor(sphere5, w)
    gp = green_sphere_closed_form(sphere5, "P")
    scan0 = sign_scan([gp])
    scan1 = sign_scan([transport_green(gp, factor)])
    assert scan0["verdict"] == scan1["verdict"] == "POSITIVE"


# ---------------------------------------------------------------- sign scan

def test_sign_scan_sphere5_positive(sphere5):
    gfs = [green_sphere_closed_form(sphere5, "P", p)
           for p in (Pole(1), Pole(-1))]
    scan = sign_scan(gfs)
    assert scan["verdict"] == "POSITIVE"
    assert all(rec["theta_value"] > 0 for rec in scan["poles"])


def test_sign_scan_sphere3_negative_with_zero_diagonal(sphere3):
    gf = green_sphere_closed_form(sphere3, "P")
    scan = sign_scan([gf])
    assert scan["verdict"] == "NEGATIVE"
    rec = scan["poles"][0]
    assert rec["theta_value"] < 0
    assert rec["diagonal_value"] == 0.0


def test_sign_scan_product_is_reported_not_asserted(s1xs2):
    gf = green_eigen_expansion(s1xs2, "P")
    scan = sign_scan([gf])
    assert scan["verdict"] in ("POSITIVE", "NEGATIVE", "MIXED")


def test_diagonal_value_is_the_kernel_at_the_pole(sphere3, s1xs2):
    """The 3d G_P is continuous at its pole: on S1(2 pi) x S2 it is
    coth(pi / 2) / 4 pi = 0.0867658 there, the S^3 closed form vanishes
    there."""
    gp = green_eigen_expansion(s1xs2, "P", Pole(1, 1.0))
    diag = gp.diagonal_value()
    assert abs(diag - 0.0867658) < 1e-7
    # the limit along the circle, where G_P = diag + O(r)
    near = gp.values_at(np.array([1.0 + 1e-7]), np.zeros(1))[0]
    assert abs(near - diag) < 1e-6
    assert sign_scan([gp])["poles"][0]["diagonal_value"] == diag
    assert green_sphere_closed_form(sphere3, "P").diagonal_value() == 0.0
    assert green_sphere_closed_form(sphere3, "L").diagonal_value() is None


# --------------------------------------------------------------- comparison

def test_compare_green_equality_on_spheres(sphere3, sphere5):
    for m in (sphere3, sphere5):
        results = compare_green(m, [Pole(1), Pole(-1)])
        for res in results:
            assert isinstance(res, ComparisonResult)
            assert res.equality
            assert abs(res.margin_min) <= res.tolerance
            assert abs(res.margin_max) <= 10 * res.tolerance


def test_compare_green_transported(sphere5, rng):
    w = F.random_bandlimited(sphere5.basis, rng, degree=3, amplitude=0.2)
    factor = FieldFactor(sphere5, w)
    res = compare_green(sphere5, [Pole(1)], factor=factor)[0]
    assert res.equality


# --------------------------------------------------------------------- mass

def test_mass_vanishes_on_round_sphere(sphere5):
    res = extract_mass(sphere5, Pole(1))
    assert abs(res["A_expansion"]) < 1e-6
    assert abs(res["A_integral"]) < 1e-6


def test_mass_vanishes_after_moebius_transport(sphere5):
    factor = MoebiusFactor(sphere5, 1.35)
    res = extract_mass(sphere5, Pole(1), factor)
    assert abs(res["A_expansion"]) < 1e-6
    assert abs(res["A_integral"]) < 1e-6


def test_mass_rejects_products(s1xs2):
    with pytest.raises(UnsupportedBackendError):
        extract_mass(s1xs2, Pole())


def test_green_field_helper_builds_and_transports(sphere5, rng):
    w = F.random_bandlimited(sphere5.basis, rng, degree=3, amplitude=0.1)
    factor = FieldFactor(sphere5, w)
    gf = green_field(sphere5, "L", Pole(1), factor)
    assert "transport" in gf.representation
