import copy
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_legendre

from conformal_lab import basis
from conformal_lab import fields as F
from conformal_lab import green
from conformal_lab import quadrature as Q
from conformal_lab.errors import KernelError, UnsupportedBackendError
from conformal_lab.geometry import (FieldFactor, MoebiusFactor, Pole,
                                    catalog_build)
from conformal_lab.green import (ComparisonResult, GreenField, _image_count,
                                 _ProductImageKernel, blowup_density,
                                 blowup_slabs, compare_green,
                                 comparison_constant, extract_mass,
                                 flat_L_coefficient, green_field, green_pair,
                                 sign_scan)
from conformal_lab.operators import apply_L, build_symbol

from random_fields import random_bandlimited


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
    gf = green_field(sphere3, "L")
    got = gf.values_at(np.array([math.pi / 2]))[0]
    assert_allclose(got, math.sqrt(2.0) / (64.0 * math.pi), rtol=1e-13)


def test_sphere_green_pairs_constants_to_inverse_R(sphere3, sphere5):
    for m in (sphere3, sphere5):
        gf = green_field(m, "L")
        got = green_pair(gf, m.constant(1.0))
        assert_allclose(got, 1.0 / m.scalar_curvature, rtol=1e-10)


def test_sphere_P_green_dimension3(sphere3):
    gf = green_field(sphere3, "P")
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
    gf = green_field(sphere5, "L")
    for _ in range(5):
        phi = random_bandlimited(sphere5.basis, rng, degree=9)
        got = green_pair(gf, apply_L(sphere5, phi))
        want = float(F.evaluate(phi, np.array([0.0]))[0])
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


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
    gf = green_field(sphere3, "L")
    assert np.max(np.abs(eigen - gf.values_at(theta))) < 1e-6


# ---------------------------------------------------------- product kernels

def test_product_green_pairs_constants(s1xs2, s1xs3):
    for m in (s1xs2, s1xs3):
        gf = green_field(m, "L")
        got = green_pair(gf, m.constant(1.0))
        assert_allclose(got, 1.0 / m.scalar_curvature, rtol=1e-8)


def test_delta_normalization_product(s1xs2, rng):
    gf = green_field(s1xs2, "L")
    for _ in range(5):
        phi = random_bandlimited(s1xs2.basis, rng, degree=6, fourier=4)
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
    gf = green_field(s1xs2, "L")
    got = float(gf.values_at(np.array([ds]), np.array([chi]))[0])
    assert abs(got - series) < 1e-5


@pytest.mark.parametrize("name", ["s1xs2", "s1xs3"])
def test_image_kernel_jets_match_value_and_differences(name, request):
    """The split G_L = P0 (1 + R): P0 (1 + R) is the kernel's value, and
    the frame jets of P0 and of the other images O = P0 R, each taken
    over its own value, agree with central differences of log P0 and
    log O."""
    m = request.getfixturevalue(name)
    kern = green_field(m, "L").kernel
    rng = np.random.default_rng(5)
    ds = rng.uniform(-3.0, 3.0, 30)
    chi = rng.uniform(0.4, 2.7, 30)
    p0, pole, (ratio, *others) = kern.split_jets(ds, chi)
    assert_allclose(p0 * (1.0 + ratio), kern.value(ds, chi), rtol=1e-14)
    b = m.radius

    def log_own(s, x):
        return np.log(kern.split_jets(s, x)[0])

    def log_other(s, x):
        p, _, (r, _, _) = kern.split_jets(s, x)
        return np.log(p * r)

    for logv, v, ((g_s, g_x), hess) in ((log_own, 1.0, pole),
                                        (log_other, ratio, others)):
        # frame jets over the value to chart partials of its logarithm
        g_s, g_x = g_s / v, b * g_x / v
        j = {"s": g_s, "x": g_x, "ss": hess["ss"] / v - g_s * g_s,
             "xx": b ** 2 * hess["xx"] / v - g_x * g_x,
             "sx": b * hess["sx"] / v - g_s * g_x}
        assert_allclose(b ** 2 * hess["orb"] / v, g_x / np.tan(chi),
                        rtol=1e-12)

        def d1(h, *shift):
            return (logv(ds + h * shift[0], chi + h * shift[1])
                    - logv(ds - h * shift[0], chi - h * shift[1])) / (2 * h)

        def d2(h, *shift):
            return (logv(ds + h * shift[0], chi + h * shift[1])
                    - 2 * logv(ds, chi)
                    + logv(ds - h * shift[0], chi - h * shift[1])) / h ** 2

        # h = 1e-3: log O varies slowly, and at 1e-4 the rounding of its
        # second differences reads 1e-5 of the chi Hessian
        h = 1e-3
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
            assert_allclose(j[key], fd, rtol=0, atol=1e-6 * scale,
                            err_msg=(logv.__name__, key))


def _terms(sums, jets):
    """The sums (S0, S1, S2, T1, T2) of ``_ProductImageKernel._sums`` over
    the pole's own image alone, from what the call with ``jets`` gives."""
    if not jets:
        return sums
    (p, r, s), _ = sums
    return [p, p * r, p * r * r, p * s, p * r * s]


def _mirror_defects(kern):
    """Per component of the image kernel's value and split jets, the
    largest defect of its parity under ds -> -ds over a mesh off the
    pole, relative to the component's largest value: the s gradients and
    sx must be odd, every other component even."""
    ell = kern.ell
    ds = np.linspace(0.0, 0.5 * ell, 24)[1:, None]
    chi = np.linspace(0.0, math.pi, 20)[None, 1:]

    def components(sign):
        return _kernel_components(kern, sign * ds, chi)

    plus, minus = components(1.0), components(-1.0)
    return {k: float(np.max(np.abs(plus[k] - (-1.0 if k in ODD else 1.0)
                                   * minus[k])) / np.max(np.abs(plus[k])))
            for k in plus}


@pytest.mark.parametrize("kind", ["product-S1xS2", "product-S1xS3"])
@pytest.mark.parametrize("length", [0.5, 2 * math.pi, 40.0])
def test_parity_of_the_image_kernel(kind, length, monkeypatch):
    """The reflection ds -> -ds fixes the pole and is an isometry, so G_L
    and the jets of its split keep their parity to 1e-14, which the half
    rule of the identities relies on.  Dropping only the j = +1 image
    breaks the parity of the value and of every component of the other
    images by more than 1e3 times that bound and of some component by
    more than 0.1, and leaves the pole's own image as it was."""
    m = catalog_build(kind, None, {"length": length},
                      {"degree_max": 4, "fourier_max": 2})
    kern = green_field(m, "L").kernel
    defects = _mirror_defects(kern)
    assert set(defects) == {"value", "p0", "ratio"} | {
        f"{side}_{k}" for side in "ab"
        for k in ("s", "x", "ss", "sx", "xx", "orb")}
    for k, defect in defects.items():
        assert defect <= 1e-14, (k, defect)

    sums = _ProductImageKernel._sums

    def without_plus_one(self, ds, sin_half, jets):
        full = sums(self, ds, sin_half, jets)
        others = full[1] if jets else full
        cutoff, self.cutoff = self.cutoff, 0
        try:  # the j = +1 image alone is the j = 0 term one circle on
            image = sums(self, np.asarray(ds, dtype=float) + self.ell,
                         sin_half, jets)
        finally:
            self.cutoff = cutoff
        others[:] = [f - i for f, i in zip(others, _terms(image, jets))]
        return full

    monkeypatch.setattr(_ProductImageKernel, "_sums", without_plus_one)
    broken = _mirror_defects(kern)
    pole = {k: v for k, v in broken.items() if k == "p0" or k[:2] == "b_"}
    assert pole == {k: defects[k] for k in pole}
    others = {k: v for k, v in broken.items() if k not in pole}
    assert min(others.values()) > 1e3 * 1e-14, others
    assert max(others.values()) > 0.1, others


def _per_image_jets(kern, ds, chi):
    """The image kernel's value and split jets the long way: per image
    j = -K..K a half-angle sinh, general powers D ** -q and seven running
    sums, for the pole's own image and for the others apart, with
    sum D^(-q-2) sinh^2 u and sum D^(-q-1) cosh u taken as they stand."""
    q, b, per = kern.q, kern.b, kern.ell / kern.b
    u0 = np.asarray(ds, dtype=float) / b
    chi = np.asarray(chi, dtype=float)
    sin2 = np.sin(0.5 * chi) ** 2
    s_chi, c_chi = np.sin(chi), np.cos(chi)
    c = kern.c

    def partials(images):
        """c times the sums' value and chart partials in (s, chi), and
        the chi partial over sin(chi)."""
        S0 = S1 = S2 = H1 = T1 = T2 = Q2 = 0.0
        for j in images:
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
        x_over_sin = -2.0 * q * c * S1
        return {
            "value": c * S0, "s": -2.0 * q * c / b * T1,
            "ss": c / b ** 2 * (4.0 * q * (q + 1) * Q2
                                - 2.0 * q * (S1 + 2.0 * H1)),
            "x": x_over_sin * s_chi, "x_over_sin": x_over_sin,
            "xx": c * (4.0 * q * (q + 1) * s_chi ** 2 * S2
                       - 2.0 * q * c_chi * S1),
            "sx": 4.0 * q * (q + 1) * c / b * s_chi * T2}

    pole = partials([0])
    others = partials([j for j in range(-kern.cutoff, kern.cutoff + 1) if j])
    p0 = pole["value"]
    out = {"value": p0 + others["value"], "p0": p0,
           "ratio": others["value"] / p0}
    for side, g in (("b", pole), ("a", others)):
        out.update({f"{side}_s": g["s"] / p0, f"{side}_x": g["x"] / p0 / b,
                    f"{side}_ss": g["ss"] / p0, f"{side}_sx": g["sx"] / p0 / b,
                    f"{side}_xx": g["xx"] / p0 / b ** 2,
                    f"{side}_orb": c_chi * g["x_over_sin"] / p0 / b ** 2})
    return out


# the components of ``_kernel_components`` odd under ds -> -ds
ODD = {"a_s", "a_sx", "b_s", "b_sx"}


def _kernel_components(kern, ds, chi):
    """The kernel's value and its split jets by name: P0, R, and the
    frame gradient (s, x) and Hessian of P0 (b) and of the other images
    (a) over P0."""
    p0, ((b_s, b_x), hess_b), (ratio, (a_s, a_x), hess_a) = \
        kern.split_jets(ds, chi)
    out = {"value": kern.value(ds, chi), "p0": p0, "ratio": ratio,
           "b_s": b_s, "b_x": b_x, "a_s": a_s, "a_x": a_x}
    for side, hess in (("b", hess_b), ("a", hess_a)):
        out.update({f"{side}_{k}": v for k, v in hess.items()})
    return out


def _s1xsd(d, length, monkeypatch):
    """S1(length) x S^d on a small basis, its kind registered for the
    test where the catalog has no row for it."""
    kind = f"product-S1xS{d}"
    monkeypatch.setitem(basis.BACKENDS, kind, replace(
        basis.BACKENDS["product-S1xS2"], dims={d + 1: d}))
    return catalog_build(kind, None, {"length": length},
                         {"degree_max": 4, "fourier_max": 2})


@pytest.mark.parametrize("kind", [
    "product-S1xS2", "product-S1xS3",
    pytest.param("product-S1xS4", id="product-S1xS4-P")])
@pytest.mark.parametrize("length", [0.5, 1.0, 2 * math.pi, 40.0])
def test_image_kernel_matches_the_per_image_sum(kind, length, monkeypatch):
    """On both pieces of the level-2 product rule, the near patch and the
    far rectangle, each handed out in slabs, the kernel's value and every
    component of its split jets agree with ``_per_image_jets`` to 1e-13
    of the component's largest value on the piece: the G_L kernels, and
    the G_P kernel of S1 x S4 (q = 1/2).  The far rectangle's slabs are
    open meshes, whose images are summed as a series, to degree 116 at
    l = 1 on S1xS3 and 247 at l = 0.5.  They read at most 1.5e-14, for
    the s gradient of the other images on the far rectangle of S1xS3 at
    l = 0.5; the near patch, summed image by image, at most 8.0e-15."""
    m = _s1xsd(int(kind[-1]), length, monkeypatch)
    kern = green_field(m, "P" if m.n == 5 else "L").kernel
    pieces = {"near": [], "far": []}
    for points, _ in Q.pole_blocks(m, Pole(), level=2):
        ds, chi = m.pole_separation(Pole(), *points)
        piece = "far" if points[0].shape[1] == 1 else "near"  # open mesh
        pieces[piece].append((_kernel_components(kern, ds, chi),
                              _per_image_jets(kern, ds, chi)))
    for slabs in pieces.values():
        assert all(set(got) == set(want) for got, want in slabs)
        for key in slabs[0][1]:
            scale = max(np.max(np.abs(want[key])) for _, want in slabs)
            for got, want in slabs:
                assert_allclose(got[key], want[key], rtol=0,
                                atol=1e-13 * scale, err_msg=key)


@pytest.mark.parametrize("kind", ["product-S1xS2", "product-S1xS3"])
def test_the_mesh_series_stops_at_one_circle(kind):
    """On an open mesh the images j != 0 are a series in exp(-|u|), which
    converges only while every |ds| stays under one circle; at or past it
    an image meets a point, and value and split jets raise
    ``ValueError`` instead of summing without end.  With no images
    (cutoff 0) there is no series: at any offset the mesh gives the
    pointwise layout's components bit for bit, the other images 0."""
    m = catalog_build(kind, None, {"length": 2 * math.pi},
                      {"degree_max": 4, "fourier_max": 2})
    kern = green_field(m, "L").kernel
    chi = np.linspace(0.1, 3.0, 5)[None, :]
    for ds in ([[0.3], [m.length]], [[-1.01 * m.length], [0.2]]):
        for read in (kern.value, kern.split_jets):
            with pytest.raises(ValueError, match=r"needs \|ds\| < l"):
                read(np.array(ds), chi)
    alone = copy.copy(kern)
    alone.cutoff = 0
    ds = np.array([[0.3], [1.5 * m.length], [-2.0], [-3.0 * m.length]])
    got = _kernel_components(alone, ds, chi)
    want = _kernel_components(alone, *np.broadcast_arrays(ds, chi))
    for key, ref in want.items():
        np.testing.assert_array_equal(got[key], ref, err_msg=key)
        if key == "ratio" or key.startswith("a_"):
            assert not np.any(ref), key


@pytest.mark.parametrize("kind", ["product-S1xS2", "product-S1xS3"])
@pytest.mark.parametrize("length", [180.0, 250.0, 1000.0])
def test_long_circle_jets_are_finite(kind, length):
    """On a long circle the images j != 0 are below rounding of the pole's
    own at the points near the pole, and fall below double range further
    on: value and split jets stay finite, the value and the pole's own
    image equal the j = 0 image alone to rounding, and the other images
    over it read below 1e-30.  (Written with sinh(u/2)^2 the far images
    overflow to inf, and inf * 0 made the jets NaN from l = 180 on.)"""
    m = catalog_build(kind, None, {"length": length},
                      {"degree_max": 4, "fourier_max": 2})
    kern = green_field(m, "L").kernel
    alone = copy.copy(kern)
    alone.cutoff = 0
    ds, chi = np.array([0.3, -0.3, 1.0]), np.array([0.5, 0.1, 2.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _kernel_components(kern, ds, chi)
    want = _kernel_components(alone, ds, chi)
    for key, ref in want.items():
        assert np.all(np.isfinite(got[key])), key
        if key == "value" or key == "p0" or key.startswith("b_"):
            assert_allclose(got[key], ref, rtol=1e-15, atol=0, err_msg=key)
        else:
            assert np.max(np.abs(got[key])) < 1e-30, key


@pytest.mark.parametrize("kind", ["product-S1xS2", "product-S1xS3"])
def test_image_kernel_refuses_circles_beyond_its_range(kind):
    """Up to l = 1400 b value and jets stay finite at |ds| = 0.49 l, the
    far end of the circle; beyond it the pole's own image overflows and
    they would turn NaN, so the expansion raises instead, for either
    operator and before it looks for a zero mode (P on S1xS3)."""
    m = catalog_build(kind, None, {"length": 1400.0},
                      {"degree_max": 4, "fourier_max": 2})
    kern = green_field(m, "L").kernel
    ds, chi = 0.49 * m.length * np.array([1.0, -1.0]), np.array([0.5, 2.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        comps = _kernel_components(kern, ds, chi)
    for key, arr in comps.items():
        assert np.all(np.isfinite(arr)), key
    m = catalog_build(kind, None, {"length": 1450.0},
                      {"degree_max": 4, "fourier_max": 2})
    for operator in ("L", "P"):
        with pytest.raises(UnsupportedBackendError,
                           match="1400 sphere radii"):
            green_field(m, operator)


@pytest.mark.parametrize("length", [0.5, 2 * math.pi, 40.0])
def test_values_at_reads_the_kernel_at_the_rule_nodes(length):
    """A circle offset within half a period of the pole comes back bit for
    bit, so at the nodes of the graded product rule around the pole G_L
    and G_P read the kernel at the nodes' own offsets.  (Reduced as
    (ds + l/2) % l - l/2, an offset of 1e-12 came back 1.7e-3 off at
    l = 40, and G_L 1.4e-4 off at the rule's nodes.)"""
    m = catalog_build("product-S1xS2", None, {"length": length},
                      {"degree_max": 4, "fourier_max": 2})
    ds = np.array([1e-12, -1e-12, 1e-3, -0.3, 0.49, -0.5]) * length
    got, _ = m.pole_separation(Pole(), ds, np.zeros(ds.size))
    assert np.array_equal(got, ds)
    for operator in ("L", "P"):
        gf = green_field(m, operator)
        for (s, chi), _ in Q.pole_blocks(m, Pole(), level=2):
            assert_allclose(gf.values_at(s, chi), gf.kernel.value(s, chi),
                            rtol=1e-15, atol=0, err_msg=operator)


def test_image_kernel_jets_take_a_few_point_vectors(s1xs2):
    """Images are added one at a time: no (points x images) arrays (the
    traced peak of the split jets reads 18 point vectors)."""
    kern = green_field(s1xs2, "L").kernel
    n = 50_000
    rng = np.random.default_rng(6)
    ds = rng.uniform(-math.pi, math.pi, n)
    chi = rng.uniform(0.0, math.pi, n)
    tracemalloc.start()
    try:
        kern.split_jets(ds, chi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 8 * n, f"peak {peak / (8 * n):.0f} point vectors"


@pytest.mark.parametrize("length", [0.5, 2 * math.pi])
def test_image_kernel_p_values_take_a_few_point_vectors(length):
    """The G_P images are added one at a time into one running sum: at
    50,000 points the traced peak is 8 point vectors at both lengths,
    where a list of all 2K + 1 images held 26 at l = 2 pi and 172 at
    l = 0.5 (K = 82).  The values equal, bit for bit, the sum of that
    list taken in the same order."""
    m = catalog_build("product-S1xS2", None, {"length": length},
                      {"degree_max": 4, "fourier_max": 2})
    kern = green_field(m, "P").kernel
    n = 50_000
    rng = np.random.default_rng(6)
    ds = rng.uniform(-0.5 * length, 0.5 * length, n)
    chi = rng.uniform(0.0, math.pi, n)
    tracemalloc.start()
    try:
        got = kern.value(ds, chi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * n, f"peak {peak / (8 * n):.0f} point vectors"
    ds, chi, got = ds[:2000], chi[:2000], got[:2000]
    sin2 = 4.0 * np.sin(0.5 * chi) ** 2
    e = np.exp(-ds / m.radius)
    far = np.exp(-np.arange(1, kern.cutoff + 1) * (m.length / m.radius))
    images = [np.minimum(e, 1.0 / e),
              *(f * x for f in far for x in (e, 1.0 / e))]
    total = sum(np.sqrt(E) / (np.sqrt((1.0 - E) ** 2 + sin2 * E) + 1.0 + E)
                for E in images)
    assert np.array_equal(got, kern.c * np.cos(0.5 * chi) ** 2 * total)


def test_product_green_symmetry(s1xs2):
    gf_n = green_field(s1xs2, "L", Pole(axis=1, s0=0.0))
    gf_s = green_field(s1xs2, "L", Pole(axis=-1, s0=1.3))
    v1 = gf_n.values_at(np.array([1.3]), np.array([math.pi]))
    v2 = gf_s.values_at(np.array([0.0]), np.array([0.0]))
    assert_allclose(v1, v2, rtol=1e-12)


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
    got = green_field(m, "P").kernel.value(ds, chi)
    want = _degree_sum_P(m, ds, chi)
    assert_allclose(got, want, rtol=0, atol=rel * np.max(np.abs(want)))


@pytest.mark.parametrize("length, radius, rel", P_CASES)
def test_paneitz_image_kernel_pole_value(length, radius, rel):
    """At the pole each image is E^(1/2) / 2, which sums to
    (b / 4 pi) coth(l / 4b)."""
    gp = green_field(_s1xs2(length, radius), "P")
    want = radius / (4.0 * math.pi * math.tanh(length / (4.0 * radius)))
    assert_allclose(gp.diagonal_value(), want, rtol=rel)


@pytest.mark.parametrize("length, radius, rel", P_CASES)
def test_paneitz_image_kernel_inverts_P_on_constants(length, radius, rel):
    """int G_P dmu is 1 / P_00, the inverse of P on the constants; the
    bound is at least 1e-9, since the level-2 rule itself is off by up to
    2.8e-10 (b = 1.3)."""
    m = _s1xs2(length, radius)
    gp = green_field(m, "P")
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
        vals = green_field(m, "P").values_at(*m.grid_points())
    assert np.all(np.isfinite(vals))


# ------------------------------------------------------------ construction

@pytest.fixture(scope="module")
def long_s1xs2():
    return catalog_build("product-S1xS2", None, {"length": 1450.0},
                         {"degree_max": 4, "fourier_max": 2})


@pytest.mark.parametrize("backend, operator, error, match", [
    ("sphere4", "P", KernelError, "zero mode"),
    ("s1xs3", "P", KernelError, "zero mode"),
    ("sphere5", "Q", ValueError, "unknown operator"),
    ("s1xs2", "Q", ValueError, "unknown operator"),
    ("long_s1xs2", "L", UnsupportedBackendError, "1400 sphere radii"),
], ids=["P-S4", "P-S1xS3", "unknown-sphere", "unknown-product",
        "long-circle"])
def test_green_field_refuses(backend, operator, error, match, request):
    """P has the constants in its kernel in dimension four, on S^4 and
    on S1 x S3; an operator other than L and P is unknown; past l = 1400 b
    the product image sums overflow."""
    m = request.getfixturevalue(backend)
    with pytest.raises(error, match=match):
        green_field(m, operator)


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize("length", [2 * math.pi, 4 * math.pi])
def test_green_field_builds_g_p_on_products_past_dimension_three(
        d, length, monkeypatch):
    """On S1 x S^d, d >= 4, G_P is the image sum of the cylinder kernel
    c_P b^(-2q) D^-q, q = (n-4)/2, as G_L is with q = (n-2)/2: it
    inverts P on the constants to 1e-9 (measured 2.3e-11 to 7.8e-11),
    the comparison margin is strictly positive (these products are not
    conformal to the round sphere), and the images reach exp(-20) of
    the pole's own at the G_P decay rate."""
    m = _s1xsd(d, length, monkeypatch)
    gp = green_field(m, "P")
    p00 = float(build_symbol(m, "P").flat[0])
    assert abs(green_pair(gp, m.constant(1.0)) * p00 - 1.0) < 1e-9
    [res] = compare_green(m, [Pole()])
    assert res.margin_min > 0.0
    assert res.cutoff == gp.cutoff == _image_count(m, 0.5 * (m.n - 4))


def test_green_field_takes_the_smallest_eigenvalue_once(monkeypatch):
    """The zero-mode test reads the symbol once per (backend, operator):
    ten kernels on S^5 look it up twice, not ten times."""
    m = catalog_build("sphere", 5, {}, {"degree_max": 11})
    calls = []
    symbol = build_symbol

    def counted(m, operator):
        calls.append(operator)
        return symbol(m, operator)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "conformal_lab":
            for attr, value in list(vars(module).items()):
                if value is symbol:
                    monkeypatch.setattr(module, attr, counted)
    for _ in range(5):
        for operator in ("P", "L"):
            green_field(m, operator)
    assert len(calls) <= 2, calls


# ---------------------------------------------------------------- transport

def test_transport_identity_factor(sphere5):
    gf = green_field(sphere5, "L")
    gt = green_field(sphere5, "L",
                     factor=FieldFactor(sphere5, sphere5.constant(0.0)))
    th = np.linspace(0.2, 3.0, 7)
    assert_allclose(gt.values_at(th), gf.values_at(th), rtol=1e-12)


def test_transport_constant_factor_scales(sphere5):
    c, n = 1.7, sphere5.n

    def constant(rho, exponent):
        # the factor whose weight rho^exponent multiplies the metric
        w = 0.5 * exponent * math.log(rho)
        return FieldFactor(sphere5, sphere5.constant(w))

    gf = green_field(sphere5, "L")
    gt = green_field(sphere5, "L", factor=constant(c, 4.0 / (n - 2)))
    th = np.linspace(0.2, 3.0, 7)
    assert_allclose(gt.values_at(th), gf.values_at(th) / c ** 2, rtol=1e-12)
    gp = green_field(sphere5, "P")
    gpt = green_field(sphere5, "P", factor=constant(c, 4.0 / (n - 4)))
    assert_allclose(gpt.values_at(th), gp.values_at(th) / c ** 2, rtol=1e-12)


def test_transport_preserves_sign(sphere5, rng):
    w = random_bandlimited(sphere5.basis, rng, degree=3, amplitude=0.3)
    factor = FieldFactor(sphere5, w)
    gp = green_field(sphere5, "P")
    scan0 = sign_scan([gp])
    scan1 = sign_scan([green_field(sphere5, "P", factor=factor)])
    assert scan0["verdict"] == scan1["verdict"] == "POSITIVE"


# ---------------------------------------------------------------- sign scan

def test_sign_scan_sphere5_positive(sphere5):
    gfs = [green_field(sphere5, "P", p)
           for p in (Pole(1), Pole(-1))]
    scan = sign_scan(gfs)
    assert scan["verdict"] == "POSITIVE"
    assert all(rec["theta_value"] > 0 for rec in scan["poles"])


def test_sign_scan_sphere3_negative_with_zero_diagonal(sphere3):
    gf = green_field(sphere3, "P")
    scan = sign_scan([gf])
    assert scan["verdict"] == "NEGATIVE"
    rec = scan["poles"][0]
    assert rec["theta_value"] < 0
    assert rec["diagonal_value"] == 0.0


def test_sign_scan_product_is_reported_not_asserted(s1xs2):
    gf = green_field(s1xs2, "P")
    scan = sign_scan([gf])
    assert scan["verdict"] in ("POSITIVE", "NEGATIVE", "MIXED")


def test_diagonal_value_is_the_kernel_at_the_pole(sphere3, s1xs2):
    """The 3d G_P is continuous at its pole: on S1(2 pi) x S2 it is
    coth(pi / 2) / 4 pi = 0.0867658 there, the S^3 closed form vanishes
    there."""
    gp = green_field(s1xs2, "P", Pole(1, 1.0))
    diag = gp.diagonal_value()
    assert abs(diag - 0.0867658) < 1e-7
    # the limit along the circle, where G_P = diag + O(r)
    near = gp.values_at(np.array([1.0 + 1e-7]), np.zeros(1))[0]
    assert abs(near - diag) < 1e-6
    assert sign_scan([gp])["poles"][0]["diagonal_value"] == diag
    assert green_field(sphere3, "P").diagonal_value() == 0.0
    assert green_field(sphere3, "L").diagonal_value() is None


# --------------------------------------------------------------- comparison

def test_compare_green_equality_on_spheres(sphere3, sphere5):
    for m in (sphere3, sphere5):
        results = compare_green(m, [Pole(1), Pole(-1)])
        for res in results:
            assert isinstance(res, ComparisonResult)
            assert res.equality
            assert abs(res.margin_min) <= res.tolerance
            assert abs(res.margin_max) <= 10 * res.tolerance


def test_compare_green_reads_the_product_diagonal(s1xs2, monkeypatch):
    """In dimension three the margins include the diagonal, where 1/G_L
    vanishes, from ``GreenField.diagonal_value`` on products as on
    spheres: a diagonal value of 1 puts S1xS2's smallest margin at
    -256 pi^2, below every margin off the pole."""
    [res] = compare_green(s1xs2, [Pole()])
    monkeypatch.setattr(GreenField, "diagonal_value", lambda self: 1.0)
    [broken] = compare_green(s1xs2, [Pole()])
    assert broken.margin_min == -256.0 * math.pi ** 2 < res.margin_min
    assert broken.margin_max == res.margin_max


@pytest.mark.parametrize("backend", ["sphere5", "sphere3"])
def test_sign_scan_refuses_a_stack_of_trials(backend, request):
    """A scan record holds one extremum per pole, so a factor that stacks
    trials raises, naming the count (a boolean mask of the grid met the
    stacked values and raised ``IndexError``)."""
    m = request.getfixturevalue(backend)
    gf = green_field(m, "L", Pole(1), MoebiusFactor(m, [1.2, 1.3]))
    with pytest.raises(ValueError, match="the sign scan takes one factor, "
                                         "got a stack of 2 trials"):
        sign_scan([gf])


def test_diagonal_value_refuses_a_stack_of_trials(sphere3):
    """The diagonal value is one number ("only 0-dimensional arrays"
    ``TypeError`` for a stack)."""
    gf = green_field(sphere3, "P", Pole(1), MoebiusFactor(sphere3,
                                                          [1.2, 1.3]))
    with pytest.raises(ValueError, match="the diagonal value takes one "
                                         "factor, got a stack of 2 trials"):
        gf.diagonal_value()


@pytest.mark.parametrize("backend", ["sphere5", "s1xs2"])
def test_green_pair_refuses_a_transported_kernel(backend, request):
    """The pairing reads a kernel even about its pole at the half rule's
    own points, which a transported kernel is not in general: one factor
    or a stack of trials raises, naming the kernel."""
    m = request.getfixturevalue(backend)
    w = np.zeros(m.basis.mode_shape)
    w[0, 1] = 0.1
    for factor in (FieldFactor(m, F.synthesize(m.basis, w)),
                   FieldFactor(m, F.synthesize(m.basis, [w, 2.0 * w]))):
        gf = green_field(m, "L", Pole(1), factor)
        with pytest.raises(ValueError, match=r"green_pair needs an "
                           r"untransported kernel, got G_L \(.*\+transport"):
            green_pair(gf, m.constant(1.0))


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


def test_extract_mass_refuses_a_stack_of_trials(sphere5):
    """The result holds one mass, so a factor that stacks trials raises,
    naming the count."""
    with pytest.raises(ValueError, match="the mass takes one factor, got "
                                         "a stack of 2 trials"):
        extract_mass(sphere5, Pole(1), MoebiusFactor(sphere5, [1.2, 1.3]))


@pytest.mark.parametrize("backend", ["sphere4", "s1xs3"])
def test_mass_refuses_dimension_four(backend, request):
    """The mass is the constant term of c_n G_P - G_L^{(n-4)/(n-2)},
    which dimension four does not have, on either backend."""
    with pytest.raises(UnsupportedBackendError,
                       match="needs dimension 3, 5, 6 or 7, got .* n=4"):
        extract_mass(request.getfixturevalue(backend), Pole())


_GRADED_EDGES = Q._graded_edges


def _graded_to(depth, monkeypatch):
    """Grade the pole rule toward the pole ``depth`` times at any level,
    with no mass integral kept from another depth."""
    monkeypatch.setattr(Q, "_graded_edges",
                        lambda outer, _: _GRADED_EDGES(outer, depth))
    green._mass_integral.cache_clear()


def _ricci_defect(m, level=2):
    """The Ricci defect 1/2 int |Ric_blowup|^2 dmu over the pole rule of
    ``m`` at the north pole."""
    return sum(0.5 * float(np.sum(w * ricci_sq)) for _, w, _, ricci_sq
               in blowup_slabs(green_field(m, "L"), level))


def _normalized_mass(m):
    """A(l) = 2 sum_k (2 b sinh(k l / 2b))^(4-n), the normalized mass of
    S1(l) x S^d(b), since norm c_n c_P = 1."""
    b, n, length = m.radius, m.n, m.length
    return 2.0 * sum((2.0 * b * math.sinh(k * length / (2.0 * b)))
                     ** (4.0 - n) for k in range(1, 41))


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize("length", [2 * math.pi, 4 * math.pi])
def test_product_mass_integral_matches_the_closed_form(d, length,
                                                       monkeypatch):
    """On S1(l) x S^d(b) the level-2 integral route of ``extract_mass``
    reaches the normalized mass A(l) within 1e-11 at graded depths 12, 30
    and 60, around the rule's own 14 (measured at most 1.1e-12, n = 7 at
    l = 2 pi).  Formed from the jets of log G_L, whose O(r^-2) terms
    cancel near the pole, it missed by 3.4e-6 (n = 6) and 9.6e6 (n = 7)
    at depth 30."""
    m = _s1xsd(d, length, monkeypatch)
    want = _normalized_mass(m)
    for depth in (12, 30, 60):
        _graded_to(depth, monkeypatch)
        got = extract_mass(m)["A_integral"]
        assert abs(got / want - 1.0) < 1e-11, (depth, got, want)


# ten times the larger relative error of the expansion route against A(l),
# untransported and transported, as measured: (5, 2pi) 1.3e-9,
# (5, 4pi) 2.5e-9, (6, 2pi) 3.2e-9, (6, 4pi) 8.1e-7, (7, 2pi) 3.2e-6
EXPANSION_BOUNDS = {(5, 2 * math.pi): 1.4e-8, (5, 4 * math.pi): 2.5e-8,
                    (6, 2 * math.pi): 3.2e-8, (6, 4 * math.pi): 8.2e-6,
                    (7, 2 * math.pi): 3.2e-5, (7, 4 * math.pi): 6e-2}


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize("length", [2 * math.pi, 4 * math.pi])
def test_product_mass_routes_meet_the_closed_form(d, length, monkeypatch):
    """Both routes of ``extract_mass`` on S1(l) x S^d reach A(l) at the
    north pole and, transported by a factor odd in s at a pole off s = 0,
    A(l) / rho_P(pole)^2 with rho_P = e^{(n-4) w / 2}.  The transported
    integral is the base integral over rho_P(pole)^2 by construction,
    since the factor's weights cancel at each node; the expansion route,
    which evaluates both transported kernels along its ray, carries the
    check of the transport.

    The integral route reads within 1e-11 (measured at most 1.1e-12 both
    ways), the expansion route within ``EXPANSION_BOUNDS``.  For n = 7 at
    4 pi that is only its measured 5.4e-2: the route's absolute error
    stays near 7e-10, as at 2 pi, but A(4 pi) = 1.3e-8 there, so the
    extrapolation cannot resolve it; the integral route can."""
    m = _s1xsd(d, length, monkeypatch)
    want = _normalized_mass(m)
    c = F.random_modes(m.basis, np.random.default_rng(3), 3, 2)
    odd = np.zeros_like(c)
    odd[2::2] = c[2::2]  # the sine rows
    factor = FieldFactor(m, F.sup_normalized(m.basis, odd, 0.3))
    pole = Pole(1, 1.0)
    rho = float(green_field(m, "P", pole, factor).rho_pole)
    assert abs(rho - 1.0) > 0.05
    bound = EXPANSION_BOUNDS[m.n, length]
    for res, a in ((extract_mass(m), want),
                   (extract_mass(m, pole, factor), want / rho ** 2)):
        assert abs(res["A_integral"] / a - 1.0) < 1e-11, (res, a)
        assert abs(res["A_expansion"] / a - 1.0) < bound, (res, a)


def test_mass_sums_each_kernel_once_per_block(monkeypatch):
    """A transported ``extract_mass`` on S1(2pi) x S4 at level 2 sums the
    image kernel twice per block of the rule, once for the split jets of
    G_L and once for the values of G_P, and reads the factor only along
    its 8-point ray and at the pole: the factor's weights cancel at the
    rule's nodes.  Summing G_L's values a second time and transporting
    both kernels there took two value sums and three factor reads per
    block.  The report states the rule it summed over."""
    m = _s1xsd(4, 2 * math.pi, monkeypatch)
    c = F.random_modes(m.basis, np.random.default_rng(3), 3, 2)
    odd = np.zeros_like(c)
    odd[2::2] = c[2::2]  # the sine rows
    factor = FieldFactor(m, F.sup_normalized(m.basis, odd, 0.3))
    pole = Pole(1, 1.0)
    blocks = [int(np.broadcast(*points).size)
              for points, _ in Q.pole_blocks(m, pole, level=2)]
    sums, reads = {True: [], False: []}, []
    orig_sums, orig_w_at = _ProductImageKernel._sums, FieldFactor.w_at

    def counted_sums(self, ds, sin4, jets):
        sums[jets].append(int(np.broadcast(ds, sin4).size))
        return orig_sums(self, ds, sin4, jets)

    def counted_w_at(self, *points):
        reads.append(int(np.broadcast(*points).size))
        return orig_w_at(self, *points)

    monkeypatch.setattr(_ProductImageKernel, "_sums", counted_sums)
    monkeypatch.setattr(FieldFactor, "w_at", counted_w_at)
    res = extract_mass(m, pole, factor, level=2)
    assert len(blocks) > 2
    assert sums[True] == blocks
    assert sorted(sums[False]) == sorted(blocks + [8, 8])  # G_P; the ray
    assert sorted(reads) == [1, 1, 8, 8]
    assert sum(res["resolution"]["nodes"]) == sum(blocks)
    assert res["resolution"]["images"] == green_field(m, "L").cutoff
    assert res["resolution"]["mirror"] == "s"


def test_transported_mass_keeps_nothing_of_the_factor(monkeypatch):
    """A transported ``extract_mass`` on S1(2pi) x S4 at level 2 leaves
    under 0.1 MB traced behind while its factor lives (0.01 MB
    measured), with both masses as an earlier call gave them: the factor
    is read at points by its values and keeps nothing per point set.
    When it kept its jets per point set it left 1.54 MB (4.72 MB at
    level 3).  The earlier call, by another factor of the same w, builds
    the ledger and the tables."""
    m = _s1xsd(4, 2 * math.pi, monkeypatch)
    w = random_bandlimited(m.basis, np.random.default_rng(3), 4, 2,
                           amplitude=0.3)
    pole = Pole(1, 0.4)
    want = extract_mass(m, pole, FieldFactor(m, w), level=2)
    factor = FieldFactor(m, w)
    green._mass_integral.cache_clear()  # the traced call takes its pass
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = extract_mass(m, pole, factor, level=2)
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert got == want
    assert left - start < 1e5, f"left {(left - start) / 1e6:.2f} MB"


@pytest.mark.parametrize("length, bound", [
    (math.pi, 2e-5), (2 * math.pi, 1e-6), (4 * math.pi, 6e-9)])
def test_s1xs2_mass_routes_agree(length, bound):
    """S1(l) x S2 has no closed form for its mass; its two routes agree
    within ten times their measured gap (1.7e-6, 7.7e-8 and 5.3e-10 at
    l = pi, 2 pi and 4 pi, the same at levels 2 and 3), and the mass is
    negative: -2.1807 at 2 pi."""
    m = catalog_build("product-S1xS2", None, {"length": length},
                      {"degree_max": 4, "fourier_max": 2})
    res = extract_mass(m)
    assert res["A_integral"] < 0.0
    assert abs(res["A_expansion"] / res["A_integral"] - 1.0) < bound, res


def test_product_ricci_defects_hold_at_every_depth(s1xs2, s1xs3,
                                                   monkeypatch):
    """S1xS2's Ricci defect (26.1001606715571) reads the same at graded
    depths 30 and 60 to 1e-14 (it moved by 2.2e-9 when formed from the
    jets of log G_L), and S1xS3's is 16 pi^2, since int Q = 0 there, to
    1e-12 at both depths (measured 2.9e-14)."""
    defects = {}
    for depth in (30, 60):
        _graded_to(depth, monkeypatch)
        for m in (s1xs2, s1xs3):
            defects[m.n, depth] = _ricci_defect(m)
    assert abs(defects[3, 60] / defects[3, 30] - 1.0) < 1e-14, defects
    for depth in (30, 60):
        assert abs(defects[4, depth] / (16.0 * math.pi ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_blowup_of_the_sphere_is_flat_at_every_rule_node(n):
    """On a round sphere G_L is its pole's own image alone, whose blow-up
    is flat: |Ric_blowup|^2 is 0, not rounding, at every node of the pole
    rule around either pole, and the density's G_L is the kernel."""
    m = catalog_build("sphere", n, {}, {"degree_max": 4})
    for pole in (Pole(1), Pole(-1)):
        gL = green_field(m, "L", pole)
        [(points, _)] = Q.pole_blocks(m, pole, level=2)
        g, nsq = blowup_density(gL, *points)
        assert np.all(nsq == 0.0)
        assert np.array_equal(g, gL.values_at(*points))


def test_blowup_density_refuses_a_transported_kernel(s1xs2, rng):
    """The split is the untransported kernel's: a transported G_L would
    come back as the untransported G_L and density, bit for bit."""
    w = random_bandlimited(s1xs2.basis, rng, degree=2, amplitude=0.1)
    gL = green_field(s1xs2, "L", Pole(), FieldFactor(s1xs2, w))
    with pytest.raises(ValueError, match=r"untransported G_L, got G_L "
                                         r"\(eigen-expansion\+transport\)"):
        blowup_density(gL, *s1xs2.grid_points())


def test_blowup_density_refuses_the_paneitz_kernel(sphere5):
    """A sphere's G_P has the split of a single image too, which would
    read |Ric_blowup|^2 = 0 for a blow-up of the wrong power."""
    gP = green_field(sphere5, "P", Pole())
    with pytest.raises(ValueError,
                       match=r"untransported G_L, got G_P \(closed-form\)"):
        blowup_density(gP, *sphere5.grid_points())


def test_green_field_helper_builds_and_transports(sphere5, rng):
    w = random_bandlimited(sphere5.basis, rng, degree=3, amplitude=0.1)
    factor = FieldFactor(sphere5, w)
    gf = green_field(sphere5, "L", Pole(1), factor)
    assert "transport" in gf.representation
