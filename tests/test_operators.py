import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conformal_lab import fields as F
from conformal_lab.geometry import FieldFactor, catalog_build
from conformal_lab.green import green_pair, green_sphere_closed_form
from conformal_lab.operators import (apply_L, apply_P, apply_P_pointwise,
                                     build_symbol, conformal_quadratic_form_E,
                                     quadratic_form_E)


def _single_mode(basis, *index):
    if basis.is_product:
        c = np.zeros((basis.circle_mode_count, basis.sphere_mode_count))
    else:
        c = np.zeros(basis.sphere_mode_count)
    c[index] = 1.0
    return F.synthesize(basis, c)


# ------------------------------------------------------------ second order

def test_L_on_constants_is_scalar_curvature(sphere5, s1xs2):
    for m in (sphere5, s1xs2):
        out = apply_L(m, m.constant(1.0))
        assert_allclose(out.grid_values, m.scalar_curvature, rtol=1e-12)


def test_L_eigenvalue_degree_one_sphere3(sphere3):
    # -8 * (-3) + 6 = 30 on the unit 3-sphere
    phi = _single_mode(sphere3.basis, 1)
    out = apply_L(sphere3, phi)
    assert_allclose(out.grid_values, 30.0 * phi.grid_values, atol=1e-10)


def test_L_symbol_on_product(s1xs2):
    table = build_symbol(s1xs2, "L")
    k = np.array([(j + 1) // 2 for j in range(s1xs2.basis.circle_mode_count)])
    l = np.arange(s1xs2.basis.sphere_mode_count)
    want = 8.0 * (k[:, None] ** 2 + (l * (l + 1))[None, :]) + 2.0
    assert_allclose(table, want, rtol=1e-13)
    assert table[0, 0] == 2.0


# ------------------------------------------------------------ fourth order

@pytest.mark.parametrize("name", ["sphere5", "s1xs2"])
def test_symbol_table_is_read_only(name, request):
    m = request.getfixturevalue(name)
    for operator in ("L", "P"):
        table = build_symbol(m, operator)
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0


def test_symbol_table_is_built_once_per_backend(s1xs2):
    """An equal backend, built anew, shares the table too."""
    again = catalog_build("product-S1xS2", None, {"length": 2 * np.pi},
                          {"degree_max": 16, "fourier_max": 8})
    assert build_symbol(again, "P") is build_symbol(s1xs2, "P")
    assert build_symbol(s1xs2, "L") is not build_symbol(s1xs2, "P")


def test_P_on_constants(sphere5, sphere3, s1xs3):
    out5 = apply_P(sphere5, sphere5.constant(1.0))
    assert_allclose(out5.grid_values, 105.0 / 16.0, rtol=1e-12)
    out3 = apply_P(sphere3, sphere3.constant(1.0))
    assert_allclose(out3.grid_values, -15.0 / 16.0, rtol=1e-12)
    out4 = apply_P(s1xs3, s1xs3.constant(1.0))
    assert_allclose(out4.grid_values, 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_P_symbol_factorizes_on_spheres(n):
    # on the round sphere the table must be
    # (lam + n(n-2)/4)(lam + (n+2)(n-4)/4) with lam = l (l + n - 1)
    m = catalog_build("sphere", n, {}, {"degree_max": 12})
    lam = np.arange(13.0) * (np.arange(13.0) + n - 1)
    want = (lam + n * (n - 2) / 4.0) * (lam + (n + 2) * (n - 4) / 4.0)
    assert_allclose(build_symbol(m, "P"), want, rtol=1e-12)


def test_P_constant_mode_value_formula():
    for n in (3, 5, 6, 7):
        m = catalog_build("sphere", n, {}, {"degree_max": 4})
        got = build_symbol(m, "P")[0]
        assert_allclose(got, n * (n ** 2 - 4) * (n - 4) / 16.0, rtol=1e-12)


def test_symbol_vs_pointwise_on_random_modes(s1xs2, s1xs3, sphere5, rng):
    """The factor-split table agrees with the grid-side contraction route."""
    for m in (s1xs2, s1xs3, sphere5):
        b = m.basis
        table = build_symbol(m, "P")
        for _ in range(20):
            if b.is_product:
                idx = (rng.integers(0, b.circle_mode_count),
                       rng.integers(0, b.sphere_mode_count))
            else:
                idx = (rng.integers(0, b.sphere_mode_count),)
            phi = _single_mode(b, *idx)
            direct = apply_P_pointwise(m, phi).grid_values
            tabled = table[idx] * phi.grid_values
            scale = max(1.0, np.max(np.abs(tabled)))
            assert np.max(np.abs(direct - tabled)) < 1e-8 * scale


# ---------------------------------------------------------- quadratic form

def test_E_constants_on_sphere5(sphere5):
    one = sphere5.constant(1.0)
    want = (105.0 / 16.0) * math.pi ** 3
    assert_allclose(quadratic_form_E(sphere5, one, one), want, rtol=1e-10)


def test_E_matches_operator_pairing(sphere5, s1xs2, s1xs3, rng):
    for m in (sphere5, s1xs2, s1xs3):
        for _ in range(10):
            u = F.random_bandlimited(m.basis, rng, degree=6,
                                     fourier=4 if m.is_product else 0)
            v = F.random_bandlimited(m.basis, rng, degree=6,
                                     fourier=4 if m.is_product else 0)
            e = quadratic_form_E(m, u, v)
            pairing = F.integrate(apply_P(m, u) * v)
            assert abs(e - pairing) < 1e-8 * max(1.0, abs(e))


def test_E_symmetry(sphere3, rng):
    u = F.random_bandlimited(sphere3.basis, rng, degree=7)
    v = F.random_bandlimited(sphere3.basis, rng, degree=7)
    assert quadratic_form_E(sphere3, u, v) == \
        pytest.approx(quadratic_form_E(sphere3, v, u), rel=1e-12)


# --------------------------------------------------------------- covariance

def test_bilinear_covariance_sphere(sphere5, rng):
    w = F.random_bandlimited(sphere5.basis, rng, degree=3, amplitude=0.1)
    factor = FieldFactor(sphere5, w)
    phi = F.random_bandlimited(sphere5.basis, rng, degree=6)
    psi = F.random_bandlimited(sphere5.basis, rng, degree=6)
    lhs = conformal_quadratic_form_E(sphere5, factor, phi, psi)
    rho = factor.rho("paneitz")
    rhs = F.integrate(apply_P(sphere5, F.analyze(rho * phi)) * (rho * psi))
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))


def test_dimension4_form_invariance(sphere4, s1xs3, rng):
    for m in (sphere4, s1xs3):
        w = F.random_bandlimited(m.basis, rng, degree=3,
                                 fourier=2 if m.is_product else 0,
                                 amplitude=0.1)
        factor = FieldFactor(m, w)
        phi = F.random_bandlimited(m.basis, rng, degree=5,
                                   fourier=3 if m.is_product else 0)
        psi = F.random_bandlimited(m.basis, rng, degree=5,
                                   fourier=3 if m.is_product else 0)
        lhs = conformal_quadratic_form_E(m, factor, phi, psi)
        rhs = quadratic_form_E(m, phi, psi)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_a_grid_only_field_is_never_projected(sphere5, rng):
    """Every route that needs coefficients refuses a grid-only field and
    accepts the same field once analyzed."""
    f = F.random_bandlimited(sphere5.basis, rng, degree=3, amplitude=0.1)
    grid_only = F.field_from_grid(sphere5.basis, f.grid_values)
    factor = FieldFactor(sphere5, f)
    gf = green_sphere_closed_form(sphere5, "L")
    routes = [
        lambda g: apply_L(sphere5, g),
        lambda g: apply_P(sphere5, g),
        lambda g: apply_P_pointwise(sphere5, g),
        lambda g: quadratic_form_E(sphere5, g, g),
        lambda g: conformal_quadratic_form_E(sphere5, factor, g, g),
        lambda g: green_pair(gf, g),
        lambda g: FieldFactor(sphere5, g),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="call analyze first"):
            route(grid_only)
        route(F.analyze(grid_only))


def test_p1_and_q_vanish_together_on_s1xs3(s1xs3):
    assert_allclose(apply_P(s1xs3, s1xs3.constant(1.0)).grid_values, 0.0,
                    atol=1e-12)
    assert s1xs3.q_value == 0.0
