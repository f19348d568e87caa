import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_jacobi, poch

from conformal_lab import fields as F
from conformal_lab.basis import (ModeBasis, ball_volume, sphere_area,
                                 zonal_polynomials)
from conformal_lab.errors import AliasingError

from random_fields import random_bandlimited


def _random_mode_field(basis, rng, degree=None, fourier=None):
    return random_bandlimited(basis, rng,
                              degree=degree or basis.degree_max // 2,
                              fourier=fourier or basis.fourier_max // 2)


# ----------------------------------------------------------- constructions

def test_constant_field_grid_values(sphere4):
    one = F.constant_field(sphere4.basis, 2.5)
    assert_allclose(one.grid_values, 2.5, rtol=1e-13)


def test_single_degree_one_mode_matches_legendre(s1xs2):
    # the degree-1 zonal harmonic on the 2-sphere factor is
    # sqrt(3 / vol) * cos(chi), constant along the circle
    b = s1xs2.basis
    c = np.zeros((b.circle_mode_count, b.sphere_mode_count))
    c[0, 1] = 1.0
    f = F.synthesize(b, c)
    chi = b.polar_angles()
    want = math.sqrt(3.0 / b.volume) * np.cos(chi)
    assert_allclose(f.grid_values, np.broadcast_to(want, f.grid_values.shape),
                    atol=1e-12)


# -------------------------------------------------------------- transforms

@pytest.mark.parametrize("fixture", ["sphere4", "sphere5", "s1xs2", "s1xs3"])
def test_round_trip(fixture, request, rng):
    m = request.getfixturevalue(fixture)
    f = _random_mode_field(m.basis, rng)
    back = F.analyze(f)
    assert_allclose(back.coefficients, f.coefficients, atol=1e-10)


def test_analyze_zero_grid(sphere5):
    f = F.field_from_grid(sphere5.basis, np.zeros(sphere5.basis.grid_shape))
    assert_allclose(F.analyze(f).coefficients, 0.0, atol=0.0)


def test_analyze_single_basis_function_orthonormality(s1xs3):
    b = s1xs3.basis
    c = np.zeros((b.circle_mode_count, b.sphere_mode_count))
    c[3, 2] = 1.0
    f = F.synthesize(b, c)
    got = F.analyze(F.field_from_grid(b, f.grid_values)).coefficients.copy()
    assert abs(got[3, 2] - 1.0) < 1e-10
    got[3, 2] = 0.0
    assert np.max(np.abs(got)) < 1e-10


def test_aliasing_error_on_products_of_top_modes():
    b = ModeBasis.for_sphere(4, 12, nodes=13)
    c = np.zeros((1, 13))
    c[0, 12] = 1.0
    f = F.synthesize(b, c)
    with pytest.raises(AliasingError):
        F.analyze(f * f)


# ------------------------------------------------------------- integration

def test_volume_sphere4(sphere4):
    one = F.constant_field(sphere4.basis, 1.0)
    assert_allclose(F.integrate(one), 8.0 * math.pi ** 2 / 3.0, rtol=1e-10)


def test_volume_product(s1xs2):
    one = F.constant_field(s1xs2.basis, 1.0)
    assert_allclose(F.integrate(one), 2.0 * math.pi * 4.0 * math.pi,
                    rtol=1e-10)


def test_nonconstant_mode_integrates_to_zero(sphere5):
    b = sphere5.basis
    c = np.zeros(b.mode_shape)
    c[0, 3] = 1.0
    f = F.synthesize(b, c)
    assert abs(F.integrate(f)) < 1e-12


def test_parseval(sphere5, s1xs2, rng):
    for m in (sphere5, s1xs2):
        f = _random_mode_field(m.basis, rng)
        lhs = F.integrate(f * f)
        rhs = float(np.sum(f.coefficients ** 2))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------- differentiation

def test_constant_has_zero_derivatives(sphere5):
    one = F.constant_field(sphere5.basis, 3.0)
    assert max(np.max(g ** 2) for g in F.gradient_components(one)) < 1e-24
    _, _, h = F.frame_jets(one)
    assert max(np.max(np.abs(v)) for v in h.values()) < 1e-12


def test_sphere_factor_laplacian_eigenvalue(s1xs2):
    b = s1xs2.basis
    c = np.zeros((b.circle_mode_count, b.sphere_mode_count))
    c[0, 3] = 1.0
    f = F.synthesize(b, c)
    lap = F.laplacian(f)
    assert_allclose(lap.grid_values, -12.0 * f.grid_values, rtol=1e-10)


def test_circle_laplacian_eigenvalue():
    ell = 3.0
    b = ModeBasis.for_product("product-S1xS2", 8, 5, length=ell)
    c = np.zeros((b.circle_mode_count, b.sphere_mode_count))
    c[2 * 2 - 1, 0] = 1.0  # cos(2 * 2 pi s / ell)
    f = F.synthesize(b, c)
    lap = F.laplacian(f)
    want = -(2.0 * math.pi * 2.0 / ell) ** 2
    assert_allclose(lap.grid_values, want * f.grid_values, rtol=1e-10)


def test_integration_by_parts(sphere5, s1xs3, rng):
    for m in (sphere5, s1xs3):
        f = _random_mode_field(m.basis, rng)
        g = _random_mode_field(m.basis, rng)
        lhs = F.integrate(F.laplacian(f) * g)
        rhs = F.integrate(f * F.laplacian(g))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_hessian_trace_is_laplacian(sphere4, s1xs3, rng):
    for m in (sphere4, s1xs3):
        f = _random_mode_field(m.basis, rng)
        assert_allclose(F.frame_trace(m.basis, F.frame_jets(f)[2]),
                        F.laplacian(f).grid_values, atol=1e-10)


def test_spectral_derivative_finite_difference_convergence(sphere5, rng):
    """Centered differences of the values at the polar nodes +- h
    approach the spectral derivative on the grid at O(h^2)."""
    f = _random_mode_field(sphere5.basis, rng, degree=8)
    theta = sphere5.grid_points()[0]
    _, grad, _ = F.frame_jets(f)
    spectral = grad[0] * sphere5.radius
    errs = []
    for h in (0.04, 0.02, 0.01):
        fd = (F.evaluate(f, theta + h) - F.evaluate(f, theta - h)) / (2 * h)
        errs.append(np.max(np.abs(fd - spectral)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def _jacobi_oracle(d, degree_max, t):
    """Orthonormal zonal polynomials and t-derivatives from scipy."""
    a = (d - 2) / 2.0
    out = [np.zeros((t.size, degree_max + 1)) for _ in range(3)]
    for l in range(degree_max + 1):
        # 1 / sqrt(int (1 - t^2)^a P_l^(a,a)(t)^2 dt), with gamma ratios
        # taken by poch so the normalization stays exact at high degree
        s = math.sqrt((2 * l + 2 * a + 1) * poch(l + a + 1, a)
                      / (2.0 ** (2 * a + 1) * poch(l + 1, a)))
        out[0][:, l] = s * eval_jacobi(l, a, a, t)
        if l >= 1:
            out[1][:, l] = (s * 0.5 * (l + 2 * a + 1)
                            * eval_jacobi(l - 1, a + 1, a + 1, t))
        if l >= 2:
            out[2][:, l] = (s * 0.25 * (l + 2 * a + 1) * (l + 2 * a + 2)
                            * eval_jacobi(l - 2, a + 2, a + 2, t))
    return out


@pytest.mark.parametrize("degree_max", [24, 240])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_zonal_recurrence_matches_jacobi(d, degree_max):
    t = np.concatenate([[-1.0, 1.0], np.cos(np.linspace(0.0, math.pi, 61)),
                        np.linspace(-0.99, 0.99, 37)])
    got = zonal_polynomials(d, degree_max, t)
    assert len(got) == 3
    # contiguous per degree: the matrix products of the callers round
    # by this layout
    assert all(tab.flags.f_contiguous for tab in got)
    for tab, want in zip(got, _jacobi_oracle(d, degree_max, t)):
        # error per degree against that degree's largest value; scipy's
        # own error at t = -1 reaches 4e-13 for half-integer a at degree
        # 240 (checked against 40-digit arithmetic)
        scale = np.maximum(np.max(np.abs(want), axis=0), 1e-300)
        assert np.max(np.max(np.abs(tab - want), axis=0) / scale) < 1e-12
    # a lower order tabulates the same leading tables, bit for bit
    for order in (0, 1):
        lower = zonal_polynomials(d, degree_max, t, order=order)
        assert len(lower) == order + 1
        for tab, full in zip(lower, got):
            assert np.array_equal(tab, full)


def test_gradient_components_are_the_frame_jets_gradient(sphere5, s1xs2,
                                                        rng):
    """The gradient mixed alone equals ``frame_jets``' gradient bit for
    bit, for a sphere field and a stack of three product fields."""
    stack = F.sup_normalized(s1xs2.basis, [F.random_modes(
        s1xs2.basis, rng, degree=6, fourier=4) for _ in range(3)])
    for f in (_random_mode_field(sphere5.basis, rng), stack):
        got = F.gradient_components(f)
        want = F.frame_jets(f)[1]
        assert len(got) == len(want) == (2 if f is stack else 1)
        for g, w in zip(got, want):
            assert g.shape == f.grid_values.shape
            np.testing.assert_array_equal(g, w)


def test_evaluate_sequence_stacks_columns(sphere5, s1xs2, rng):
    f, g = (_random_mode_field(sphere5.basis, rng) for _ in range(2))
    theta = np.linspace(0.0, math.pi, 17)
    want = np.stack([F.evaluate(f, theta), F.evaluate(g, theta)], -1)
    got = F.evaluate([f, g], theta)
    assert got.shape == (17, 2)
    assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    f, g = (_random_mode_field(s1xs2.basis, rng) for _ in range(2))
    s = np.linspace(0.0, s1xs2.length, 7)[:, None]
    chi = np.linspace(0.0, math.pi, 5)[None, :]
    want = np.stack([F.evaluate(f, s, chi), F.evaluate(g, s, chi)], -1)
    got = F.evaluate([f, g], s, chi)
    assert got.shape == (7, 5, 2)
    assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    with pytest.raises(ValueError, match="one basis"):
        F.evaluate([f, _random_mode_field(sphere5.basis, rng)], s, chi)


def _mode_field(basis, j, m):
    c = np.zeros(basis.mode_shape)
    c[j, m] = 1.0
    return F.synthesize(basis, c)


def _band_mix(m, rng):
    """Fields of mixed bands, one of full band, and the zero field."""
    b = m.basis
    zero = F.synthesize(b, np.zeros(b.mode_shape))
    fields = [_mode_field(b, 0, 2),
              _random_mode_field(b, rng, degree=4, fourier=3),
              random_bandlimited(b, rng, degree=b.degree_max,
                                 fourier=b.fourier_max),
              zero]
    if b.fourier_max:
        # a top row of a cosine mode (wavenumber 3) and of a sine mode
        fields += [_mode_field(b, 5, 3), _mode_field(b, 2 * b.fourier_max, 1)]
    return fields


def _off_grid_points(m, rng):
    chi = np.concatenate([[0.0, math.pi], rng.uniform(0, math.pi, 40)])
    if not m.backend.circle:
        return (chi,)
    return rng.uniform(-m.length, 2 * m.length, chi.size), chi


def _close(got, want):
    scale = np.max(np.abs(want))
    assert_allclose(got, want, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("name", ["sphere5", "s1xs2"])
def test_band_limited_evaluation_equals_full_band(name, request, rng,
                                                  monkeypatch):
    m = request.getfixturevalue(name)
    fields = _band_mix(m, rng)
    pts = _off_grid_points(m, rng)

    def results():
        return (F.evaluate(fields, *pts),
                [F.evaluate(f, *pts) for f in fields])

    seq, single = results()
    # tabulate every mode, whatever the coefficients carry
    monkeypatch.setattr(F, "_band", lambda b, C: (b, C))
    seq_full, single_full = results()
    for k in range(len(fields)):
        _close(seq[..., k], seq_full[..., k])
        _close(single[k], single_full[k])
    assert not np.any(seq[..., 3]) and not np.any(single[3])


def test_band_follows_the_nonzero_coefficients(s1xs2, sphere5):
    b = s1xs2.basis
    f = _mode_field(b, 2 * 3, 4)  # sine mode of wavenumber 3, degree 4
    band, C = F._band(b, f.coefficients[..., None])
    assert (band.fourier_max, band.degree_max) == (3, 4)
    assert C.shape == (7, 5, 1)
    band, C = F._band(sphere5.basis,
                      np.zeros(sphere5.basis.mode_shape + (2,)))
    assert band.degree_max == 0 and C.shape == (1, 1, 2)


@pytest.mark.parametrize("name", ["sphere5", "s1xs2"])
def test_nan_coefficient_poisons_band_limited_evaluation(name, request, rng):
    m = request.getfixturevalue(name)
    b = m.basis
    low = _mode_field(b, 0, 1)
    c = np.array(low.coefficients)
    c[-1, -1] = np.nan  # beyond the band of low
    bad = F.synthesize(b, c)
    pts = _off_grid_points(m, rng)
    assert np.all(np.isnan(F.evaluate(bad, *pts)))
    vals = F.evaluate([low, bad], *pts)
    assert np.all(np.isfinite(vals[..., 0]))
    assert np.all(np.isnan(vals[..., 1]))


# ----------------------------------------------------------------- pairing

def _pairing_points(m, rng):
    """Points off the grid, pointwise, and on a product an open mesh too."""
    cases = [_off_grid_points(m, rng)]
    if m.backend.circle:
        cases.append((rng.uniform(-m.length, 2 * m.length, 23)[:, None],
                      rng.uniform(0, math.pi, 19)[None, :]))
    return cases


@pytest.mark.parametrize("name", ["sphere5", "s1xs2"])
def test_pairing_is_evaluate_then_contract(name, request, rng):
    """sum_p v_p f(p) by mode moments equals it summed from the values,
    within 1e-13 of the largest term, for a sequence against two density
    columns, one field against one density, and a stack of fields."""
    m = request.getfixturevalue(name)
    fields = _band_mix(m, rng)
    stack = F.sup_normalized(m.basis, [_random_mode_field(
        m.basis, rng, degree=4, fourier=3).coefficients for _ in range(3)])
    for pts in _pairing_points(m, rng):
        shape = np.broadcast_shapes(*(np.shape(p) for p in pts))
        axes = tuple(range(len(shape)))
        v = rng.normal(size=shape + (2,))
        vals = F.evaluate(fields, *pts)
        terms = v[..., :, None] * vals[..., None, :]
        got = F.pair(fields, v, *pts)
        assert got.shape == (2, len(fields))
        assert_allclose(got, terms.sum(axis=axes), rtol=0,
                        atol=1e-13 * np.max(np.abs(terms)))
        one = F.pair(fields[1], v[..., 0], *pts)
        assert one.shape == ()
        assert abs(one - got[0, 1]) <= 1e-13 * np.max(np.abs(terms))
        terms = F.evaluate(stack, *pts)[..., None] * v
        got = F.pair(stack, v, *pts)
        assert got.shape == (3, 2)
        assert_allclose(got, terms.sum(axis=tuple(a + 1 for a in axes)),
                        rtol=0, atol=1e-13 * np.max(np.abs(terms)))


@pytest.mark.parametrize("name", ["sphere5", "s1xs2"])
def test_nan_density_at_a_zero_weight_node_poisons_the_pairing(name, request,
                                                               rng):
    m = request.getfixturevalue(name)
    fields = _band_mix(m, rng)[:2]
    for pts in _pairing_points(m, rng):
        shape = np.broadcast_shapes(*(np.shape(p) for p in pts))
        weights, density = np.ones(shape), np.ones(shape)
        weights.flat[3], density.flat[3] = 0.0, np.nan
        assert np.all(np.isnan(F.pair(fields, weights * density, *pts)))


# -------------------------------------------------------------- invariants

def test_basis_constants():
    assert_allclose(sphere_area(3), 2.0 * math.pi ** 2)
    assert_allclose(ball_volume(5), 8.0 * math.pi ** 2 / 15.0)
    # recursive cross-check: sigma_n = 2 pi sigma_{n-2} / (n - 1)
    for n in range(3, 8):
        assert_allclose(sphere_area(n),
                        2.0 * math.pi * sphere_area(n - 2) / (n - 1),
                        rtol=1e-13)


# ------------------------------------------------------------ trial stacks

def _stack(fields):
    """One field with a leading trial axis, from single fields."""
    return F.ScalarField(fields[0].basis,
                         np.stack([f.coefficients for f in fields]),
                         np.stack([f.grid_values for f in fields]))


@pytest.mark.parametrize("name", ["sphere5", "s1xs2"])
def test_every_transform_maps_over_the_trial_axis(name, request, rng):
    """A stack of three fields gives, trial by trial, exactly what each
    field gives alone."""
    b = request.getfixturevalue(name).basis
    singles = [_random_mode_field(b, rng) for _ in range(3)]
    stacked = _stack(singles)
    pts = ((np.array([0.1, 1.3, 2.9]), np.array([0.2, 1.0, 3.0]))
           if name == "s1xs2" else (np.array([0.2, 1.0, 3.0]),))

    def grid(f):
        return F.field_from_grid(b, f.grid_values)

    def jets(f):
        value, grad, hess = F.frame_jets(f)
        return np.stack([value, *grad, *hess.values()])

    transforms = {
        "synthesize": lambda f: F.synthesize(b, f.coefficients).grid_values,
        "analyze": lambda f: F.analyze(grid(f)).coefficients,
        "laplacian": lambda f: F.laplacian(f).grid_values,
        "integrate": F.integrate,
        "product": lambda f: (f * f).grid_values,
        "evaluate": lambda f: F.evaluate(f, *pts),
        "evaluate-sequence": lambda f: F.evaluate([f, 2.0 * f], *pts),
        "jets-on-grid": jets,
    }
    for label, transform in transforms.items():
        got = np.asarray(transform(stacked))
        want = [transform(f) for f in singles]
        if label == "jets-on-grid":  # components lead, then trials
            got = np.moveaxis(got, 1, 0)
        assert got.shape[0] == 3, label
        for k in range(3):
            np.testing.assert_array_equal(got[k], want[k], err_msg=label)


def test_a_stack_needs_one_trial_count(sphere5):
    b = sphere5.basis
    with pytest.raises(ValueError, match="different trial counts"):
        F.ScalarField(b, np.zeros((2,) + b.mode_shape),
                      np.zeros((3,) + b.grid_shape))
    with pytest.raises(ValueError, match="coefficient shape"):
        F.ScalarField(b, np.zeros((2, 2) + b.mode_shape))


@pytest.mark.parametrize("name", ["sphere5", "s1xs2"])
@pytest.mark.parametrize("shape", [(3,), (4, 9)])
def test_synthesize_checks_the_mode_shape_first(name, shape, request):
    """A table of the wrong mode shape raises the constructor's message,
    not a numpy error from inside the synthesis."""
    b = request.getfixturevalue(name).basis
    with pytest.raises(ValueError, match=r"coefficient shape \(.*\) != "):
        F.synthesize(b, np.zeros(shape))


def test_a_field_needs_grid_values(sphere5):
    b = sphere5.basis
    with pytest.raises(ValueError, match="needs grid values"):
        F.ScalarField(b, np.zeros(b.mode_shape))


def test_sup_normalized_scales_each_trial(s1xs2, rng):
    b = s1xs2.basis
    tables = [F.random_modes(b, rng, degree=4, fourier=2) for _ in range(3)]
    stacked = F.sup_normalized(b, tables, 0.5)
    assert_allclose(np.max(np.abs(stacked.grid_values), axis=(1, 2)), 0.5,
                    rtol=1e-15)
    for k, table in enumerate(tables):
        one = F.sup_normalized(b, table, 0.5)
        np.testing.assert_array_equal(stacked.coefficients[k],
                                      one.coefficients)
        assert one.bandwidth == stacked.bandwidth == (2, 4)


def _random_modes_by_draw(basis, rng, degree, fourier=0):
    """``random_modes`` written as one scalar draw per coefficient."""
    degree = min(degree, basis.degree_max)
    fourier = min(fourier, basis.fourier_max)
    c = np.zeros(basis.mode_shape)
    for j in range(2 * fourier + 1):
        k = basis.circle_wavenumber(j)
        for m in range(degree + 1):
            c[j, m] = rng.normal() * math.exp(-(k + m))
    return c


@pytest.mark.parametrize("name, degree, fourier", [
    ("sphere5", 6, 0), ("sphere5", 99, 0), ("s1xs2", 4, 3),
    ("s1xs2", 40, 20)])
def test_random_modes_draw_as_the_scalar_loop(name, degree, fourier,
                                              request):
    """One vectorized draw per table gives the table of one scalar draw
    per coefficient, in row-major order, bit for bit, and leaves the
    generator where the loop leaves it; also where ``degree`` and
    ``fourier`` exceed the basis and are cut to it."""
    b = request.getfixturevalue(name).basis
    one, loop = np.random.default_rng(5), np.random.default_rng(5)
    got = F.random_modes(b, one, degree, fourier)
    want = _random_modes_by_draw(b, loop, degree, fourier)
    assert got.shape == want.shape == b.mode_shape
    np.testing.assert_array_equal(got, want)
    assert one.bit_generator.state == loop.bit_generator.state
    assert one.uniform() == loop.uniform()
