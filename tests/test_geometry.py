import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conformal_lab import basis, verify
from conformal_lab import fields as F
from conformal_lab.cli import list_catalog
from conformal_lab.errors import (AliasingError, NonpositiveFactorError,
                                  UnsupportedBackendError)
from conformal_lab.geometry import (ConformalFactor, FieldFactor,
                                    ManifoldModel, MoebiusFactor, Pole,
                                    catalog_build,
                                    conformal_curvature, conformal_ricci)
from conformal_lab.operators import conformal_q
from conformal_lab.spectrum import lambda1_L

from random_fields import random_bandlimited


# ----------------------------------------------------------------- catalog

def test_catalog_sphere_invariants(sphere4):
    assert sphere4.scalar_curvature == 12.0
    rc = sphere4.ricci_eigenvalues
    assert_allclose(F.frame_trace(sphere4.basis, rc), 12.0)
    assert_allclose(F.frame_dot(sphere4.basis, rc, rc), 36.0)


def test_catalog_product_invariants(s1xs2, s1xs3):
    assert s1xs2.scalar_curvature == 2.0
    assert s1xs2.ricci_eigenvalues["ss"] == 0.0
    assert s1xs2.ricci_eigenvalues["xx"] == 1.0
    rc = s1xs2.ricci_eigenvalues
    assert_allclose(F.frame_dot(s1xs2.basis, rc, rc), 2.0)
    assert s1xs3.scalar_curvature == 6.0
    assert s1xs3.ricci_eigenvalues["xx"] == 2.0
    rc = s1xs3.ricci_eigenvalues
    assert_allclose(F.frame_dot(s1xs3.basis, rc, rc), 12.0)


def test_ricci_trace_matches_scalar_everywhere(sphere5, s1xs3):
    for m in (sphere5, s1xs3):
        assert_allclose(F.frame_trace(m.basis, m.ricci_eigenvalues),
                        m.scalar_curvature, rtol=1e-12)


@pytest.mark.parametrize("kind,n", [("sphere", 2), ("sphere", 8),
                                    ("product-S1xS2", 4),
                                    ("product-S1xS3", 3),
                                    ("torus", 3)])
def test_unsupported_backends(kind, n):
    with pytest.raises(UnsupportedBackendError):
        catalog_build(kind, n, {}, {"degree_max": 4})


def test_a_product_kind_is_one_table_row(monkeypatch):
    """S^1 x S^4 needs only its row in the backend table: the dimension,
    the curvature, the symbols, every suite's gate, the default test
    functions, the covariance tolerance class, the Moebius refusal and
    the printed catalog all follow from it."""
    row = replace(basis.BACKENDS["product-S1xS3"], dims={5: 4})
    monkeypatch.setitem(basis.BACKENDS, "product-S1xS4", row)
    m = catalog_build("product-S1xS4", None, {},
                      {"degree_max": 8, "fourier_max": 2})
    assert m.n == 5 and m.sphere_dim == 4 and m.backend is row
    assert m.scalar_curvature == 12.0
    assert m.ricci_eigenvalues["xx"] == 3.0
    assert lambda1_L(m) == 12.0
    assert_allclose(m.q_value, 3.125, rtol=1e-13)
    assert m.descriptor().startswith("product-S1xS4:n=5:l=")
    gates = {name: suite.applies(m)
             for name, suite in verify.DECLARATIONS.items()}
    assert gates == {"weak-identity": True, "4d-identity": False,
                     "total-q": False, "covariance": True, "signs": True,
                     "spectrum": True, "green-compare": True, "mass": False}
    fns = verify.default_test_functions(m)
    units = [tuple(np.argwhere(f.coefficients)[0]) for f in fns[1:-1]]
    assert len(fns) == 6 and units == list(row.test_modes)
    # the band field asks for wavenumber 3, cut to the basis' 2
    assert fns[-1].bandwidth == (2, row.test_degree)
    report = verify.check_covariance(m, trials=1)
    assert [c.law for c in report.checks] == ["bilinear-covariance",
                                              "blowup-measure"]
    assert {c.tolerance for c in report.checks} == {
        verify.DECLARATIONS["covariance"].tolerance[1]}
    with pytest.raises(UnsupportedBackendError, match="Moebius"):
        MoebiusFactor(m, 1.2)
    rows = {tuple(line.split()[:2]) for line in list_catalog().splitlines()}
    assert ("product-S1xS4", "5") in rows


def test_radius_two_sphere_curvature():
    m = catalog_build("sphere", 5, {"radius": 2.0}, {"degree_max": 6})
    assert_allclose(m.scalar_curvature, 5.0)
    assert_allclose(m.q_value, 5 * 21 / 8 / 16.0)


# -------------------------------------------------------------- Q curvature

@pytest.mark.parametrize("fixture,value", [
    ("sphere3", 15.0 / 8.0),
    ("sphere4", 6.0),
    ("sphere5", 105.0 / 8.0),
    ("s1xs2", -9.0 / 8.0),
    ("s1xs3", 0.0),
])
def test_q_values(fixture, value, request):
    m = request.getfixturevalue(fixture)
    q = m.constant(m.q_value)
    assert_allclose(q.grid_values, value, atol=1e-12)
    # cross-check the round-sphere family against n (n^2 - 4) / 8
    if fixture.startswith("sphere"):
        assert_allclose(m.q_value, m.n * (m.n ** 2 - 4) / 8.0, rtol=1e-13)


def test_total_q_on_round_sphere4(sphere4):
    assert_allclose(F.integrate(sphere4.constant(sphere4.q_value)),
                    16.0 * math.pi ** 2, rtol=1e-10)


# --------------------------------------------------------- conformal ricci

def test_identity_factor_returns_base_ricci(sphere5, s1xs2):
    """And both backends share one frame: xx is the polar component and
    orb the orbit one, and a product adds its circle components."""
    keys = {}
    for m in (sphere5, s1xs2):
        rc = conformal_ricci(m, FieldFactor(m, m.constant(0.0)))
        base = m.ricci_eigenvalues
        assert rc.keys() == base.keys()
        for k in rc:
            assert_allclose(rc[k], base[k], atol=1e-12)
        keys[m.kind] = set(rc)
    assert keys["sphere"] == {"xx", "orb"}
    assert keys["sphere"] < keys["product-S1xS2"]


class _Stereographic(ConformalFactor):
    """w = -2 log(2 a sin(xi/2)), (2/(n-2)) log G_L of the round sphere up
    to a constant, with its closed-form frame jets on the grid."""

    def w_at(self, xi):
        a = self.manifold.radius
        return -2.0 * np.log(2.0 * a * np.sin(0.5 * np.asarray(xi)))

    def jets(self):
        a = self.manifold.radius
        (xi,) = self.manifold.grid_points()
        half = 0.5 * xi
        inv = 0.5 / (a * np.sin(half)) ** 2
        return (self.w_at(xi), (-1.0 / (a * np.tan(half)),),
                {"xx": inv, "orb": -np.cos(xi) * inv})


def test_stereographic_factor_flattens_the_sphere(sphere5):
    # G_L^{4/(n-2)} g is the pullback of the flat metric
    from conformal_lab.green import green_field
    gf = green_field(sphere5, "L")
    profile = _Stereographic(sphere5)
    theta = sphere5.basis.polar_angles()
    log_g = 2.0 / (sphere5.n - 2.0) * np.log(gf.values_at(theta))
    w = profile.w_at(theta)
    assert_allclose(w - log_g, w[0] - log_g[0], rtol=1e-13)
    keep = ~sphere5.near_pole(gf.pole)
    comps = conformal_ricci(sphere5, profile)
    assert max(np.max(np.abs(v[keep])) for v in comps.values()) < 1e-10


def _warped_ricci_fd(a_fn, b_fn, d, theta, h=1e-4):
    """Orthonormal Ricci of A(theta)^2 dtheta^2 + B(theta)^2 dsigma_d^2.

    Uses the warped-product formulas in the arclength variable with
    centered differences for the derivatives of B.
    """
    def db_dt(th):
        return (b_fn(th + h) - b_fn(th - h)) / (2 * h) / a_fn(th)

    def d2b_dt2(th):
        return (db_dt(th + h) - db_dt(th - h)) / (2 * h) / a_fn(th)

    B = b_fn(theta)
    Bp = db_dt(theta)
    Bpp = d2b_dt2(theta)
    ric_rr = -d * Bpp / B
    ric_orb = -Bpp / B + (d - 1) * (1.0 - Bp ** 2) / B ** 2
    return ric_rr, ric_orb


def test_warped_oracle_reproduces_round_sphere(sphere5):
    a = sphere5.radius
    theta = np.linspace(0.4, 2.7, 9)
    rr, orb = _warped_ricci_fd(lambda t: a * np.ones_like(t),
                               lambda t: a * np.sin(t), sphere5.n - 1, theta)
    assert_allclose(rr, sphere5.n - 1, rtol=1e-7)
    assert_allclose(orb, sphere5.n - 1, rtol=1e-7)


def test_conformal_ricci_against_finite_differences(sphere5, rng):
    """Transformed Ricci matches the second-order FD curvature oracle."""
    w = random_bandlimited(sphere5.basis, rng, degree=3, amplitude=0.15)
    factor = FieldFactor(sphere5, w)
    theta = sphere5.basis.polar_angles()
    inner = (theta > 0.4) & (theta < 2.7)
    theta = theta[inner]

    def conf(t):
        return np.exp(F.evaluate(w, np.asarray(t)))

    a = sphere5.radius
    rr, orb = _warped_ricci_fd(lambda t: a * conf(t),
                               lambda t: a * conf(t) * np.sin(t),
                               sphere5.n - 1, theta)
    comps = conformal_ricci(sphere5, factor)
    # the oracle frame is orthonormal for the changed metric; the package
    # reports base-frame components, an e^{2w} rescaling away
    e2w = conf(theta) ** 2
    assert_allclose(comps["xx"][0, inner], e2w * rr,
                    atol=2e-6 * max(1, np.max(np.abs(rr))))
    assert_allclose(comps["orb"][0, inner], e2w * orb,
                    atol=2e-6 * max(1, np.max(np.abs(orb))))


@pytest.mark.parametrize("lam", [1.3, [1.2, 1.3]], ids=["1.3", "stack"])
@pytest.mark.parametrize("n", list(basis.BACKENDS["sphere"].dims))
def test_moebius_factor_keeps_the_sphere_round(n, lam):
    """Through the spectral jets of its sampled w: R~ = n(n-1), and Q~
    of either route is the round sphere's, each to within ten times the
    reading at degree 24 over n = 3..7 and lam in {1.2, 1.3, e^0.4}
    (R~ 3.1e-12, curvature-route Q~ 1.2e-9, covariance-route Q~
    5.7e-9)."""
    m = catalog_build("sphere", n, {}, {"degree_max": 24})
    factor = MoebiusFactor(m, lam)
    _, r_tilde, q_tilde = conformal_curvature(m, factor)
    assert r_tilde.shape == np.shape(lam) + m.basis.grid_shape
    assert_allclose(r_tilde, n * (n - 1), rtol=1e-11)
    assert_allclose(q_tilde, m.q_value, rtol=1e-8)
    assert_allclose(conformal_q(m, factor).grid_values, m.q_value, rtol=6e-8)


def test_conformal_ricci_aliasing_guard():
    m = catalog_build("sphere", 5, {}, {"degree_max": 16, "sphere_nodes": 17})
    rng = np.random.default_rng(0)
    w = random_bandlimited(m.basis, rng, degree=12, amplitude=0.05)
    with pytest.raises(AliasingError):
        conformal_ricci(m, FieldFactor(m, w))


# ------------------------------------------------------------ conformal Q

def test_conformal_q_identity_factor(sphere5):
    q = conformal_q(sphere5, FieldFactor(sphere5, sphere5.constant(0.0)))
    assert_allclose(q.grid_values, sphere5.q_value, rtol=1e-8)


def test_conformal_q_constant_shift_dimension4(sphere4):
    c = 0.3
    factor = FieldFactor(sphere4, sphere4.constant(c))
    q = conformal_q(sphere4, factor)
    assert_allclose(q.grid_values, math.exp(-4 * c) * 6.0, rtol=1e-8)


def test_conformal_q_two_routes_agree(sphere5, s1xs3, rng):
    for m in (sphere5, s1xs3):
        w = random_bandlimited(m.basis, rng, degree=3, fourier=2,
                               amplitude=0.1)
        factor = FieldFactor(m, w)
        q1 = conformal_q(m, factor).grid_values
        q2 = conformal_curvature(m, factor)[2]
        scale = np.max(np.abs(q1))
        assert np.max(np.abs(q1 - q2)) < 5e-7 * scale


# ----------------------------------------------------------------- factors

def test_factor_convention_consistency(sphere5, rng):
    w = random_bandlimited(sphere5.basis, rng, degree=4, amplitude=0.2)
    factor = FieldFactor(sphere5, w)
    n = sphere5.n
    rho_l = factor.rho("metric").grid_values
    rho_p = factor.rho("paneitz").grid_values
    target = np.exp(2.0 * factor.w_grid.grid_values)
    assert_allclose(rho_l ** (4.0 / (n - 2)), target, rtol=1e-12)
    assert_allclose(rho_p ** (4.0 / (n - 4)), target, rtol=1e-12)


@pytest.mark.parametrize("lam", [math.nan, math.inf, [1.2, math.nan], -1.3],
                         ids=["nan", "inf", "nan-trial", "negative"])
def test_a_dilation_must_be_positive_and_finite(sphere5, lam):
    with pytest.raises(NonpositiveFactorError, match="positive and finite"):
        MoebiusFactor(sphere5, lam)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_field_factor_is_refused(sphere5, value):
    with pytest.raises(NonpositiveFactorError, match="non-finite coefficient"):
        FieldFactor(sphere5, sphere5.constant(value))


class _Zonal(ConformalFactor):
    """w = c ((n+1) cos^2 theta - 1), a degree-2 zonal harmonic, given by
    its values only."""

    c = 0.1

    def w_at(self, theta):
        return self.c * ((self.manifold.n + 1) * np.cos(theta) ** 2 - 1.0)


def test_a_factor_given_by_its_values_has_the_spectral_jets(sphere5):
    """The base class differentiates the sampled w: its jets are those of
    ``w_grid``, and R~ is the closed form of the degree-2 harmonic, with
    Lap w = -2(n+1) w and |dw|^2 = 4 c^2 (n+1)^2 cos^2 (1 - cos^2)."""
    factor = _Zonal(sphere5)
    value, grad, hess = factor.jets()
    value0, grad0, hess0 = F.frame_jets(factor.w_grid)
    assert np.array_equal(value, value0) and hess.keys() == hess0.keys()
    assert all(map(np.array_equal, grad + tuple(hess.values()),
                   grad0 + tuple(hess0.values())))
    n, c = sphere5.n, _Zonal.c
    (theta,) = sphere5.grid_points()
    x, w = np.cos(theta), factor.w_at(theta)
    want = np.exp(-2.0 * w) * (
        n * (n - 1) + 4.0 * (n - 1) * (n + 1) * w
        - 4.0 * (n - 1) * (n - 2) * (c * (n + 1) * x) ** 2 * (1 - x ** 2))
    # ten times the rounding read at degree 24
    assert_allclose(conformal_curvature(sphere5, factor)[1], want,
                    rtol=4e-12)


def test_a_factor_is_read_at_points_by_its_values(sphere5, s1xs2, rng,
                                                  monkeypatch):
    """``w_at`` tabulates no derivative: a ``FieldFactor`` evaluates w, a
    ``MoebiusFactor`` takes its closed form, so neither calls
    ``polar_jets`` or ``circle_jets`` (a field factor took w as the value
    of its jets at the points).  At the grid nodes the values are those
    of the grid jets."""
    factors = [MoebiusFactor(sphere5, [1.2, 1.3])] + [
        FieldFactor(m, random_bandlimited(
            m.basis, rng, degree=4, fourier=2))
        for m in (sphere5, s1xs2)]
    for factor in factors:
        on_grid = factor.w_at(*factor.manifold.grid_points())
        assert_allclose(on_grid, factor.jets()[0], rtol=0,
                        atol=1e-13 * np.max(np.abs(on_grid)))
    calls = []
    for name in ("polar_jets", "circle_jets"):
        def counting(self, x, _orig=getattr(basis.ModeBasis, name),
                     _name=name):
            calls.append(_name)
            return _orig(self, x)
        monkeypatch.setattr(basis.ModeBasis, name, counting)
    for factor in factors:
        m = factor.manifold
        chi = rng.uniform(0.0, math.pi, 9)
        pts = ((rng.uniform(0.0, m.length, 9), chi) if m.backend.circle
               else (chi,))
        assert factor.w_at(*pts).shape[-1] == 9
    assert calls == []


def test_the_grid_chart_is_built_once(sphere5, s1xs2):
    """One read-only open mesh per backend, whose coordinate count the
    pole point reads."""
    for m in (sphere5, s1xs2):
        chart = m.grid_points()
        assert chart is m.grid_points()
        assert not any(axis.flags.writeable for axis in chart)
        assert np.array_equal(chart[-1], m.basis.polar_angles()[None, :])
        pole = m.pole_point(Pole())
        assert len(pole) == len(chart) and all(p.shape == (1,) for p in pole)
    assert np.array_equal(s1xs2.grid_points()[0],
                          s1xs2.basis.circle_points()[:, None])


def test_pole_geometry(s1xs2):
    pole = Pole(axis=1, s0=1.0)
    ds, chi = s1xs2.pole_separation(pole, np.array([1.5]), np.array([0.3]))
    assert_allclose(ds, 0.5)
    assert_allclose(chi, 0.3)
    south = Pole(axis=-1)
    assert_allclose(s1xs2.pole_separation(south, np.array([0.0]),
                                          np.array([math.pi]))[1], 0.0)


# the shipped catalog of configs/full.json
FULL_CATALOG = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "full.json")
    .read_text())["catalog"]


def _geodesic_mask(m, pole):
    """The grid mask as it was first written: geodesic distance from the
    pole, with the circle offset reduced by ``%``, below three coarse grid
    spacings."""
    theta = m.basis.polar_angles()
    xi = theta if pole.axis > 0 else math.pi - theta
    sphere_spacing = m.radius * math.pi / m.basis.sphere_nodes
    if not m.backend.circle:  # one row, for the unit circle's one node
        return (m.radius * xi < 3.0 * sphere_spacing)[None, :]
    ell = m.length
    ds = (m.basis.circle_points() - pole.s0 + 0.5 * ell) % ell - 0.5 * ell
    r = np.hypot(ds[:, None], m.radius * xi[None, :])
    return r < 3.0 * max(ell / m.basis.circle_nodes, sphere_spacing)


@pytest.mark.parametrize("rec", FULL_CATALOG,
                         ids=[f"{r['kind']}-{r.get('n', '')}"
                              for r in FULL_CATALOG])
def test_near_pole_is_the_geodesic_mask(rec):
    """At every pole the suites use, on every backend of the shipped
    catalog, the mask equals the geodesic rule bit for bit and holds the
    nodes nearest the pole, not the whole grid."""
    m = catalog_build(rec["kind"], rec.get("n"), rec["params"], rec["basis"])
    poles = ([Pole(1, 0.0), Pole(1, m.length / 3.0)] if m.backend.circle
             else [Pole(1), Pole(-1)])
    for pole in poles:
        mask = m.near_pole(pole)
        assert mask.shape == m.basis.grid_shape
        assert np.array_equal(mask, _geodesic_mask(m, pole)), pole
        assert 0 < np.sum(mask) < mask.size


@pytest.mark.parametrize("name", ["sphere5", "s1xs2"])
def test_chart_from_pole_inverts_pole_separation(name, request):
    m = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    chi = rng.uniform(0.0, math.pi, 12)
    for axis in (1, -1):
        pole = Pole(axis, 0.9 if m.backend.circle else 0.0)
        # circle points within half a period of the pole, where the
        # separation needs no reduction
        pts = ((pole.s0 + rng.uniform(-0.49, 0.49, 12) * m.length, chi)
               if m.backend.circle else (chi,))
        sep = m.pole_separation(pole, *pts)
        assert isinstance(sep, tuple) and len(sep) == len(pts)
        back = m.chart_from_pole(pole, *sep)
        for got, want in zip(back, pts):
            assert_allclose(got, want, rtol=0, atol=1e-14)
        # the pole itself sits at separation zero
        at_pole = m.pole_separation(pole, *m.pole_point(pole))
        for c in at_pole:
            assert_allclose(c, 0.0, rtol=0, atol=1e-15)


def test_descriptor_and_manifest_fields(sphere4):
    d = sphere4.descriptor()
    assert "sphere" in d and "n=4" in d
    rec = {"kind": "sphere", "n": 4, "params": {"radius": 1.0},
           "basis": {"degree_max": 8}}
    m = catalog_build(rec["kind"], rec["n"], rec["params"], rec["basis"])
    assert isinstance(m, ManifoldModel)
    json.dumps(rec)  # manifest records stay JSON-serializable
