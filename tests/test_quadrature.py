import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_legendre

from conformal_lab import quadrature as Q
from conformal_lab import verify
from conformal_lab.geometry import Pole, catalog_build
from conformal_lab.green import GreenField, green_field, green_pair


@pytest.mark.parametrize("order", [6, 10])
def test_gauss_panels_take_the_legendre_rule(order):
    """One panel over [-1, 1] is the Gauss-Legendre rule, which the panels
    take from the basis's Gauss-Jacobi rule of weight 1, Newton's roots
    of p_order (weights read 1.3e-14 off scipy's at order 10; numpy's
    leggauss reads 1.5e-14)."""
    x, w = Q._gauss_panels(np.array([-1.0, 1.0]), order)
    x_ref, w_ref = roots_legendre(order)
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=2e-15)
    np.testing.assert_allclose(w, w_ref, rtol=3e-14)


def test_extrapolate_to_zero_is_exact_on_a_quadratic():
    """The least-squares quadratic through the four smallest radii, given
    out of order among larger ones, interpolates a quadratic."""
    r = np.array([0.5, 0.03, 0.2, 0.1, 0.05, 0.9])
    got = Q.extrapolate_to_zero(r, 1.7 - 0.4 * r + 2.5 * r ** 2)
    assert abs(got - 1.7) < 1e-14


@pytest.mark.parametrize("shape", ["exp-sin", "reciprocal", "sqrt",
                                   "r-log-r"])
def test_extrapolate_to_zero_matches_least_squares(shape):
    """On samples no quadratic fits, at the mass route's radii out of
    order, the orthogonal-polynomial fit's constant is the least-squares
    one that ``np.linalg.lstsq``, the test oracle, gives (measured within
    3.4e-15 of it)."""
    r = np.random.default_rng(8).permutation(0.4 * 0.6 ** np.arange(8))
    values = {"exp-sin": np.exp(r) + np.sin(7.0 * r),
              "reciprocal": 1.0 / (1.0 + r),
              "sqrt": np.sqrt(r),
              "r-log-r": 2.0 + r * np.log(r)}[shape]
    near = np.argsort(r)[:4]
    vander = r[near, None] ** np.arange(3)
    (want, _, _), *_ = np.linalg.lstsq(vander, values[near], rcond=None)
    assert_allclose(Q.extrapolate_to_zero(r, values), want, rtol=1e-13)


@pytest.mark.parametrize("fixture, rtol", [
    ("sphere5", 1e-14),  # Gauss panels integrate sin^4 exactly
    ("s1xs2", 2e-9),  # the blended product rule: level-1 error 6.4e-10
])
def test_weights_sum_to_the_volume(fixture, rtol, request):
    """Each block of ``pole_blocks`` at s0 = 1 is ``(points, weights)``,
    its points in the chart's coordinates, and the weights, on a product
    those of the half rule (doubled weights on ds > 0), sum to the
    volume."""
    m = request.getfixturevalue(fixture)
    blocks = list(Q.pole_blocks(m, Pole(1, 1.0), level=1))
    for block in blocks:
        points, w = block
        assert len(points) == len(m.grid_points())
        assert np.broadcast(*points).shape == w.shape
    total = sum(float(np.sum(w)) for _, w in blocks)
    assert math.isclose(total, m.volume, rel_tol=rtol)


def test_nan_at_a_zero_weight_node_poisons_the_integral(s1xs2, monkeypatch):
    """A NaN kernel value at the far-rectangle node nearest the pole, whose
    cut-off weight is 0, makes ``green_pair`` NaN: every node takes part.
    The NaN goes into whichever far slab holds that node.  The
    untransported kernel is even about its pole, so each slab of the
    half rule is evaluated once, at its own points."""
    m, pole = s1xs2, Pole(1, 0.0)
    r0 = 0.125 * min(0.5 * m.length, m.radius * math.pi)
    gf = green_field(m, "L", pole)
    blocks = list(Q.pole_blocks(m, pole, level=1))
    assert len(blocks) > 2

    def nearest(s, chi):
        rr = np.hypot(s - pole.s0, m.radius * chi)
        i = np.unravel_index(np.argmin(rr), rr.shape)
        return rr[i], i

    far = [k for k, (pts, _) in enumerate(blocks)
           if pts[0].shape[1] == 1]
    target = min(far, key=lambda k: nearest(*blocks[k][0])[0])
    calls = []
    values_at = GreenField.values_at

    def poisoned(self, s, chi):
        vals = np.array(values_at(self, s, chi))
        calls.append(vals.size)
        if len(calls) == target + 1:  # the cut-off is 0 there for r < r0
            rr, i = nearest(s, chi)
            assert rr < r0 and s.shape[1] == 1  # an open-mesh far slab
            vals[i] = np.nan
        return vals

    monkeypatch.setattr(GreenField, "values_at", poisoned)
    assert math.isnan(green_pair(gf, m.constant(1.0), level=1))
    assert calls == [w.size for _, w in blocks]  # once per slab


def _meshgrid_pieces(m, pole, level):
    """The half product rule as two whole pieces, [near, far], built on
    full meshgrids: the construction the product rule had before it
    tabulated the polar patch along its axes and cut the pieces into
    slabs, kept here as the reference."""
    d, b, ell = m.sphere_dim, m.radius, m.length
    r1 = 0.25 * min(0.5 * ell, b * math.pi)
    r0 = 0.5 * r1
    orbit = m.basis.orbit_area * b ** (d - 1)
    redges = np.concatenate([Q._graded_edges(r0, 14)[:-1],
                             np.linspace(r0, r1, 8 + 1)])
    r_nodes, r_w = Q._gauss_panels(redges, 6)
    p_nodes, p_w = Q._gauss_panels(np.linspace(0.0, math.pi, 16 + 1), 6)
    half = p_nodes < 0.5 * math.pi
    R, PSI = np.meshgrid(r_nodes, p_nodes[half], indexing="ij")
    WR, WP = np.meshgrid(r_w, 2.0 * p_w[half], indexing="ij")
    ds = R * np.cos(PSI)
    chi_eff = R * np.sin(PSI) / b
    cut = 1.0 - Q.smoothstep((R - r0) / (r1 - r0))
    meas = orbit * np.sin(chi_eff) ** (d - 1) * R
    near = ((ds, chi_eff), cut * meas * WR * WP)
    h = (r1 - r0) / 2 ** (level - 1)
    ns = max(8 * 2 ** level, math.ceil(ell / h))
    nx = max(8 * 2 ** level, math.ceil(math.pi * b / h))
    s_nodes, s_w = Q._gauss_panels(np.linspace(-0.5 * ell, 0.5 * ell,
                                               ns + 1), 6)
    half = s_nodes > 0.0
    x_nodes, x_w = Q._gauss_panels(np.linspace(0.0, math.pi, nx + 1), 6)
    DS, CHI_EFF = np.meshgrid(s_nodes[half], x_nodes, indexing="ij",
                              sparse=True)
    WS, WX = np.meshgrid(2.0 * s_w[half], x_w, indexing="ij", sparse=True)
    rr = np.hypot(DS, b * CHI_EFF)
    cut_far = Q.smoothstep((rr - r0) / (r1 - r0))
    meas = orbit * b * np.sin(CHI_EFF) ** (d - 1)
    far = ((DS, CHI_EFF), cut_far * meas * WS * WX)
    return [(m.chart_from_pole(pole, *sep), w) for sep, w in (near, far)]


def _laid_out(piece, shape):
    """The s, chi and weight tables of one piece of the rule, laid back
    together from its slabs in the order given: each slab continues the
    row run of the one before, or starts the next run of rows."""
    out = [np.full(shape, np.nan) for _ in range(3)]
    i = j = 0
    for (s, chi), w in piece:
        r, c = w.shape
        for table, part in zip(out, (s, chi, w)):
            table[i:i + r, j:j + c] = part
        j += c
        if j == shape[1]:
            i, j = i + r, 0
    assert (i, j) == (shape[0], 0)
    return out


@pytest.mark.parametrize("kind, length", [("product-S1xS2", 2 * math.pi),
                                          ("product-S1xS3", 0.5)])
@pytest.mark.parametrize("level, bound", [(1, None), (2, None), (3, None),
                                          (1, 40)])
def test_slabs_tile_the_half_rule(kind, length, level, bound, monkeypatch):
    """The slabs of ``pole_blocks`` on a product hold at most
    ``SLAB_NODES`` nodes each: runs of whole rows of the near patch
    (pointwise) and of the far rectangle (open meshes), or, under a bound
    of 40 nodes, which is shorter than a row, runs of one row.  Laid back
    together per piece they are the meshgrid construction's points and
    weights, bit for bit.  The node counts are recorded before the first
    slab is built."""
    if bound is not None:
        monkeypatch.setattr(Q, "SLAB_NODES", bound)
    m = catalog_build(kind, None, {"length": length},
                      {"degree_max": 4, "fourier_max": 2})
    pole = Pole(1, 0.3)
    res = {}
    slabs = Q.pole_blocks(m, pole, level=level, resolution=res)
    want = _meshgrid_pieces(m, pole, level)
    assert res["nodes"] == [w.size for _, w in want]
    slabs = list(slabs)
    assert max(w.size for _, w in slabs) <= Q.SLAB_NODES
    near = [slab for slab in slabs if slab[0][0].shape[1] > 1]
    far = [slab for slab in slabs if slab[0][0].shape[1] == 1]
    assert len(near) + len(far) == len(slabs)
    assert all(s.shape == chi.shape == w.shape for (s, chi), w in near)
    assert all(chi.shape == (1, w.shape[1]) for (_, chi), w in far)
    for piece, (points, w) in zip((near, far), want):
        got = _laid_out(piece, w.shape)
        for table, ref in zip(got, (*points, w)):
            assert np.array_equal(table, np.broadcast_to(ref, w.shape))


def test_slabs_are_built_as_they_are_read(s1xs2, monkeypatch):
    """``pole_blocks`` on a product returns before it builds a slab, and
    forms each slab's cut-off only when the iterator reaches that slab,
    so no piece of the rule is formed whole."""
    calls = []
    step = Q.smoothstep

    def counted(x):
        calls.append(np.size(x))
        return step(x)

    monkeypatch.setattr(Q, "smoothstep", counted)
    slabs = Q.pole_blocks(s1xs2, Pole(), level=2)
    assert calls == []
    next(slabs)
    assert len(calls) == 1
    assert len(list(slabs)) == 6 and len(calls) == 7


def test_level_2_product_rule_node_counts(s1xs2):
    """S1(2pi) x S2 at level 2: 6,624 near and 18,432 far nodes in
    slabs of 85 radial rows of 48 and 21 s rows of 192."""
    res = {}
    slabs = list(Q.pole_blocks(s1xs2, Pole(), level=2, resolution=res))
    assert res["nodes"] == [6624, 18432]
    assert [w.shape for _, w in slabs] == [(85, 48), (53, 48)] \
        + [(21, 192)] * 4 + [(12, 192)]


def _identity_residuals(m, level, monkeypatch, **patch):
    """The residuals of the product's weak identity (S1xS2) or 4d
    identity (S1xS3) at ``level``, on the pole rule with the module
    constants of ``patch`` in place."""
    check = verify.check_4d_identity if m.n == 4 \
        else verify.check_weak_identity
    with monkeypatch.context() as patched:
        for name, value in patch.items():
            patched.setattr(Q, name, value)
        report = check(m, level=level)
    return np.array([c.residual for c in report.checks
                     if c.law != "blowup-integrability"])


@pytest.mark.parametrize("kind", ["product-S1xS2", "product-S1xS3"])
@pytest.mark.parametrize("length", [0.5, 2 * math.pi])
def test_the_polar_patch_is_converged(kind, length, monkeypatch):
    """The polar patch is one node set at every level because it is
    converged to rounding: refined twofold in psi and across the band and
    graded ten times deeper, it moves no identity residual by more than
    1e-14 at levels 1 and 2 (measured at most 1.4e-15 over levels 1 to 3
    and l = 0.5, 2 pi and 40; the level-2 residuals, 2e-10 to 4e-9, come
    from the far rectangle)."""
    m = catalog_build(kind, None, {"length": length},
                      {"degree_max": 16, "fourier_max": 8})
    refined = {"_PATCH_PSI_PANELS": 2 * Q._PATCH_PSI_PANELS,
               "_PATCH_BAND_PANELS": 2 * Q._PATCH_BAND_PANELS,
               "_GRADED_DEPTH": Q._GRADED_DEPTH + 10}
    for level in (1, 2):
        base = _identity_residuals(m, level, monkeypatch)
        moved = _identity_residuals(m, level, monkeypatch, **refined) - base
        assert np.max(np.abs(moved)) <= 1e-14, level


def test_a_coarser_polar_patch_moves_the_residuals(s1xs3, monkeypatch):
    """The residuals see the patch: half its band panels move the 4d
    identity on S1(2pi) x S3 at level 1 by more than 1e-14 (measured
    3.9e-13), so the bound above holds on a patch the identities read."""
    base = _identity_residuals(s1xs3, 1, monkeypatch)
    coarse = _identity_residuals(
        s1xs3, 1, monkeypatch,
        _PATCH_BAND_PANELS=Q._PATCH_BAND_PANELS // 2)
    assert np.max(np.abs(coarse - base)) > 1e-14


def test_the_polar_patch_is_the_same_at_every_level(s1xs2):
    """``level`` refines the far rectangle alone: the near patch keeps
    its 6,624 nodes on S1(2pi) x S2 at levels 1 to 3, the far rectangle
    grows fourfold per level."""
    counts = []
    for level in (1, 2, 3):
        res = {}
        Q.pole_blocks(s1xs2, Pole(), level=level, resolution=res)
        counts.append(res["nodes"])
    assert [near for near, _ in counts] == [6624] * 3
    assert [far for _, far in counts] == [4608, 18432, 73728]
