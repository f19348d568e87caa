"""The half product rule folds exactly.

``quadrature.pole_blocks`` holds on a product the ds > 0 half of the
graded rule with doubled weights, which sum to the volume, in slabs of
whole rows of the near patch and of the far rectangle.  Pairing a
density even about the pole with the even part of a field on it must
give what the mirror-completed full rule gives with the whole field:
the identities' densities with the default test functions, and
``green.green_pair``'s untransported kernel with a field that is not
even about the pole.  At l = 6.4 the far rectangle has 33 s panels, so
its middle panel straddles ds = 0 and the half is selected from inside
it.
"""

import math

import numpy as np
import pytest

from conformal_lab import fields as F
from conformal_lab import green
from conformal_lab import quadrature as Q
from conformal_lab import verify
from conformal_lab.geometry import Pole, catalog_build
from conformal_lab.green import green_field, green_pair
from conformal_lab.operators import apply_P

CASES = [(kind, length) for kind in ("product-S1xS2", "product-S1xS3")
         for length in (2 * math.pi, 6.4)]


def _product(kind, length):
    return catalog_build(kind, None, {"length": length},
                         {"degree_max": 16, "fourier_max": 8})


def _completed(pole, points, *arrays):
    """The chart points of a half block at s0 +/- ds, stacked along the
    first axis, and ``arrays`` repeated to match."""
    s, chi = points
    if chi.shape[0] > 1:
        chi = np.concatenate([chi, chi])
    full = (np.concatenate([s, 2.0 * pole.s0 - s]), chi)
    return full, [np.concatenate([a, a]) for a in arrays]


@pytest.mark.parametrize("kind, length", CASES)
def test_far_rectangle_halves_exactly(kind, length):
    """The level-2 half rule at s0 = 0 and 1 keeps the ds > 0 nodes, and
    its doubled weights sum to the volume to 2e-9 (read at most 8.2e-10):
    the full rule's weights, whose odd part sums to 0, give twice that.
    The far slabs, open meshes against the full chi row, stack to the
    ds > 0 rows of the far rectangle.  At l = 6.4 a wrong selection or
    doubling in the panel that straddles ds = 0 moves the sum by whole
    rows of weights: leaving the row nearest ds = 0 undoubled moves it
    by 6.5e-3."""
    m = _product(kind, length)
    ns = 198 if length == 6.4 else 192
    for s0 in (0.0, 1.0):
        res = {}
        blocks = list(Q.pole_blocks(m, Pole(1, s0), level=2,
                                    resolution=res))
        far = [(pts, w) for pts, w in blocks if pts[0].shape[1] == 1]
        near = [(pts, w) for pts, w in blocks if pts[0].shape[1] > 1]
        assert all(pts[1].shape == (1, 192) for pts, _ in far)
        far_s = np.concatenate([pts[0] for pts, _ in far])
        far_w = np.concatenate([w for _, w in far])
        assert far_s.shape == (ns // 2, 1) and far_w.shape == (ns // 2, 192)
        assert np.all(far_s > s0)
        assert all(np.all(pts[0] > s0) for pts, _ in near)
        assert res["nodes"] == [sum(w.size for _, w in near), far_w.size]
        assert res["mirror"] == "s"
        total = sum(float(np.sum(wq)) for _, wq in blocks)
        assert math.isclose(total, m.volume, rel_tol=2e-9)


@pytest.mark.parametrize("kind, length", CASES)
def test_half_rule_pairing_equals_the_full_rule(kind, length,
                                                monkeypatch):
    """The six default test functions (the band field carries sine
    modes) and their P images against the blow-up density, on the half
    rule through their even parts, as the identity's pass pairs them,
    and on the completed full rule as they are: equal to 1e-13 of the
    largest integral."""
    m = _product(kind, length)
    n = m.n
    s = (n - 4.0) / (n - 2.0)

    def densities(g, ricci_sq):
        return (np.log(g), ricci_sq) if n == 4 else (g ** s, g ** s * ricci_sq)

    fns = verify.default_test_functions(m)
    assert np.any(F.coefficients_of(fns[-1])[2::2] != 0.0)
    pair = F.pair
    paired = []

    def recorded(*args):
        paired.append(pair(*args))
        return paired[-1]

    monkeypatch.setattr(F, "pair", recorded)
    _, resolution = verify._pole_identity(m, "identity", 2, 1.0)
    assert resolution["mirror"] == "s"
    k = len(fns)
    half = sum(paired)
    t_main, t_ricci = half[0, :k], half[1, k:]

    p_fns = [apply_P(m, phi) for phi in fns]
    totals = 0.0
    for points, wq, g, ricci_sq in green.blowup_slabs(green_field(m, "L"),
                                                      2):
        full, (w2, g2, r2) = _completed(Pole(), points, 0.5 * wq, g,
                                        ricci_sq)
        totals = totals + pair(p_fns + fns, np.stack(
            [w2 * d for d in densities(g2, r2)], axis=-1), *full)
    for got, want in ((t_main, totals[0, :k]), (t_ricci, totals[1, k:])):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("kind, length", CASES)
@pytest.mark.parametrize("s0", [0.0, 1.0])
def test_integrand_odd_in_s_sees_the_full_rule(kind, length, s0):
    """``green_pair`` of G_L with a field that carries sine modes, whose
    product is not even about the pole, equals the completed full-rule
    sum of w G f to 1e-13: the half rule pairs the field's even part
    about the pole.  The half rule with the whole field misses by more
    than 1e-3, so a field paired as it is, or its even part taken about
    s = 0 for the pole at s0 = 1, shows."""
    m = _product(kind, length)
    pole = Pole(1, s0)
    gf = green_field(m, "L", pole)
    c = np.zeros(m.basis.mode_shape)
    c[0, 0], c[1, 1], c[2, 0], c[2, 1], c[4, 2] = 1.0, 0.3, 0.5, 0.4, 0.2
    f = F.synthesize(m.basis, c)

    got = green_pair(gf, f)
    want = 0.0
    half = 0.0
    for points, wq in Q.pole_blocks(m, pole, level=2):
        full, (w2,) = _completed(pole, points, 0.5 * wq)
        want += float(np.sum(w2 * gf.values_at(*full) * F.evaluate(f, *full)))
        half += float(np.sum(wq * gf.values_at(*points)
                             * F.evaluate(f, *points)))
    assert abs(got - want) <= 1e-13 * abs(want)
    assert abs(half - want) > 1e-3 * abs(want)


@pytest.mark.parametrize("kind, length", CASES)
def test_untransported_kernel_is_summed_once_per_half_block(kind, length,
                                                           monkeypatch):
    """An untransported G_L is even about its pole, so ``green_pair``
    sums its images once per slab of the half rule, one ``_sums`` call
    each, at the slab's own points."""
    m = _product(kind, length)
    pole = Pole(1, 1.0)
    c = np.zeros(m.basis.mode_shape)
    c[0, 0], c[2, 1], c[4, 2] = 1.0, 0.4, 0.2  # rows 2 and 4 are sines
    f = F.synthesize(m.basis, c)
    calls = []
    sums = green._ProductImageKernel._sums

    def counted(self, ds, chi, jets):
        calls.append(np.size(ds))
        return sums(self, ds, chi, jets)

    monkeypatch.setattr(green._ProductImageKernel, "_sums", counted)
    green_pair(green_field(m, "L", pole), f)
    blocks = list(Q.pole_blocks(m, pole, level=2))
    assert calls == [np.size(s) for (s, _), _ in blocks]
