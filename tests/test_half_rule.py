"""The half product rule folds exactly.

``quadrature.product_blocks`` holds the ds > 0 half of the graded rule
with doubled weights.  Pairing an even density with the even part of a
field on it must give what the mirror-completed full rule gives with the
whole field, and ``product_singular_integral``, which completes the
half, must integrate integrands that are not even as the full rule does.
At l = 6.4 the far rectangle has 33 s panels, so its middle panel
straddles ds = 0 and the half is selected from inside it.
"""

import math

import numpy as np
import pytest

from conformal_lab import fields as F
from conformal_lab import quadrature as Q
from conformal_lab import verify
from conformal_lab.geometry import Pole, catalog_build
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
    m = _product(kind, length)
    res = {}
    (near, _), (far, w) = Q.product_blocks(m, Pole(), level=2,
                                           resolution=res)
    ns = 198 if length == 6.4 else 192
    assert far[0].shape == (ns // 2, 1) and w.shape == (ns // 2, 192)
    assert np.all(far[0] > 0.0) and np.all(near[0] > 0.0)
    assert res["nodes"] == [near[0].size, w.size] and res["mirror"] == "s"


@pytest.mark.parametrize("kind, length", CASES)
def test_half_rule_pairing_equals_the_full_rule(kind, length):
    """The six default test functions (the seeded random one carries sine
    modes) and their P images against the blow-up density, on the half
    rule through their even parts and on the completed full rule as
    they are: equal to 1e-13 of the largest integral."""
    m = _product(kind, length)
    n = m.n
    s = (n - 4.0) / (n - 2.0)

    def densities(g, ricci_sq):
        return (np.log(g), ricci_sq) if n == 4 else (g ** s, g ** s * ricci_sq)

    fns = verify.default_test_functions(m)
    assert np.any(F.coefficients_of(fns[-1])[2::2] != 0.0)
    t_main, t_ricci, resolution = verify._paired_integrals(m, 2, fns,
                                                           densities)
    assert resolution["mirror"] == "s"

    p_fns = [apply_P(m, phi) for phi in fns]
    k = len(fns)
    blocks, _ = verify._blowup_density(m, 2)
    totals = 0.0
    for points, wq, g, ricci_sq in blocks:
        full, (w2, g2, r2) = _completed(Pole(), points, 0.5 * wq, g,
                                        ricci_sq)
        totals = totals + F.pair(p_fns + fns, np.stack(
            [w2 * d for d in densities(g2, r2)], axis=-1), *full)
    for got, want in ((t_main, totals[0, :k]), (t_ricci, totals[1, k:])):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("kind, length", CASES)
@pytest.mark.parametrize("s0", [0.0, 1.0])
def test_integrand_odd_in_s_sees_the_full_rule(kind, length, s0):
    """2 + sin(k ds) (1 + cos(chi)), with ds = s - s0 and k = 2 pi / l,
    is odd about the pole: its integral is twice the volume, which the
    completed rule gives (the level-2 rule's error reads at most 8.2e-10,
    on S1xS2 at l = 6.4) and the half rule alone misses by the odd
    part."""
    m = _product(kind, length)
    pole = Pole(1, s0)

    def fn(s, chi):
        return 2.0 + np.sin(2.0 * math.pi * (s - s0) / length) * (
            1.0 + np.cos(chi))

    got = Q.product_singular_integral(m, fn, pole, level=2)
    want = 0.0
    half = 0.0
    for points, w in Q.product_blocks(m, pole, level=2):
        full, (w2,) = _completed(pole, points, 0.5 * w)
        want += float(np.sum(w2 * fn(*full)))
        half += float(np.sum(w * fn(*points)))
    assert abs(got - want) <= 1e-13 * abs(want)
    assert math.isclose(got, 2.0 * m.volume, rel_tol=2e-9)
    assert abs(half - 2.0 * m.volume) > 1e-2 * m.volume
