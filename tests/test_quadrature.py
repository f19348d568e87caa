import math

import numpy as np

from conformal_lab import quadrature as Q
from conformal_lab.geometry import Pole


def _sphere_columns(theta):
    theta = np.asarray(theta)
    return np.stack([np.ones_like(theta), 2.0 + np.cos(theta),
                     1.0 / np.sin(0.5 * theta)], axis=-1)


def _product_columns(s, chi):
    r = np.hypot(s, chi)
    return np.stack([np.ones_like(r), 2.0 + np.cos(s) * np.cos(chi),
                     1.0 / r], axis=-1)


def test_column_integrand_equals_scalar_calls(sphere5, s1xs2):
    cases = [(sphere5, _sphere_columns, Q.sphere_zonal_integral, Pole()),
             (s1xs2, _product_columns, Q.product_singular_integral,
              Pole(1, 0.0))]
    for m, columns, integral, pole in cases:
        got = integral(m, columns, pole, level=1)
        assert got.shape == (3,)
        for k in range(3):
            want = integral(m, lambda *pts: columns(*pts)[..., k], pole,
                            level=1)
            assert isinstance(want, float)
            assert abs(got[k] - want) <= 1e-14 * abs(want)
    # the constant column integrates to the volume (level-1 error 6e-10)
    assert math.isclose(got[0], s1xs2.volume, rel_tol=1e-8)


def test_nan_at_a_zero_weight_node_poisons_the_integral(s1xs2):
    m, pole = s1xs2, Pole(1, 0.0)
    r0 = 0.125 * min(0.5 * m.length, m.radius * math.pi)
    blocks = []

    def fn(s, chi):  # the far rectangle arrives as an open mesh
        vals = np.ones(np.broadcast(s, chi).shape)
        blocks.append(vals.size)
        if len(blocks) == 2:  # the far rectangle: its cut-off is 0 for r < r0
            rr = np.hypot(s - pole.s0, m.radius * chi)
            i = np.unravel_index(np.argmin(rr), rr.shape)
            assert rr[i] < r0
            vals[i] = np.nan
        return vals

    res = {}
    assert math.isnan(Q.product_singular_integral(m, fn, pole, level=1,
                                                  resolution=res))
    assert blocks == res["nodes"]
