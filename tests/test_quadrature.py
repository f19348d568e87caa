import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from conformal_lab import quadrature as Q
from conformal_lab.geometry import Pole
from conformal_lab.green import GreenField, green_field, green_pair


@pytest.mark.parametrize("order", [6, 10])
def test_gauss_panels_take_the_legendre_rule(order):
    """One panel over [-1, 1] is the Gauss-Legendre rule, which the panels
    take from the basis's Golub-Welsch rule of weight 1 (weights read
    1.3e-14 off scipy's at order 10; numpy's leggauss reads 1.5e-14)."""
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


@pytest.mark.parametrize("fixture, rtol", [
    ("sphere5", 1e-14),  # Gauss panels integrate sin^4 exactly
    ("s1xs2", 2e-9),  # the blended product rule: level-1 error 6.4e-10
])
def test_weights_sum_to_the_volume(fixture, rtol, request):
    """The weights of ``sphere_blocks`` and of the half ``product_blocks``
    rule (doubled weights on ds > 0) sum to the volume."""
    m = request.getfixturevalue(fixture)
    rule = Q.product_blocks if m.is_product else Q.sphere_blocks
    total = sum(float(np.sum(w)) for _, w in rule(m, Pole(), level=1))
    assert math.isclose(total, m.volume, rel_tol=rtol)


def test_nan_at_a_zero_weight_node_poisons_the_integral(s1xs2, monkeypatch):
    """A NaN kernel value at the far-rectangle node nearest the pole, whose
    cut-off weight is 0, makes ``green_pair`` NaN: every node takes part.
    The untransported kernel is even about its pole, so each half block
    is evaluated once and its values serve both mirror sides."""
    m, pole = s1xs2, Pole(1, 0.0)
    r0 = 0.125 * min(0.5 * m.length, m.radius * math.pi)
    gf = green_field(m, "L", pole)
    res = {}
    Q.product_blocks(m, pole, level=1, resolution=res)
    calls = []
    values_at = GreenField.values_at

    def poisoned(self, s, chi):  # the far rectangle arrives as an open mesh
        vals = np.array(values_at(self, s, chi))
        calls.append(vals.size)
        if len(calls) == 2:  # the far rectangle: its cut-off is 0 for r < r0
            rr = np.hypot(s - pole.s0, m.radius * chi)
            i = np.unravel_index(np.argmin(rr), rr.shape)
            assert rr[i] < r0
            vals[i] = np.nan
        return vals

    monkeypatch.setattr(GreenField, "values_at", poisoned)
    assert math.isnan(green_pair(gf, m.constant(1.0), level=1))
    near, far = res["nodes"]
    assert calls == [near, far]  # once per half block, for both sides
