import math

import numpy as np
import pytest

from conformal_lab import quadrature as Q
from conformal_lab.geometry import Pole
from conformal_lab.green import GreenField, green_field, green_pair


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
    cut-off weight is 0, makes ``green_pair`` NaN: every node of both
    mirror sides takes part."""
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
        if len(calls) == 3:  # the far rectangle: its cut-off is 0 for r < r0
            rr = np.hypot(s - pole.s0, m.radius * chi)
            i = np.unravel_index(np.argmin(rr), rr.shape)
            assert rr[i] < r0
            vals[i] = np.nan
        return vals

    monkeypatch.setattr(GreenField, "values_at", poisoned)
    assert math.isnan(green_pair(gf, m.constant(1.0), level=1))
    near, far = res["nodes"]
    assert calls == [near, near, far, far]  # each half block at s and 2 s0 - s
