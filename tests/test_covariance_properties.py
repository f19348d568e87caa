"""Property tests of the conformal covariance laws over drawn factors.

Each example draws a conformal factor e^{2w}, w a zonal field of degree
at most 3 scaled to sup |w| in [0.01, 0.2], and a seed for the test
functions the law pairs; the law's relative residual must stay at
rounding level.  The draws are derandomized, so every run tests the same
examples.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conformal_lab import fields as F
from conformal_lab.geometry import FieldFactor
from conformal_lab.verify import (_law_bilinear, _law_pointwise_4d,
                                  _law_q_transform_4d)

DRAWS = settings(max_examples=10, derandomize=True, deadline=None,
                 database=None)

factors = st.tuples(
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),  # degrees 0..3
    st.floats(0.01, 0.2))
seeds = st.integers(0, 2 ** 32 - 1)


def drawn_factor(m, coefficients, amplitude) -> FieldFactor:
    c = np.zeros(m.basis.mode_shape)
    c[0, :len(coefficients)] = coefficients
    w = F.synthesize(m.basis, c)
    top = float(np.max(np.abs(w.grid_values)))
    assume(top > 1e-6)
    return FieldFactor(m, w * (amplitude / top))


@pytest.mark.parametrize("backend", ["sphere3", "sphere5"])
def test_bilinear_covariance_holds_for_drawn_factors(request, backend):
    m = request.getfixturevalue(backend)

    @DRAWS
    @given(factors, seeds)
    def law_holds(drawn, seed):
        factor = drawn_factor(m, *drawn)
        rng = np.random.default_rng(seed)
        assert abs(_law_bilinear(m, rng, factor)) <= 1e-8

    law_holds()


@pytest.mark.parametrize("law", [_law_pointwise_4d, _law_q_transform_4d])
def test_4d_covariance_holds_for_drawn_factors(sphere4, law):
    @DRAWS
    @given(factors, seeds)
    def law_holds(drawn, seed):
        factor = drawn_factor(sphere4, *drawn)
        rng = np.random.default_rng(seed)
        assert abs(law(sphere4, rng, factor)) <= 1e-8

    law_holds()
