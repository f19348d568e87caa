import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conformal_lab import fields as F
from conformal_lab.errors import ZeroFunctionError
from conformal_lab.geometry import catalog_build
from conformal_lab.spectrum import (lambda1_L, minimize_quotient_subspace,
                                    paneitz_spectrum_check, yamabe_quotient)


def test_lambda1_values(sphere5, s1xs2):
    assert lambda1_L(sphere5) == 20.0
    assert lambda1_L(s1xs2) == 2.0


def test_lambda1_positive_across_catalog(sphere3, sphere4, sphere5, s1xs2,
                                         s1xs3):
    for m in (sphere3, sphere4, sphere5, s1xs2, s1xs3):
        assert lambda1_L(m) > 0


def test_quotient_of_constants(sphere5):
    got = yamabe_quotient(sphere5, sphere5.constant(1.0))
    assert_allclose(got, 20.0 * math.pi ** (3 * 2 / 5.0), rtol=1e-10)


def test_quotient_scale_invariance(sphere5, rng):
    phi = F.random_bandlimited(sphere5.basis, rng, degree=8)
    q1 = yamabe_quotient(sphere5, phi)
    q2 = yamabe_quotient(sphere5, phi * 4.2)
    assert abs(q1 - q2) < 1e-12 * abs(q1)


def test_quotient_rejects_zero(sphere5):
    zero = F.field_from_grid(sphere5.basis,
                             np.zeros(sphere5.basis.grid_shape))
    with pytest.raises(ZeroFunctionError):
        yamabe_quotient(sphere5, zero)


def test_quotient_minimization_sandwich(sphere5):
    """Descent over a 20-mode subspace lands between the computable
    lower bound and (up to descent slack) the constant-function value."""
    res = minimize_quotient_subspace(sphere5, n_modes=20, steps=12000, seed=3)
    assert res["value"] >= res["lower_bound"] - 1e-9
    assert res["value"] <= res["upper_bound"] * (1.0 + 1e-3)


def test_spectrum_claims_sphere5(sphere5):
    s = paneitz_spectrum_check(sphere5)
    assert s.smallest_positive == (105.0 / 16.0, 1)
    assert s.largest_negative is None
    assert s.extremal_simple
    assert s.extremal_sign_definite
    assert s.ordering_holds
    assert s.kernel_dimension == 0
    lo, hi = s.eigenfunction_range
    assert lo > 0 and hi > 0


def test_spectrum_claims_sphere3(sphere3):
    s = paneitz_spectrum_check(sphere3)
    assert s.largest_negative == (-15.0 / 16.0, 1)
    assert s.extremal_simple
    assert s.extremal_sign_definite
    assert s.ordering_holds  # every positive eigenvalue exceeds 15/16


def test_kernel_is_constants_on_s1xs3(s1xs3):
    s = paneitz_spectrum_check(s1xs3)
    assert s.kernel_dimension == 1
    assert s.kernel_is_constants


def test_multiplicities_sum_to_mode_count(sphere5, s1xs3):
    for m in (sphere5, s1xs3):
        s = paneitz_spectrum_check(m)
        assert s.mode_count == int(np.sum(m.basis.multiplicities()))


def test_summary_independent_of_grid_resolution():
    a = catalog_build("sphere", 5, {}, {"degree_max": 10, "sphere_nodes": 11})
    b = catalog_build("sphere", 5, {}, {"degree_max": 10, "sphere_nodes": 40})
    sa = paneitz_spectrum_check(a)
    sb = paneitz_spectrum_check(b)
    assert sa.eigenvalues == sb.eigenvalues
