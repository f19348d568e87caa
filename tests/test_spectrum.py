import numpy as np

from conformal_lab.geometry import catalog_build
from conformal_lab.spectrum import lambda1_L, paneitz_spectrum_check


def test_lambda1_values(sphere5, s1xs2):
    assert lambda1_L(sphere5) == 20.0
    assert lambda1_L(s1xs2) == 2.0


def test_lambda1_positive_across_catalog(sphere3, sphere4, sphere5, s1xs2,
                                         s1xs3):
    for m in (sphere3, sphere4, sphere5, s1xs2, s1xs3):
        assert lambda1_L(m) > 0


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
        assert sum(mu for _, mu in s.eigenvalues) \
            == int(np.sum(m.basis.multiplicities()))


def test_summary_independent_of_grid_resolution():
    a = catalog_build("sphere", 5, {}, {"degree_max": 10, "sphere_nodes": 11})
    b = catalog_build("sphere", 5, {}, {"degree_max": 10, "sphere_nodes": 40})
    sa = paneitz_spectrum_check(a)
    sb = paneitz_spectrum_check(b)
    assert sa.eigenvalues == sb.eigenvalues
