import numpy as np

from conformal_lab.geometry import catalog_build
from conformal_lab.green import green_field
from conformal_lab.operators import build_symbol
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


def test_zero_modes_are_read_against_the_curvature_not_the_band():
    """On S1(0.5) x S2 the band top makes max|P| about 1e8, so a threshold
    of 1e-8 max|P| called the constant mode 0.5625 a zero mode; against
    the curvature scale it is not, and G_P exists."""
    m = catalog_build("product-S1xS2", None, {"length": 0.5},
                      {"degree_max": 16, "fourier_max": 8})
    assert build_symbol(m, "P").flat[0] == 0.5625
    assert paneitz_spectrum_check(m).kernel_dimension == 0
    assert green_field(m, "P").operator == "P"
