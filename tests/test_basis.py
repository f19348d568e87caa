"""The polar Gauss-Jacobi rule built from the zonal recurrence."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

from conformal_lab.basis import ModeBasis, zonal_polynomials

NODE_COUNTS = (1, 2, 3, 16, 25, 37)
# counts where a Newton start off by half a root spacing would land on a
# neighbouring root; degree_max 240 gives 361 nodes
LARGE_COUNTS = (100, 241, 361)


def _rule(d, nq):
    return ModeBasis.for_sphere(d, 0, nodes=nq).polar_rule()


@pytest.mark.parametrize("nq", NODE_COUNTS)
def test_rule_on_the_three_sphere_is_chebyshev(nq):
    # weight (1 - t^2)^(1/2): Gauss-Chebyshev of the second kind
    t, w = _rule(3, nq)
    theta = np.arange(nq, 0, -1) * math.pi / (nq + 1)
    assert_allclose(t, np.cos(theta), rtol=2e-14, atol=2e-14)
    assert_allclose(w, math.pi / (nq + 1) * np.sin(theta) ** 2, rtol=2e-14)


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("nq", NODE_COUNTS)
def test_rule_gram_matrix_is_identity(d, nq):
    # p_k p_l has degree <= 2 nq - 2, so the rule integrates it exactly
    t, w = _rule(d, nq)
    (p,) = zonal_polynomials(d, nq - 1, t, order=0)
    gram = p.T @ (w[:, None] * p)
    assert np.max(np.abs(gram - np.eye(nq))) < 2e-14


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("nq", NODE_COUNTS)
def test_rule_matches_scipy(d, nq):
    t, w = _rule(d, nq)
    a = (d - 2) / 2.0
    t_ref, w_ref = roots_jacobi(nq, a, a)
    assert_allclose(t, t_ref, rtol=0, atol=2e-12)
    assert_allclose(w, w_ref, rtol=2e-12)


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("nq", NODE_COUNTS + LARGE_COUNTS)
def test_rule_nodes_are_symmetric_and_read_only(d, nq):
    t, w = _rule(d, nq)
    assert np.array_equal(t, -t[::-1])
    assert np.all(np.diff(t) > 0)
    assert not t.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("nq", NODE_COUNTS + LARGE_COUNTS)
def test_rule_nodes_are_roots_to_rounding(d, nq):
    # the polishing Newton step on p_nq takes the phase step's nodes
    # (at most 4e-9 rad off) to the roots within rounding
    t, _ = _rule(d, nq)
    p, dp = zonal_polynomials(d, nq, t, order=1)
    assert np.max(np.abs(p[:, nq] / dp[:, nq])) < 2e-16


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("nq", LARGE_COUNTS)
def test_large_rules_find_every_root_once(d, nq):
    """Each node is scipy's root of its own index, so the roots are
    distinct and increasing: none found twice, none missed (measured
    2.2e-16 off).  The weights still make the Gram matrix the identity
    (measured 2.7e-14 off); scipy's own weights, 5.8e-10 off the closed
    form at 361 nodes on S^3, cannot check them here."""
    t, w = _rule(d, nq)
    a = (d - 2) / 2.0
    t_ref, _ = roots_jacobi(nq, a, a)
    assert np.all(np.diff(t) > 0)
    nearest = np.argmin(np.abs(t[:, None] - t_ref[None, :]), axis=1)
    assert np.array_equal(nearest, np.arange(nq))
    assert_allclose(t, t_ref, rtol=0, atol=2e-15)
    (p,) = zonal_polynomials(d, nq - 1, t, order=0)
    gram = p.T @ (w[:, None] * p)
    assert np.max(np.abs(gram - np.eye(nq))) < 1e-13


@pytest.mark.parametrize("fourier_max", [0, 1, 3, 8])
def test_circle_jets_match_cos_and_sin(fourier_max):
    """The recurrence tables equal amp cos(k w s) and amp sin(k w s) and
    their first two derivatives, taken directly, to 4e-14 of each
    table's scale (amp (k w)^i for the i-th derivative)."""
    length = 2.0 * math.pi * 1.3
    b = ModeBasis.for_product("product-S1xS2", 2, fourier_max, length)
    s = np.linspace(-length, length, 41)
    om = 2.0 * math.pi / length
    amp = math.sqrt(2.0 / length)
    k = np.arange(1, fourier_max + 1)
    th = om * k * s[:, None]
    # d/ds turns cos into -sin and sin into cos: a quarter turn back
    waves = (np.cos(th), np.sin(th), -np.cos(th), -np.sin(th))
    for i, got in enumerate(b.circle_jets(s)):
        want = np.zeros_like(got)
        want[:, 0] = 1.0 / math.sqrt(length) if i == 0 else 0.0
        want[:, 1::2] = amp * (om * k) ** i * waves[-i % 4]
        want[:, 2::2] = amp * (om * k) ** i * waves[(1 - i) % 4]
        scale = amp * max(1.0, om * fourier_max) ** i
        np.testing.assert_allclose(got, want, rtol=0, atol=4e-14 * scale)
    np.testing.assert_array_equal(b.circle_values(s), b.circle_jets(s)[0])


@pytest.mark.parametrize("basis", [
    ModeBasis.for_sphere(5, 24),
    ModeBasis.for_product("product-S1xS2", 16, 8, 2.0 * math.pi)])
def test_laplacian_eigenvalues_are_one_read_only_table(basis):
    """Built once per basis, as the sum of the factors' eigenvalues."""
    lam = basis.neg_laplacian_eigenvalues()
    assert lam is basis.neg_laplacian_eigenvalues()
    assert not lam.flags.writeable and lam.shape == basis.mode_shape
    assert np.array_equal(lam, basis.circle_factor_eigenvalues()[:, None]
                          + basis.sphere_factor_eigenvalues()[None, :])
