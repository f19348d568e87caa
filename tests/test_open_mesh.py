"""Tensor point sets stay open meshes.

Points on a product given as an s column (Ns, 1) and a chi row (1, Nx)
are tabulated once per distinct coordinate and summed per axis.  Every
layer must give what the same points give materialized to the full
shape, and the far quadrature block must reach the basis tables at
Ns + Nx points, not Ns * Nx, and there as value tables only.
"""

import math

import numpy as np
import pytest

from conformal_lab import basis, verify
from conformal_lab import fields as F
from conformal_lab import quadrature as Q
from conformal_lab.green import green_eigen_expansion
from conformal_lab.verify import run_suite

PRODUCTS = ["s1xs2", "s1xs3"]
RTOL = 1e-13


def _mesh(m):
    """An open mesh off the grid: an s column and a chi row."""
    s = np.linspace(-0.6 * m.length, 0.9 * m.length, 23)[:, None]
    chi = np.linspace(0.05, math.pi - 0.05, 19)[None, :]
    return s, chi


def _close(got, want):
    """Equal shapes, and values within RTOL of the largest one."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=RTOL * np.max(np.abs(want)))


def _close_jets(got, want):
    for a, b in zip((got[0], *got[1]), (want[0], *want[1])):
        _close(a, b)
    assert got[2].keys() == want[2].keys()
    for k in want[2]:
        _close(got[2][k], want[2][k])


@pytest.mark.parametrize("name", PRODUCTS)
def test_evaluate_of_a_stacked_sequence(name, request, rng):
    m = request.getfixturevalue(name)
    b = m.basis
    stacks = [F.sup_normalized(b, [F.random_modes(b, rng, 5, 3)
                                   for _ in range(3)]) for _ in range(2)]
    mesh = _mesh(m)
    got = F.evaluate(stacks, *mesh)
    assert got.shape == (3, 23, 19, 2)
    _close(got, F.evaluate(stacks, *np.broadcast_arrays(*mesh)))


@pytest.mark.parametrize("name", PRODUCTS)
def test_frame_jets(name, request, rng):
    m = request.getfixturevalue(name)
    f = F.random_bandlimited(m.basis, rng, degree=6, fourier=4)
    mesh = _mesh(m)
    _close_jets(F.frame_jets(f, *mesh),
                F.frame_jets(f, *np.broadcast_arrays(*mesh)))


@pytest.mark.parametrize("name", PRODUCTS)
def test_image_kernel_value_and_log_jets(name, request):
    m = request.getfixturevalue(name)
    kernel = green_eigen_expansion(m, "L").kernel
    ds, chi = _mesh(m)
    ds = ds - 0.2 * m.length  # a mesh in pole coordinates
    full = np.broadcast_arrays(ds, chi)
    _close(kernel.value(ds, chi), kernel.value(*full))
    _close_jets(kernel.log_jets(0.5, ds, chi), kernel.log_jets(0.5, *full))


def test_paneitz_image_kernel_value(s1xs2):
    """S1xS3 (n = 4) has no G_P: P annihilates the constants there."""
    kernel = green_eigen_expansion(s1xs2, "P").kernel
    ds, chi = _mesh(s1xs2)
    ds = ds - 0.2 * s1xs2.length
    _close(kernel.value(ds, chi), kernel.value(*np.broadcast_arrays(ds, chi)))


@pytest.mark.parametrize("name, suite", [("s1xs2", "weak-identity"),
                                         ("s1xs3", "4d-identity")])
def test_identity_integrals(name, suite, request, monkeypatch):
    """The weak (n = 3) and log-kernel (n = 4) identity integrals of the
    graded pass, block by block, with the far block's points as given or
    materialized."""
    m = request.getfixturevalue(name)
    blocks = Q.product_blocks
    pair = F.pair

    def run(materialize):
        got = []

        def given(*args, **kw):
            rule = blocks(*args, **kw)
            if materialize:
                rule = [(np.broadcast_arrays(*pts), w) for pts, w in rule]
            return rule

        def recorded(*args):
            got.append(pair(*args))
            return got[-1]

        monkeypatch.setattr(verify, "_DENSITIES", {})
        monkeypatch.setattr(Q, "product_blocks", given)
        monkeypatch.setattr(F, "pair", recorded)
        run_suite(suite, m)
        assert len(got) == 2  # the near patch and the far rectangle
        return np.array(got)

    _close(run(False), run(True))


def _sizes(monkeypatch, names):
    """The point count of every call of the ``ModeBasis`` methods
    ``names``, by name."""
    sizes = {}
    for name in names:
        orig = getattr(basis.ModeBasis, name)

        def count(self, x, name=name, orig=orig):
            sizes[name].append(np.size(x))
            return orig(self, x)

        sizes[name] = []
        monkeypatch.setattr(basis.ModeBasis, name, count)
    return sizes


def test_the_far_block_is_tabulated_per_axis(s1xs2, monkeypatch):
    """One weak-identity pass tabulates the ds > 0 half of the 192 x 192
    far rectangle at 96 s and 192 chi values: no table reaches its
    18,432 points.  The pairing needs values only, so no derivative
    table is built at the quadrature nodes."""
    sizes = _sizes(monkeypatch, ("polar_values", "circle_values",
                                 "polar_jets", "circle_jets"))
    report = run_suite("weak-identity", s1xs2)
    near, far = report.resolution["nodes"]
    assert far == 96 * 192
    assert sorted(sizes["polar_values"]) == [1, 192, near]
    assert sorted(sizes["circle_values"]) == [1, 96, near]
    for name in ("polar_jets", "circle_jets"):
        assert not {near, 96, 192} & set(sizes[name]), name
