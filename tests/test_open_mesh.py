"""Tensor point sets stay open meshes.

Points on a product given as an s column (Ns, 1) and a chi row (1, Nx)
are tabulated once per distinct coordinate and summed per axis.  Every
layer must give what the same points give materialized to the full
shape, and each far quadrature slab must reach the basis tables at
Ns + Nx points, not Ns * Nx, and there as value tables only.
"""

import math

import numpy as np
import pytest

from conformal_lab import basis, green, verify
from conformal_lab import fields as F
from conformal_lab import quadrature as Q
from conformal_lab.geometry import Pole, catalog_build
from conformal_lab.green import green_field
from conformal_lab.verify import run_suite

RTOL = 1e-13


def _short(kind: str) -> str:
    """``product-S1xS2`` -> ``s1xs2``, the name of its shared fixture."""
    return kind.removeprefix("product-").lower()


@pytest.fixture(scope="module")
def product(request):
    """The product of kind ``request.param`` at the shared fixtures'
    length and basis."""
    return catalog_build(request.param, None, {"length": 2 * np.pi},
                         {"degree_max": 16, "fourier_max": 8})


# every circle product of the kind table, so a row added to it is checked
PRODUCT_KINDS = [kind for kind, row in basis.BACKENDS.items()
                 if row.circle]
PRODUCTS = pytest.mark.parametrize("product", PRODUCT_KINDS,
                                   ids=_short, indirect=True)


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


@PRODUCTS
def test_evaluate_of_a_stacked_sequence(product, rng):
    m = product
    b = m.basis
    stacks = [F.sup_normalized(b, [F.random_modes(b, rng, 5, 3)
                                   for _ in range(3)]) for _ in range(2)]
    mesh = _mesh(m)
    got = F.evaluate(stacks, *mesh)
    assert got.shape == (3, 23, 19, 2)
    _close(got, F.evaluate(stacks, *np.broadcast_arrays(*mesh)))


@PRODUCTS
def test_image_kernel_value_and_split_jets(product):
    m = product
    kernel = green_field(m, "L").kernel
    ds, chi = _mesh(m)
    ds = ds - 0.2 * m.length  # a mesh in pole coordinates
    full = np.broadcast_arrays(ds, chi)
    _close(kernel.value(ds, chi), kernel.value(*full))
    p0, pole, others = kernel.split_jets(ds, chi)
    p0_full, pole_full, others_full = kernel.split_jets(*full)
    _close_jets((p0, *pole), (p0_full, *pole_full))
    _close_jets(others, others_full)


def test_paneitz_image_kernel_value(s1xs2):
    """S1xS3 (n = 4) has no G_P: P annihilates the constants there."""
    kernel = green_field(s1xs2, "P").kernel
    ds, chi = _mesh(s1xs2)
    ds = ds - 0.2 * s1xs2.length
    _close(kernel.value(ds, chi), kernel.value(*np.broadcast_arrays(ds, chi)))


# the identity suite of each product kind
IDENTITY_JOBS = [(kind, "4d-identity" if 4 in basis.BACKENDS[kind].dims
                  else "weak-identity") for kind in PRODUCT_KINDS]


@pytest.mark.parametrize("kind, suite, length", [
    pytest.param(kind, suite, length, id="-".join(
        [_short(kind), suite] + ([] if length == 2 * math.pi
                                 else [f"{length:g}"])))
    for kind, suite in IDENTITY_JOBS for length in (2 * math.pi, 0.5, 40.0)])
def test_identity_integrals(kind, suite, length, monkeypatch):
    """The weak (n != 4) and log-kernel (n = 4) identity integrals of the
    graded pass, slab by slab, with the far slabs' points as given, open
    meshes against the full chi row, or materialized.  The two layouts
    sum the far images by different algorithms, a series on a mesh (to
    degree 247 at l = 0.5, 3 at l = 40) and one image at a time per
    point."""
    m = catalog_build(kind, None, {"length": length},
                      {"degree_max": 16, "fourier_max": 8})
    blocks = Q.pole_blocks
    pair = F.pair
    slabs = []

    def run(materialize):
        got = []

        def given(*args, **kw):
            rule = list(blocks(*args, **kw))
            slabs[:] = rule
            if materialize:
                rule = [(np.broadcast_arrays(*pts), w) for pts, w in rule]
            return rule

        def recorded(*args):
            got.append(pair(*args))
            return got[-1]

        monkeypatch.setattr(verify, "_DEFECTS", {})
        monkeypatch.setattr(Q, "pole_blocks", given)
        monkeypatch.setattr(F, "pair", recorded)
        run_suite(suite, m)
        assert len(got) == len(slabs)  # one pairing per slab
        return np.array(got)

    _close(run(False), run(True))
    far = [pts for pts, _ in slabs if pts[0].shape[1] == 1]
    assert len(far) > 1
    assert all(pts[1].shape[0] == 1 for pts in far)


@pytest.mark.parametrize("product, suite", IDENTITY_JOBS, ids=_short,
                         indirect=["product"])
def test_the_far_rectangle_takes_the_closed_form(product, suite,
                                                 monkeypatch):
    """In an identity pass the image kernel sums the other images of each
    far slab, an open mesh, as a series (``_mesh_sums``), once per slab,
    and runs its per-image loop (``_image_loop``) on the near patch's
    pointwise slabs only."""
    m = product
    kernel = green._ProductImageKernel
    loop, series = kernel._image_loop, kernel._mesh_sums
    calls = {"loop": [], "series": []}

    def counted_loop(self, u0, sin4, sums):
        calls["loop"].append((u0.shape, sums[0].shape))
        return loop(self, u0, sin4, sums)

    def counted_series(self, u0, x, sums):
        calls["series"].append((u0.shape, x.shape))
        return series(self, u0, x, sums)

    monkeypatch.setattr(kernel, "_image_loop", counted_loop)
    monkeypatch.setattr(kernel, "_mesh_sums", counted_series)
    monkeypatch.setattr(verify, "_DEFECTS", {})
    slabs = [pts for pts, _ in Q.pole_blocks(m, Pole(), level=2)]
    run_suite(suite, m)
    far = [pts for pts in slabs if pts[0].shape[1] == 1]
    near = [pts for pts in slabs if pts[0].shape[1] > 1]
    assert far and near
    assert calls["series"] == [(s.shape, chi.shape) for s, chi in far]
    assert calls["loop"] == [(s.shape, s.shape) for s, _ in near]


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
    far rectangle slab by slab, each at its s rows and the 192 chi
    values: no table reaches a far slab's node count, let alone the
    18,432 of the rectangle.  The near slabs are tabulated per point.
    The pairing needs values only, so no derivative table is built at
    the quadrature nodes."""
    slabs = list(Q.pole_blocks(s1xs2, Pole(), level=2))
    sizes = _sizes(monkeypatch, ("polar_values", "circle_values",
                                 "polar_jets", "circle_jets"))
    report = run_suite("weak-identity", s1xs2)
    far = [pts for pts, _ in slabs if pts[0].shape[1] == 1]
    near = [w.size for pts, w in slabs if pts[0].shape[1] > 1]
    assert report.resolution["nodes"] == [sum(near), 96 * 192]
    assert sum(pts[0].size for pts in far) == 96
    assert sorted(sizes["polar_values"]) == sorted(
        [1] + [192] * len(far) + near)
    assert sorted(sizes["circle_values"]) == sorted(
        [1] + [pts[0].size for pts in far] + near)
    for name in ("polar_jets", "circle_jets"):
        assert not {192, *near, *(pts[0].size for pts in far)} \
            & set(sizes[name]), name
