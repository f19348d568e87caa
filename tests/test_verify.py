import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conformal_lab import fields as F
from conformal_lab import geometry, green, operators, verify
from conformal_lab import quadrature as Q
from conformal_lab.errors import (HypothesisFailError, KernelError,
                                  UnsupportedDimensionError)
from conformal_lab.geometry import (FieldFactor, ManifoldModel, Pole,
                                    catalog_build)
from conformal_lab.spectrum import paneitz_spectrum_check
from conformal_lab.verify import (SUITES, check_4d_identity, check_covariance,
                                  check_green_compare, check_mass,
                                  check_sign_theorems, check_spectrum_claims,
                                  check_total_q, check_weak_identity,
                                  default_test_functions, run_suite)

from random_fields import random_bandlimited


# ------------------------------------------------------------ weak identity

def test_weak_identity_sphere5(sphere5):
    report = check_weak_identity(sphere5, level=2)
    assert report.passed
    main = [c for c in report.checks if c.law == "weak-identity"]
    assert len(main) == 6
    assert all(abs(c.residual) < 1e-10 for c in main)


def test_weak_identity_sphere3(sphere3):
    report = check_weak_identity(sphere3, level=2)
    assert report.passed


def test_weak_identity_product_converges(s1xs2):
    worst = []
    for level in (0, 1, 2):
        report = check_weak_identity(s1xs2, level=level)
        assert report.passed
        worst.append(max(abs(c.residual) for c in report.checks
                         if c.law == "weak-identity"))
    assert worst[0] > worst[1] > worst[2]
    assert worst[0] < 1e-2


@pytest.mark.parametrize("length", [0.5, 40.0])
def test_weak_identity_follows_the_circle_length(length):
    """The far rectangle's panels follow the cut-off band at every circle
    length: at level 2 the worst residual reads 4.0e-9 (l = 0.5) and
    2.4e-10 (l = 40); with 32 panels per axis whatever the length it
    read 1.7e-2 and 1.0e-2, failing the bound 1e-2."""
    m = catalog_build("product-S1xS2", None, {"length": length},
                      {"degree_max": 16, "fourier_max": 8})
    report = check_weak_identity(m)
    assert report.passed
    assert max(_weak_residuals(report)) < 1e-7


def _weak_residuals(report):
    return [abs(c.residual) for c in report.checks if c.law == "weak-identity"]


def test_weak_identity_sees_a_one_entry_symbol_mutation(sphere5, s1xs2,
                                                        monkeypatch):
    """Scaling one entry of the P table by 1 + 1e-6 must show: it fails the
    sphere identity (worst margin 2.3e-7 -> 100) and, inside the product
    bound, multiplies the worst product residual by about 2,900."""
    clean = max(_weak_residuals(check_weak_identity(s1xs2)))
    table = operators.build_symbol

    def mutated(m, operator):
        out = table(m, operator)
        if operator == "P":
            out = out.copy()
            out.flat[2] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(operators, "build_symbol", mutated)
    assert not check_weak_identity(sphere5).passed
    report = check_weak_identity(s1xs2)
    assert report.passed
    assert max(_weak_residuals(report)) >= 100.0 * clean


def test_weak_identity_sees_a_dropped_image(s1xs2, monkeypatch):
    """Without its j = +/-1 images the product G_L leaves a weak-identity
    residual of 1.21 against the bound 1e-2 (3.2e-10 with them).  The
    pair is dropped because the identities read the density on the
    ds > 0 half of the rule: an error odd in ds does not reach them,
    and ``test_parity_of_the_image_kernel`` catches a one-sided drop."""
    sums = green._ProductImageKernel._sums

    def without_first_images(self, ds, sin_half, jets):
        full = sums(self, ds, sin_half, jets)
        others = full[1] if jets else full
        cutoff, self.cutoff = self.cutoff, 0
        try:  # the j = +/-1 images are the j = 0 term one circle either way
            ds = np.asarray(ds, dtype=float)
            for shift in (self.ell, -self.ell):
                image = sums(self, ds + shift, sin_half, jets)
                if jets:  # the pole's own image of the shifted call
                    (p, r, s), _ = image
                    image = [p, p * r, p * r * r, p * s, p * r * s]
                others[:] = [f - i for f, i in zip(others, image)]
        finally:
            self.cutoff = cutoff
        return full

    monkeypatch.setattr(green._ProductImageKernel, "_sums",
                        without_first_images)
    report = check_weak_identity(s1xs2)
    assert not report.passed
    assert max(_weak_residuals(report)) > 100.0 * report.checks[0].tolerance


def test_weak_identity_rejects_dimension4(sphere4):
    with pytest.raises(UnsupportedDimensionError):
        check_weak_identity(sphere4)


class _IndefiniteModel(ManifoldModel):
    """A stand-in whose conformal Laplacian has a negative bottom."""

    @property
    def scalar_curvature(self):
        return -1.0


def test_hypothesis_gate_raises(sphere5):
    bad = _IndefiniteModel(sphere5.kind, sphere5.n, sphere5.radius,
                           sphere5.length, sphere5.basis)
    assert not paneitz_spectrum_check(bad).yamabe_positive
    with pytest.raises(HypothesisFailError):
        check_weak_identity(bad)


# ------------------------------------------------------------- 4d identity

def test_4d_identity_sphere(sphere4):
    report = check_4d_identity(sphere4, level=2)
    assert report.passed
    assert all(abs(c.residual) < 1e-8 for c in report.checks)


def test_4d_identity_product(s1xs3):
    report = check_4d_identity(s1xs3, level=1)
    assert report.passed


def test_4d_identity_rejects_other_dimensions(sphere5):
    with pytest.raises(UnsupportedDimensionError):
        check_4d_identity(sphere5)


# ----------------------------------------------------------------- total Q

def test_total_q_round_sphere(sphere4):
    report = check_total_q(sphere4)
    assert report.passed
    assert report.resolution["verdict"] == "EQUALITY"
    assert abs(report.resolution["total_q"] - 16 * math.pi ** 2) < 1e-8
    assert abs(report.resolution["defect"]) < 1e-10


def test_total_q_product_strict(s1xs3):
    report = check_total_q(s1xs3, level=1)
    assert report.passed
    assert report.resolution["verdict"] == "STRICT"
    assert abs(report.resolution["total_q"]) < 1e-10
    target = 16 * math.pi ** 2
    assert abs(report.resolution["defect"] - target) < 0.02 * target


def test_total_q_conformally_perturbed_sphere(sphere4, rng):
    """The total stays 16 pi^2 under random conformal perturbations."""
    target = 16 * math.pi ** 2
    for _ in range(5):
        w = random_bandlimited(sphere4.basis, rng, degree=3, amplitude=0.1)
        factor = FieldFactor(sphere4, w)
        report = check_total_q(sphere4, factor=factor, tolerance=1e-3)
        assert report.passed
        total = report.resolution["total_q"] + report.resolution["defect"]
        assert abs(total - target) < 1e-3 * target


def test_total_q_refuses_a_stacked_factor(sphere4, rng):
    """Each of two 0.1-sup factors gives int Q = 16 pi^2; stacked in one
    factor they would be summed into one total of twice that, a failed
    record, so the suite raises and names the trial count."""
    tables = [F.random_modes(sphere4.basis, rng, degree=3) for _ in range(2)]
    for w in tables:
        factor = FieldFactor(sphere4, F.sup_normalized(sphere4.basis, w, 0.1))
        assert check_total_q(sphere4, factor=factor, tolerance=1e-3).passed
    stacked = FieldFactor(sphere4,
                          F.sup_normalized(sphere4.basis, tables, 0.1))
    with pytest.raises(ValueError, match="stack of 2 trials"):
        check_total_q(sphere4, factor=stacked, tolerance=1e-3)


def test_total_q_integrand_takes_no_conformal_weight(sphere4, rng,
                                                      monkeypatch):
    """The conformal weights cancel in dimension four, so the defect
    density is built without evaluating the factor."""
    w = random_bandlimited(sphere4.basis, rng, degree=3, amplitude=0.1)
    factor = FieldFactor(sphere4, w)
    state = {"inside": False, "blocks": 0, "w_at_inside": 0}
    orig_w_at = FieldFactor.w_at
    orig_slabs = verify.blowup_slabs

    def counting_w_at(self, *points):
        state["w_at_inside"] += state["inside"]
        return orig_w_at(self, *points)

    def marking(gf, level, resolution=None):
        slabs = orig_slabs(gf, level, resolution)
        while True:
            state["inside"] = True
            block = next(slabs, None)
            state["inside"] = False
            if block is None:
                return
            state["blocks"] += 1
            yield block

    monkeypatch.setattr(FieldFactor, "w_at", counting_w_at)
    monkeypatch.setattr(verify, "blowup_slabs", marking)
    report = check_total_q(sphere4, factor=factor, tolerance=1e-3)
    assert report.passed
    assert state["blocks"] > 0
    assert state["w_at_inside"] == 0

# -------------------------------------------------------------- covariance

@pytest.mark.parametrize("fixture,laws", [
    ("sphere5", {"bilinear-covariance", "green-transport", "blowup-measure",
                 "difference-transport"}),
    ("sphere3", {"bilinear-covariance", "green-transport", "blowup-measure",
                 "difference-transport"}),
    ("sphere4", {"green-transport", "pointwise-covariance-4d",
                 "q-transform-4d", "defect-measure-4d"}),
])
def test_covariance_laws_pass_on_spheres(fixture, laws, request):
    m = request.getfixturevalue(fixture)
    report = check_covariance(m, trials=10, seed=0)
    assert report.passed
    assert {c.law for c in report.checks} == laws
    for c in report.checks:
        assert abs(c.residual) <= 1e-8, (c.law, c.residual)


def test_covariance_identity_factor_is_exact(sphere5):
    """With the trivial factor both routes coincide to rounding."""
    from conformal_lab.operators import (conformal_quadratic_form_E,
                                         quadratic_form_E)
    rng = np.random.default_rng(0)
    phi = random_bandlimited(sphere5.basis, rng, degree=6)
    psi = random_bandlimited(sphere5.basis, rng, degree=6)
    identity = FieldFactor(sphere5, sphere5.constant(0.0))
    lhs = conformal_quadratic_form_E(sphere5, identity, phi, psi)
    rhs = quadratic_form_E(sphere5, phi, psi)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_covariance_on_product(s1xs3, s1xs2):
    for m in (s1xs3, s1xs2):
        report = check_covariance(m, trials=5, seed=0)
        assert report.passed
        assert report.checks


@pytest.mark.parametrize("fixture,laws", [
    ("sphere5", {"bilinear-covariance"}),
    ("sphere4", {"pointwise-covariance-4d", "q-transform-4d"}),
])
def test_a_wrong_changed_ricci_fails_the_curvature_laws(fixture, laws,
                                                         request,
                                                         monkeypatch):
    """Scaling the Hessian of w by 1.5 in the changed metric's Ricci
    tensor fails every law that reads ``conformal_curvature``."""
    m = request.getfixturevalue(fixture)
    ricci = geometry.ricci_from_jets

    def mutated(m, grad, hess):
        return ricci(m, grad, {k: 1.5 * v for k, v in hess.items()})

    monkeypatch.setattr(geometry, "ricci_from_jets", mutated)
    report = check_covariance(m, trials=3, seed=0)
    failed = {c.law for c in report.checks if not c.passed}
    assert laws <= failed and not report.passed


# ------------------------------------------------------------ sign theorems

def test_sign_theorems_asserted_on_spheres(sphere3, sphere5):
    for m, want in ((sphere5, "POSITIVE"), (sphere3, "NEGATIVE")):
        report = check_sign_theorems(m)
        assert report.passed
        assert all(c.asserted for c in report.checks)
        assert all(f"verdict={want}" in c.detail for c in report.checks)


def test_sign_theorems_exploratory_on_s1xs2(s1xs2):
    """Q < 0 breaks the hypothesis ledger: record only, never assert."""
    report = check_sign_theorems(s1xs2)
    assert report.passed  # exploratory records cannot fail
    assert not any(c.asserted for c in report.checks)
    assert not report.hypotheses["q_nonnegative"]


def test_sign_theorems_record_kernel_obstruction(sphere5, s1xs2,
                                                 monkeypatch):
    def obstructed(*args, **kw):
        raise KernelError("zero mode")

    monkeypatch.setattr(verify, "green_field", obstructed)
    # under the theorems' hypotheses a kernel that cannot be built fails
    report = check_sign_theorems(sphere5)
    assert report.checks and not report.passed
    assert all(c.asserted and not c.passed for c in report.checks)
    assert all("KernelError: zero mode" in c.detail for c in report.checks)
    # where the hypotheses fail it stays an exploratory record
    report = check_sign_theorems(s1xs2)
    assert report.checks and report.passed
    assert not any(c.asserted for c in report.checks)
    assert all("KernelError: zero mode" in c.detail for c in report.checks)


def test_sign_theorems_propagate_other_errors(sphere5, monkeypatch):
    def broken(*args, **kw):
        raise RuntimeError("bug in transport")

    monkeypatch.setattr(verify, "green_field", broken)
    with pytest.raises(RuntimeError, match="bug in transport"):
        check_sign_theorems(sphere5)


# ------------------------------------------------------- quadrature passes

def _count_blocks(monkeypatch, name):
    """Record, per call of ``quadrature.<name>``, the point count of each
    node block of the rule it returns, as the caller takes it, and
    whether the block is an open mesh (a far slab of the product rule)."""
    calls = []
    orig = getattr(Q, name)

    def counting(*args, **kw):
        sizes = []
        calls.append(sizes)
        for pts, w in orig(*args, **kw):
            sizes.append((int(np.broadcast(*pts).size),
                          len(pts) == 2 and pts[0].shape[1] == 1))
            yield pts, w

    monkeypatch.setattr(Q, name, counting)
    return calls


def test_weak_identity_takes_one_pass_on_product(s1xs2, monkeypatch):
    calls = _count_blocks(monkeypatch, "pole_blocks")
    densities = []
    orig_density = green.blowup_density

    def counting_density(gf, *points):
        densities.append(int(np.broadcast(*points).size))
        return orig_density(gf, *points)

    monkeypatch.setattr(green, "blowup_density", counting_density)
    report = check_weak_identity(s1xs2, level=1)
    assert report.passed
    assert len(calls) == 1
    sizes = [size for size, _ in calls[0]]
    assert len(sizes) > 2 and max(sizes) <= Q.SLAB_NODES
    assert densities == sizes  # one density pass per slab


@pytest.mark.parametrize("suite, fixture, blocks", [
    ("weak-identity", "s1xs2", "product_blocks"),
    ("4d-identity", "s1xs3", "product_blocks"),
    ("total-q", "s1xs3", "product_blocks"),
    ("weak-identity", "sphere5", "sphere_blocks"),
    ("total-q", "sphere4", "sphere_blocks"),
])
def test_resolution_records_the_nodes_the_integrand_received(
        suite, fixture, blocks, request, monkeypatch):
    """The nodes of the graded rule, whose ``blocks`` the blow-up density
    of the suite is built on: on a sphere its one block, on a product the
    near patch and the far rectangle, each the sum of its slabs."""
    m = request.getfixturevalue(fixture)
    assert m.backend.circle == (blocks == "product_blocks")
    calls = _count_blocks(monkeypatch, "pole_blocks")
    report = run_suite(suite, m, {"level": 1})
    assert len(calls) == 1
    res = report.resolution
    if m.backend.circle:
        assert res["nodes"] == [sum(size for size, mesh in calls[0]
                                    if mesh == far) for far in (False, True)]
    else:
        assert res["nodes"] == [size for size, _ in calls[0]]
    assert res["graded_depth"] == 14
    if m.backend.circle:
        assert res["images"] == green.green_field(m, "L").cutoff > 0
        assert res["mirror"] == "s"  # the nodes of the ds > 0 half
    else:
        assert "images" not in res and "mirror" not in res


def test_4d_and_total_q_share_one_density(s1xs3, monkeypatch):
    """4d-identity then total-q on S1xS3 sum the image kernel once per
    slab of the level-2 rule, not twice, and the defect total-q reads
    from the identity's pass is the one it finds alone, bit for bit."""
    alone = check_total_q(s1xs3).resolution["defect"]
    monkeypatch.setattr(verify, "_DEFECTS", {})
    calls = []
    sums = green._ProductImageKernel._sums

    def counted(self, ds, chi, jets):
        calls.append(jets)
        return sums(self, ds, chi, jets)

    monkeypatch.setattr(green._ProductImageKernel, "_sums", counted)
    assert check_4d_identity(s1xs3).passed
    report = check_total_q(s1xs3)
    assert report.passed
    assert calls == [True] * len(list(Q.pole_blocks(s1xs3, Pole(),
                                                    level=2)))
    assert report.resolution["defect"] == alone


def test_total_q_alone_takes_one_pass(s1xs3, monkeypatch):
    """Total-q with no identity run before it takes one blow-up pass of
    its own, one image sum per slab, and leaves its defect for the next
    total-q, which sums the kernel no more."""
    calls = []
    sums = green._ProductImageKernel._sums

    def counted(self, ds, chi, jets):
        calls.append(jets)
        return sums(self, ds, chi, jets)

    monkeypatch.setattr(green._ProductImageKernel, "_sums", counted)
    first = check_total_q(s1xs3, level=1)
    slabs = len(list(Q.pole_blocks(s1xs3, Pole(), level=1)))
    assert first.passed and calls == [True] * slabs
    again = check_total_q(s1xs3, level=1)
    assert len(calls) == slabs
    assert again.resolution["defect"] == first.resolution["defect"]
    assert list(verify._DEFECTS) == [(s1xs3, 1)]


def test_weak_identity_holds_one_slab_of_temporaries(s1xs2):
    """At level 3 on S1(2pi) x S2 the half rule has 153,216 nodes.  Built
    and paired slab by slab, with no density kept, the weak-identity
    pass's traced peak stays under 2 MB (1.06 MB), and it leaves under
    0.1 MB behind.  With its blow-up density cached for total-q it
    peaked at 5.9 MB and left 5.0 MB; with the kernel jets, blow-up Ricci
    and pairing held for the whole rule at once it peaked above 21 MB.
    The first pass at level 1 builds the ledger and the tables the level
    does not change, so the traced pass allocates only what the level
    costs."""
    check_weak_identity(s1xs2, level=1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert check_weak_identity(s1xs2, level=3).passed
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 2e6, f"peak {(peak - start) / 1e6:.2f} MB"
    assert left - start < 1e5, f"left {(left - start) / 1e6:.2f} MB"


def test_pairing_takes_a_few_point_vectors(s1xs2):
    """The twelve identity fields (six even parts, six P-applied) paired
    with a two-column density on one 4,080-node near slab of the level-2
    rule: one density column at a time, the pairing peaks at 20 point
    vectors; a (points, columns, degrees) product of both columns with
    the polar table took 27."""
    points, wq, g, ricci_sq = next(green.blowup_slabs(
        green.green_field(s1xs2, "L"), 2))
    size = np.broadcast(*points).size
    assert size == 4080
    density = np.stack([wq * g, wq * ricci_sq], axis=-1)
    evens = [F.even_part(phi) for phi in default_test_functions(s1xs2)]
    fns = [operators.apply_P(s1xs2, phi) for phi in evens] + evens
    assert len(fns) == 12
    F.pair(fns, density, *points)  # the tables of the band are cached
    tracemalloc.start()
    try:
        F.pair(fns, density, *points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 8 * size, f"peak {peak / (8 * size):.1f} point vectors"


# ----------------------------------------------------------------- spectrum

def test_spectrum_suite(sphere5, sphere3, s1xs3, s1xs2):
    for m in (sphere5, sphere3):
        report = check_spectrum_claims(m)
        assert report.passed
        laws = {c.law for c in report.checks}
        assert {"extremal-simple", "extremal-sign-definite",
                "modulus-ordering", "kernel-trivial"} <= laws
    r4 = check_spectrum_claims(s1xs3)
    assert r4.passed
    assert any(c.law == "kernel-vs-constants" and c.passed for c in r4.checks)
    r2 = check_spectrum_claims(s1xs2)
    assert r2.passed
    assert any(not c.asserted for c in r2.checks)


# ------------------------------------------------------------ green compare

def test_green_compare_suite(sphere5, sphere3):
    for m in (sphere5, sphere3):
        report = check_green_compare(m)
        assert report.passed
        assert all("equality=True" in c.detail for c in report.checks)


def test_image_counts_in_theorem_resolution(s1xs2, sphere5):
    """One G_P image count per pole on products, none on spheres."""
    images = green.green_field(s1xs2, "P").cutoff
    assert images == green.green_field(s1xs2, "L").cutoff == 9
    for report in (check_sign_theorems(s1xs2), check_green_compare(s1xs2)):
        res = report.resolution
        assert res["images"] == [images] * len(res["poles"])
    for report in (check_sign_theorems(sphere5), check_green_compare(sphere5)):
        assert "images" not in report.resolution


def test_theorem_hypotheses_gate_all_three_suites(sphere4, sphere5, s1xs2):
    ledger = paneitz_spectrum_check(sphere4)
    assert ledger.yamabe_positive and ledger.q > ledger.threshold
    # n = 4 alone makes the theorem checks exploratory
    assert not ledger.theorems_hold
    assert any(c.law == "spectrum-exploratory"
               for c in check_spectrum_claims(sphere4).checks)
    assert paneitz_spectrum_check(sphere5).theorems_hold
    assert not paneitz_spectrum_check(s1xs2).theorems_hold
    assert not any(c.asserted for c in check_green_compare(s1xs2).checks)
    assert all(c.asserted for c in check_green_compare(sphere5).checks)


def test_theorem_gate_does_not_depend_on_the_size_of_the_metric():
    """Q = 13.125 / a^4 on S^5(a) is 8.2e-13 at a = 2000, and eigenvalues
    there are about 1e-11 apart: Q > 0 and the simple extremal eigenvalue
    must still read so, with every theorem check asserted."""
    laws = {}
    for radius in (1.0, 1000.0, 2000.0):
        m = catalog_build("sphere", 5, {"radius": radius}, {"degree_max": 24})
        assert paneitz_spectrum_check(m).theorems_hold
        laws[radius] = {suite: [(c.law, c.asserted, c.passed)
                                for c in run_suite(suite, m).checks]
                        for suite in ("signs", "spectrum", "green-compare")}
    assert laws[1000.0] == laws[1.0] and laws[2000.0] == laws[1.0]
    assert all(asserted and passed for records in laws[1.0].values()
               for _, asserted, passed in records)


# --------------------------------------------------------------------- mass

def test_mass_suite(sphere5):
    report = check_mass(sphere5)
    assert report.passed
    assert {c.law for c in report.checks} == {
        "mass-expansion-base", "mass-integral-base",
        "mass-expansion-moebius", "mass-integral-moebius"}


def test_mass_report_states_its_rule(sphere5, monkeypatch):
    """The mass report's resolution holds the rule that the integral
    route summed over: on S^5 its one block, graded 14 times, with no
    image count and no mirror.  The base and the Moebius masses share
    that one pass, since the Moebius integral is the base one over
    rho_P(pole)^2."""
    green._mass_integral.cache_clear()
    calls = _count_blocks(monkeypatch, "pole_blocks")
    res = check_mass(sphere5).resolution
    assert len(calls) == 1
    assert res["nodes"] == [size for size, _ in calls[0]]
    assert res["graded_depth"] == 14
    assert "images" not in res and "mirror" not in res
    assert res["poles"] == [Pole(1).label()] and res["level"] == 2


# ---------------------------------------------------------------- reporting

def test_report_json_schema(sphere4):
    report = check_total_q(sphere4)
    data = json.loads(report.to_json())
    assert set(data) == {"suite", "backend", "checks", "hypotheses",
                         "resolution", "asserted_checks", "runtime_s"}
    for c in data["checks"]:
        assert {"eq", "residual", "tol", "pass", "asserted"} <= set(c)
    data = report.to_dict(include_runtime=False)
    assert "runtime_s" not in data


def test_reports_count_their_asserted_checks(sphere4, s1xs2):
    """S1xS2 has Q < 0, so its theorem suites assert nothing."""
    assert check_total_q(sphere4).to_dict()["asserted_checks"] == 1
    for suite in ("signs", "green-compare"):
        report = run_suite(suite, s1xs2).to_dict()
        assert report["checks"] and report["asserted_checks"] == 0, suite


def test_default_test_functions(sphere5, s1xs2):
    """The constant, the row's unit modes, and the band field: one scale
    of the row's mode envelope, at sup norm 1, the same on every call."""
    for m in (sphere5, s1xs2):
        fns = default_test_functions(m)
        assert len(fns) == 6
        assert float(np.max(np.abs(fns[0].grid_values - 1.0))) < 1e-12
        band = F.coefficients_of(fns[-1])
        envelope = F.mode_envelope(m.basis, m.backend.test_degree, 3)
        support = envelope > 0.0
        assert np.all(band[~support] == 0.0)
        ratio = band[support] / envelope[support]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-15)
        assert math.isclose(np.max(np.abs(fns[-1].grid_values)), 1.0,
                            rel_tol=1e-15)
        again = default_test_functions(m)
        assert all(np.array_equal(f.coefficients, g.coefficients)
                   for f, g in zip(fns, again))


@pytest.mark.parametrize("suite, backend", [("weak-identity", "s1xs2"),
                                            ("4d-identity", "s1xs3"),
                                            ("4d-identity", "sphere4")])
def test_identity_records_do_not_read_the_seed(suite, backend, request):
    """The identities draw nothing, so a job's records are the same at
    seeds 0 and 7."""
    m = request.getfixturevalue(backend)
    reports = [run_suite(suite, m, {"level": 1, "seed": seed})
               for seed in (0, 7)]
    records = [[c.to_dict() for c in r.checks] for r in reports]
    assert len(records[0]) >= 6 and records[0] == records[1]


def test_suite_registry_compatibility(sphere4, sphere5):
    assert run_suite("weak-identity", sphere4) is None
    assert run_suite("4d-identity", sphere5) is None
    assert run_suite("mass", sphere4) is None
    assert set(SUITES) == {"weak-identity", "4d-identity", "total-q",
                           "covariance", "signs", "spectrum",
                           "green-compare", "mass"}


# the backends of configs/full.json, in catalog order
FULL_BACKENDS = ("S3", "S4", "S5", "S6", "S7", "S1xS2", "S1xS3")

# where each suite runs on them: 36 (suite, backend) pairs of the 56
RUNS_ON = {
    "weak-identity": {"S3", "S5", "S6", "S7", "S1xS2"},
    "4d-identity": {"S4", "S1xS3"},
    "total-q": {"S4", "S1xS3"},
    "covariance": set(FULL_BACKENDS),
    "signs": {"S3", "S5", "S6", "S7", "S1xS2"},
    "spectrum": set(FULL_BACKENDS),
    "green-compare": {"S3", "S5", "S6", "S7", "S1xS2"},
    "mass": {"S5", "S6", "S7"},
}

GATED_CHECKS = {
    "weak-identity": check_weak_identity,
    "4d-identity": check_4d_identity,
    "total-q": check_total_q,
    "signs": check_sign_theorems,
    "green-compare": check_green_compare,
    "mass": check_mass,
}


def test_suite_table_is_the_only_gate():
    config = Path(__file__).resolve().parent.parent / "configs" / "full.json"
    catalog = json.loads(config.read_text())["catalog"]
    backends = dict(zip(FULL_BACKENDS, (
        catalog_build(r["kind"], r.get("n"), r.get("params"), r.get("basis"))
        for r in catalog)))
    assert len(backends) == len(catalog)
    assert sum(len(on) for on in RUNS_ON.values()) == 36
    assert set(RUNS_ON) == set(SUITES)
    assert set(GATED_CHECKS) == {s for s, on in RUNS_ON.items()
                                 if on != set(FULL_BACKENDS)}
    for suite, runs_on in RUNS_ON.items():
        for label, m in backends.items():
            on = label in runs_on
            assert verify.DECLARATIONS[suite].applies(m) == on, (suite, label)
            report = run_suite(suite, m, {"level": 1, "trials": 2})
            assert (report is not None) == on, (suite, label)
            if suite in GATED_CHECKS and not on:
                with pytest.raises(UnsupportedDimensionError):
                    GATED_CHECKS[suite](m)


def test_weak_identity_determinism(sphere5):
    r1 = check_weak_identity(sphere5, level=1)
    r2 = check_weak_identity(sphere5, level=1)
    assert [c.residual for c in r1.checks] == [c.residual for c in r2.checks]
