"""The covariance suite evaluates each law's trials as one stack.

Every law draws its trials in order and evaluates them together over a
leading trial axis.  The stacked residuals must be the ones the trials
give one at a time on the same random stream, a trial axis that slips
against the test functions must show in the law, and the basis
tabulation must not grow with the number of trials.
"""

import zlib

import numpy as np
import pytest

from conformal_lab import basis, fields, geometry, verify
from conformal_lab.verify import _COVARIANCE_LAWS, check_covariance

BACKENDS = ["sphere3", "sphere4", "sphere5", "s1xs2", "s1xs3"]


def _rng(name, seed=0):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


@pytest.mark.parametrize("backend", BACKENDS)
def test_stacked_trials_equal_one_trial_at_a_time(request, backend):
    m = request.getfixturevalue(backend)
    laws = {name: law for name, (law, applies) in _COVARIANCE_LAWS.items()
            if applies(m)}
    assert laws
    for name, law in laws.items():
        stacked = law(m, _rng(name), None, 10)
        rng = _rng(name)
        single = np.concatenate([law(m, rng, None, 1) for _ in range(10)])
        assert stacked.shape == (10,), name
        np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=1e-15,
                                   err_msg=name)


def _rolled_weight(monkeypatch):
    """Roll the factor's weight one trial against the test functions in
    the int P(rho phi) rho psi route only."""
    rho = geometry.ConformalFactor.rho

    def rolled(self, convention="metric"):
        f = rho(self, convention)
        return fields.field_from_grid(f.basis, np.roll(f.grid_values, 1, 0))

    monkeypatch.setattr(geometry.ConformalFactor, "rho", rolled)


@pytest.mark.parametrize("backend", ["sphere5", "s1xs2"])
def test_a_slipped_trial_axis_fails_the_bilinear_law(request, monkeypatch,
                                                     backend):
    m = request.getfixturevalue(backend)
    tol = verify.DECLARATIONS["covariance"].tolerance[m.backend.tolerance]
    assert np.max(np.abs(verify._law_bilinear(m, _rng("x"), None, 10))) \
        <= tol
    _rolled_weight(monkeypatch)
    assert np.all(np.abs(verify._law_bilinear(m, _rng("x"), None, 10)) > tol)
    report = check_covariance(m)
    (bilinear,) = [c for c in report.checks
                   if c.law == "bilinear-covariance"]
    assert not bilinear.passed and not report.passed


def _counted(monkeypatch):
    """Count the polar tabulations at points, values (``polar_values``)
    and jets (``polar_jets``) alike, and the ``frame_jets`` calls."""
    counts = {"polar": 0, "frame_jets": 0}
    frame_jets = fields.frame_jets

    def counting(name):
        orig = getattr(basis.ModeBasis, name)

        def count_polar(self, t):
            counts["polar"] += 1
            return orig(self, t)

        monkeypatch.setattr(basis.ModeBasis, name, count_polar)

    def count_jets(f, *points):
        counts["frame_jets"] += 1
        return frame_jets(f, *points)

    counting("polar_values")
    counting("polar_jets")
    monkeypatch.setattr(fields, "frame_jets", count_jets)
    return counts


def test_tabulation_does_not_grow_with_trials(sphere5, monkeypatch):
    check_covariance(sphere5, trials=1)  # the ledger is built once, here
    counts = _counted(monkeypatch)
    check_covariance(sphere5, trials=1)
    one = dict(counts)
    counts.update(polar=0, frame_jets=0)
    check_covariance(sphere5, trials=10)
    assert one["polar"] > 0 and one["frame_jets"] > 0
    assert counts == one


@pytest.mark.parametrize("residuals", [np.nan, np.array([0.0, np.nan, 0.0])])
def test_a_nan_residual_fails_its_law(sphere5, monkeypatch, residuals):
    """The worst of the trials keeps a NaN (a running Python max from 0
    dropped it, and the record passed)."""
    def nan_law(m, rng, *args):
        return residuals

    laws = dict(_COVARIANCE_LAWS)
    laws["blowup-measure"] = (nan_law, laws["blowup-measure"][1])
    monkeypatch.setattr(verify, "_COVARIANCE_LAWS", laws)
    report = check_covariance(sphere5, trials=3)
    (rec,) = [c for c in report.checks if c.law == "blowup-measure"]
    assert not rec.passed and not report.passed
