"""The policy a suite declares is the one its reports follow: the default
tolerance, and the assertion rule of the two theorem suites, including
for a Green's function that cannot be built."""

import inspect

import pytest

from conformal_lab import green, verify
from conformal_lab.errors import KernelError
from conformal_lab.verify import (DECLARATIONS, SUITES, check_4d_identity,
                                  check_covariance, check_green_compare,
                                  check_mass, check_sign_theorems,
                                  check_spectrum_claims, check_total_q,
                                  check_weak_identity)

CHECKS = {
    "weak-identity": check_weak_identity,
    "4d-identity": check_4d_identity,
    "total-q": check_total_q,
    "covariance": check_covariance,
    "signs": check_sign_theorems,
    "spectrum": check_spectrum_claims,
    "green-compare": check_green_compare,
    "mass": check_mass,
}


def test_a_suite_takes_a_tolerance_exactly_when_it_declares_one():
    assert set(CHECKS) == set(SUITES) == set(DECLARATIONS)
    for name, check in CHECKS.items():
        takes = "tolerance" in inspect.signature(check).parameters
        assert takes == (DECLARATIONS[name].tolerance is not None), name
    assert {n for n, d in DECLARATIONS.items() if d.theorems} == {
        "signs", "green-compare"}


def test_the_declared_tolerance_is_the_default(sphere5, s1xs2):
    for m in (sphere5, s1xs2):
        want = DECLARATIONS["green-compare"].tolerance[m.is_product]
        default = check_green_compare(m).checks
        assert default == check_green_compare(m, tolerance=want).checks
        assert default != check_green_compare(m, tolerance=2 * want).checks
    report = check_covariance(sphere5, trials=1)
    assert {c.tolerance for c in report.checks} == {
        DECLARATIONS["covariance"].tolerance[0]}


@pytest.mark.parametrize("check", [check_green_compare, check_sign_theorems])
def test_an_unbuildable_kernel_is_one_record_asserted_under_the_hypotheses(
        check, sphere5, s1xs2, monkeypatch):
    def obstructed(*args, **kw):
        raise KernelError("zero mode 1.2e-15 below 6.4e-12")

    # compare_green reads green.green_field, the sign scan verify's binding
    monkeypatch.setattr(green, "green_field", obstructed)
    monkeypatch.setattr(verify, "green_field", obstructed)
    [record] = check(sphere5).checks
    assert record.asserted and not record.passed
    assert record.detail == "KernelError: zero mode 1.2e-15 below 6.4e-12"
    # S1xS2 has Q < 0: the same record is exploratory there
    report = check(s1xs2)
    [record] = report.checks
    assert report.passed and record.passed and not record.asserted
    assert record.detail == "KernelError: zero mode 1.2e-15 below 6.4e-12"


def test_an_unbuildable_kernel_outside_the_theorems_is_a_job_error(
        sphere5, monkeypatch):
    def obstructed(*args, **kw):
        raise KernelError("zero mode")

    monkeypatch.setattr(verify, "green_field", obstructed)
    with pytest.raises(KernelError):
        check_weak_identity(sphere5, level=0)
