"""Eigenvalue analysis of the two operators and the Yamabe sign test.

On constant-coefficient backends the Rayleigh minimum of the conformal
Laplacian is a symbol minimum, so the first eigenvalue (whose sign
equals the sign of the Yamabe invariant) is read off the table.  The
fourth-order operator's distinguished eigenvalues, the smallest positive
and the largest negative one, govern the sign structure of its inverse:
when the Green's function has a definite sign, the extremal eigenvalue
of the inverse is simple with a sign-definite eigenfunction, and any
eigenvalue of opposite sign is strictly dominated in modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fields as F
from .errors import ZeroFunctionError
from .fields import ScalarField
from .geometry import ManifoldModel
from .operators import SpectralSymbol, apply_L, build_symbol

__all__ = [
    "SpectrumSummary",
    "expected_sign",
    "lambda1_L",
    "minimize_quotient_subspace",
    "paneitz_spectrum_check",
    "yamabe_quotient",
]

SIMPLICITY_TIE = 1e-10


@dataclass
class SpectrumSummary:
    """Aggregated eigenvalue data read from a symbol table."""

    operator: str
    eigenvalues: list          # (value, multiplicity) sorted ascending
    lambda1: float
    smallest_positive: tuple | None       # (value, multiplicity)
    largest_negative: tuple | None
    kernel_dimension: int
    kernel_is_constants: bool
    extremal_simple: bool
    extremal_sign_definite: bool
    eigenfunction_range: tuple | None
    ordering_holds: bool
    details: dict = dc_field(default_factory=dict)

    @property
    def mode_count(self) -> int:
        return int(sum(mult for _, mult in self.eigenvalues))


def _grouped_eigenvalues(sym: SpectralSymbol):
    vals = sym.table.ravel()
    mults = sym.multiplicities().ravel()
    order = np.argsort(vals)
    grouped = []
    for v, mu in zip(vals[order], mults[order]):
        if grouped and abs(v - grouped[-1][0]) <= SIMPLICITY_TIE * max(1.0, abs(v)):
            grouped[-1][1] += int(mu)
        else:
            grouped.append([float(v), int(mu)])
    return [(v, mu) for v, mu in grouped]


def lambda1_L(m: ManifoldModel) -> float:
    """Smallest eigenvalue of the conformal Laplacian (the Yamabe sign)."""
    return float(np.min(build_symbol(m, "L").table))


def yamabe_quotient(m: ManifoldModel, phi: ScalarField) -> float:
    """int L(phi) phi dmu divided by the critical Lebesgue norm squared."""
    if phi.coefficients is None:
        phi = F.analyze(phi)
    num = F.integrate(apply_L(m, phi) * phi)
    p = 2.0 * m.n / (m.n - 2.0)
    grid = phi.grid_values if phi.grid_values is not None \
        else F.synthesize(phi).grid_values
    norm_p = float(np.sum(np.abs(grid) ** p * m.basis.quadrature_weights()))
    if norm_p <= 0.0:
        raise ZeroFunctionError("the quotient needs a nonzero function")
    return num / norm_p ** (2.0 / p)


def minimize_quotient_subspace(m: ManifoldModel, n_modes: int = 20,
                               steps: int = 400, step_size: float = 0.02,
                               seed: int = 0) -> dict:
    """Projected gradient descent of the quotient over the first modes.

    Returns the final value together with the computable sandwich bounds:
    lambda1 * |phi|_2^2 / |phi|_crit^2 from below (the numerator dominates
    lambda1 |phi|_2^2 mode-wise) and the constant-function value from
    above.
    """
    rng = np.random.default_rng(seed)
    b = m.basis
    lam = build_symbol(m, "L").table.ravel()[:n_modes]
    p = 2.0 * m.n / (m.n - 2.0)
    w = b.quadrature_weights()

    def unpack(c):
        full = np.zeros(b.mode_count)
        full[:n_modes] = c
        shape = ((b.circle_mode_count, b.sphere_mode_count)
                 if b.is_product else (b.sphere_mode_count,))
        return F.synthesize(F.field_from_modes(b, full.reshape(shape)))

    def value_grad(c):
        phi = unpack(c)
        g = phi.grid_values
        num = float(np.sum(lam * c * c))
        norm_p = float(np.sum(np.abs(g) ** p * w))
        den = norm_p ** (2.0 / p)
        # d(den)/dc_l = 2 norm_p^{2/p - 1} int |phi|^{p-1} sgn(phi) e_l dmu
        P0, _, _ = b.polar_tables()
        integ = np.abs(g) ** (p - 1) * np.sign(g) * w
        if b.is_product:
            U0, _, _ = b.circle_tables()
            dnorm = (U0.T @ integ @ P0).ravel()[:n_modes]
        else:
            dnorm = (P0.T @ integ)[:n_modes]
        dden = 2.0 * norm_p ** (2.0 / p - 1.0) * dnorm
        grad = (2.0 * lam * c * den - num * dden) / den ** 2
        return num / den, grad

    c = rng.normal(size=n_modes)
    c /= np.linalg.norm(c)
    val, grad = value_grad(c)
    for _ in range(steps):
        c_new = c - step_size * grad
        c_new /= np.linalg.norm(c_new)
        val_new, grad_new = value_grad(c_new)
        if val_new > val - 1e-14:
            step_size *= 0.5
            if step_size < 1e-10:
                break
            continue
        c, val, grad = c_new, val_new, grad_new
        step_size *= 1.25
    phi = unpack(c)
    g = phi.grid_values
    l2 = float(np.sum(g * g * w))
    norm_crit = float(np.sum(np.abs(g) ** p * w)) ** (2.0 / p)
    lower = lambda1_L(m) * l2 / norm_crit
    upper = yamabe_quotient(m, m.constant(1.0))
    return {"value": val, "lower_bound": lower, "upper_bound": upper,
            "coefficients": c}


def expected_sign(n: int) -> str:
    """Sign of G_P the theorems predict: POSITIVE for n > 4, NEGATIVE for
    n = 3, none in dimension four."""
    return "POSITIVE" if n > 4 else ("NEGATIVE" if n == 3 else "")


def paneitz_spectrum_check(m: ManifoldModel,
                           sign_verdict: str | None = None) -> SpectrumSummary:
    """Spectrum summary of the fourth-order operator with the sign claims.

    The claims (simplicity and sign-definiteness of the extremal
    eigenvalue, modulus ordering against the opposite-sign spectrum) are
    evaluated unconditionally; callers gate their assertion on the
    Green's function sign verdict.
    """
    sym = build_symbol(m, "P")
    grouped = _grouped_eigenvalues(sym)
    thr = 1e-8 * sym.max_abs
    kernel = [(v, mu) for v, mu in grouped if abs(v) < thr]
    kernel_dim = sum(mu for _, mu in kernel)
    positives = [(v, mu) for v, mu in grouped if v >= thr]
    negatives = [(v, mu) for v, mu in grouped if v <= -thr]
    smallest_pos = positives[0] if positives else None
    largest_neg = negatives[-1] if negatives else None

    if sign_verdict is None:
        sign_verdict = expected_sign(m.n)
    extremal = smallest_pos if sign_verdict == "POSITIVE" else largest_neg
    simple = extremal is not None and extremal[1] == 1
    sign_definite = False
    eig_range = None
    if extremal is not None:
        idx = int(np.argmin(np.abs(sym.table.ravel() - extremal[0])))
        coeffs = np.zeros(m.basis.mode_count)
        coeffs[idx] = 1.0
        shape = ((m.basis.circle_mode_count, m.basis.sphere_mode_count)
                 if m.basis.is_product else (m.basis.sphere_mode_count,))
        eigfn = F.synthesize(F.field_from_modes(m.basis, coeffs.reshape(shape)))
        lo, hi = eigfn.min(), eigfn.max()
        eig_range = (lo, hi)
        sign_definite = lo * hi > 0
    if sign_verdict == "POSITIVE":
        bound = smallest_pos[0] if smallest_pos else math.inf
        ordering = all(abs(v) > bound for v, _ in negatives)
    elif sign_verdict == "NEGATIVE":
        bound = abs(largest_neg[0]) if largest_neg else math.inf
        ordering = all(v > bound for v, _ in positives)
    else:
        ordering = True

    # kernel containment: any zero mode must be the constant mode
    kernel_is_constants = True
    if kernel_dim:
        flat = np.abs(sym.table.ravel())
        zero_idx = np.nonzero(flat < thr)[0]
        kernel_is_constants = (len(zero_idx) == 1 and zero_idx[0] == 0
                               and kernel_dim == 1)

    return SpectrumSummary(
        operator="P",
        eigenvalues=grouped,
        lambda1=lambda1_L(m),
        smallest_positive=smallest_pos,
        largest_negative=largest_neg,
        kernel_dimension=kernel_dim,
        kernel_is_constants=kernel_is_constants,
        extremal_simple=simple,
        extremal_sign_definite=sign_definite,
        eigenfunction_range=eig_range,
        ordering_holds=ordering,
        details={"sign_verdict": sign_verdict,
                 "kernel_threshold": thr},
    )
