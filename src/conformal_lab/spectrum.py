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
from dataclasses import dataclass

import numpy as np

from . import fields as F
from .geometry import ManifoldModel
from .operators import SpectralSymbol, build_symbol

__all__ = [
    "SpectrumSummary",
    "expected_sign",
    "lambda1_L",
    "paneitz_spectrum_check",
]

SIMPLICITY_TIE = 1e-10


@dataclass
class SpectrumSummary:
    """Aggregated eigenvalue data read from a symbol table."""

    operator: str
    eigenvalues: list          # (value, multiplicity) sorted ascending
    smallest_positive: tuple | None       # (value, multiplicity)
    largest_negative: tuple | None
    extremal: tuple | None     # the one the expected sign picks
    kernel_dimension: int
    kernel_is_constants: bool
    extremal_simple: bool
    extremal_sign_definite: bool
    eigenfunction_range: tuple | None
    ordering_holds: bool


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


def expected_sign(n: int) -> str:
    """Sign of G_P the theorems predict: POSITIVE for n > 4, NEGATIVE for
    n = 3, none in dimension four."""
    return "POSITIVE" if n > 4 else ("NEGATIVE" if n == 3 else "")


def paneitz_spectrum_check(m: ManifoldModel) -> SpectrumSummary:
    """Spectrum summary of the fourth-order operator with the sign claims.

    The claims (simplicity and sign-definiteness of the extremal
    eigenvalue, modulus ordering against the opposite-sign spectrum) are
    evaluated unconditionally against the sign the theorems predict
    (``expected_sign``); callers gate their assertion on the hypotheses.
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

    sign_verdict = expected_sign(m.n)
    extremal = smallest_pos if sign_verdict == "POSITIVE" else largest_neg
    simple = extremal is not None and extremal[1] == 1
    sign_definite = False
    eig_range = None
    if extremal is not None:
        idx = int(np.argmin(np.abs(sym.table.ravel() - extremal[0])))
        coeffs = np.zeros(m.basis.mode_shape)
        coeffs.flat[idx] = 1.0
        eigfn = F.synthesize(F.field_from_modes(m.basis, coeffs))
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
        smallest_positive=smallest_pos,
        largest_negative=largest_neg,
        extremal=extremal,
        kernel_dimension=kernel_dim,
        kernel_is_constants=kernel_is_constants,
        extremal_simple=simple,
        extremal_sign_definite=sign_definite,
        eigenfunction_range=eig_range,
        ordering_holds=ordering,
    )
