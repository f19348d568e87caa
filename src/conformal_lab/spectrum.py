"""Eigenvalue analysis of the two operators and the hypothesis ledger.

On constant-coefficient backends the Rayleigh minimum of the conformal
Laplacian is a symbol minimum, so the first eigenvalue (whose sign
equals the sign of the Yamabe invariant) is read off the table.  The
fourth-order operator's distinguished eigenvalues, the smallest positive
and the largest negative one, govern the sign structure of its inverse:
when the Green's function has a definite sign, the extremal eigenvalue
of the inverse is simple with a sign-definite eigenfunction, and any
eigenvalue of opposite sign is strictly dominated in modulus.

The summary is the backend's hypothesis ledger: the conformally
invariant data the theorems are stated in (the sign of lambda1(L),
ker P, the sign of Q, the predicted sign of G_P).  Its zero tests, and
that of the eigen expansions, read one ``zero_threshold`` set by the
curvature, so neither the band nor the size of the metric moves them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields as F
from .geometry import ManifoldModel
from .operators import build_symbol

__all__ = [
    "SpectrumSummary",
    "lambda1_L",
    "paneitz_spectrum_check",
    "zero_threshold",
]

SIMPLICITY_TIE = 1e-10


@dataclass(frozen=True)
class SpectrumSummary:
    """The hypothesis ledger of a backend and the P spectrum behind it."""

    lambda1: float             # smallest eigenvalue of L
    q: float                   # the constant Q curvature
    threshold: float           # zero_threshold
    g_p_sign: str              # the predicted sign of G_P, "" for n = 4
    eigenvalues: list          # (value, multiplicity) sorted ascending
    smallest_positive: tuple | None       # (value, multiplicity)
    largest_negative: tuple | None
    extremal: tuple | None     # the one the predicted sign picks
    kernel_dimension: int
    kernel_is_constants: bool
    extremal_simple: bool
    extremal_sign_definite: bool
    eigenfunction_range: tuple | None
    ordering_holds: bool

    @property
    def yamabe_positive(self) -> bool:
        return self.lambda1 > 0

    @property
    def theorems_hold(self) -> bool:
        """The hypotheses of the sign and comparison theorems: lambda1 > 0,
        Q > 0 and n != 4 (the one dimension with no predicted sign)."""
        return bool(self.yamabe_positive and self.q > self.threshold
                    and self.g_p_sign)

    def hypotheses(self) -> dict:
        """The ledger as reports print it."""
        q, thr = self.q, self.threshold
        return {"lambda1_L": self.lambda1,
                "yamabe_positive": self.yamabe_positive, "q_min": q,
                "q_max": q, "q_nonnegative": bool(q >= -thr),
                "q_not_identically_zero": bool(abs(q) > thr)}


def zero_threshold(m: ManifoldModel) -> float:
    """Below it an eigenvalue of P, a gap between two, or Q is zero:
    1e-8 max(R^2, radius^-4), in the units of P's eigenvalues and of Q."""
    return 1e-8 * max(m.scalar_curvature ** 2, m.radius ** -4)


def _grouped_eigenvalues(m: ManifoldModel, table: np.ndarray, thr: float):
    vals = table.ravel()
    mults = m.basis.multiplicities().ravel()
    order = np.argsort(vals)
    grouped = []
    for v, mu in zip(vals[order], mults[order]):
        if grouped and abs(v - grouped[-1][0]) \
                <= max(thr, SIMPLICITY_TIE * abs(v)):
            grouped[-1][1] += int(mu)
        else:
            grouped.append([float(v), int(mu)])
    return [(v, mu) for v, mu in grouped]


def lambda1_L(m: ManifoldModel) -> float:
    """Smallest eigenvalue of the conformal Laplacian (the Yamabe sign)."""
    return float(np.min(build_symbol(m, "L")))


def paneitz_spectrum_check(m: ManifoldModel) -> SpectrumSummary:
    """The ledger of ``m``: lambda1(L), Q and the P spectrum with its claims.

    The claims (simplicity and sign-definiteness of the extremal
    eigenvalue, modulus ordering against the opposite-sign spectrum) are
    read against the predicted sign, POSITIVE for n > 4 and NEGATIVE for
    n = 3, whatever the hypotheses; callers gate on ``theorems_hold``.
    """
    table = build_symbol(m, "P")
    thr = zero_threshold(m)
    grouped = _grouped_eigenvalues(m, table, thr)
    kernel_dim = sum(mu for v, mu in grouped if abs(v) < thr)
    positives = [(v, mu) for v, mu in grouped if v >= thr]
    negatives = [(v, mu) for v, mu in grouped if v <= -thr]
    smallest_pos = positives[0] if positives else None
    largest_neg = negatives[-1] if negatives else None

    sign = "POSITIVE" if m.n > 4 else ("NEGATIVE" if m.n == 3 else "")
    extremal, opposite = ((smallest_pos, negatives) if sign == "POSITIVE"
                          else (largest_neg, positives))
    eig_range = None
    if extremal is not None:
        idx = int(np.argmin(np.abs(table.ravel() - extremal[0])))
        coeffs = np.zeros(m.basis.mode_shape)
        coeffs.flat[idx] = 1.0
        eigfn = F.synthesize(m.basis, coeffs)
        eig_range = (eigfn.min(), eigfn.max())
    bound = abs(extremal[0]) if extremal else math.inf

    return SpectrumSummary(
        lambda1=lambda1_L(m),
        q=m.q_value,
        threshold=thr,
        g_p_sign=sign,
        eigenvalues=grouped,
        smallest_positive=smallest_pos,
        largest_negative=largest_neg,
        extremal=extremal,
        kernel_dimension=kernel_dim,
        # the constant mode is the first of the table, of multiplicity one
        kernel_is_constants=kernel_dim == 0 or (
            kernel_dim == 1 and abs(table.flat[0]) < thr),
        extremal_simple=extremal is not None and extremal[1] == 1,
        extremal_sign_definite=bool(eig_range
                                    and eig_range[0] * eig_range[1] > 0),
        eigenfunction_range=eig_range,
        ordering_holds=not sign or all(abs(v) > bound for v, _ in opposite),
    )
