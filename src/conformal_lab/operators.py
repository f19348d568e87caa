"""The conformal Laplacian, the Paneitz operator, and their quadratic form.

On the catalog backends both operators diagonalize over the mode basis
because the curvature is parallel: the Ricci contraction term splits
through the sphere-factor Laplacian on products and reduces to a
multiple of the full Laplacian on round spheres.  ``build_symbol``
tabulates the per-mode eigenvalues as a read-only array shaped like the
mode table, and ``smallest_abs_eigenvalue`` keeps its smallest modulus;
``apply_*`` multiply a mode field's coefficients by it, and an
independent pointwise route (spectral derivatives, frame contraction
with the Ricci grid values) serves as the cross-check.  Every route
takes mode fields: a grid-only field raises ``ValueError`` and must be
projected by ``fields.analyze`` first.  ``conformal_q`` reads the Q
curvature of a changed metric off the covariance law of P, the route
that ``geometry.conformal_curvature`` is checked against.

With Lam = eigenvalue of -Laplace per mode and lam_sph its sphere-factor
part, the tables are

    L = (4(n-1)/(n-2)) Lam + R
    P = Lam^2 - (4/(n-2)) ((d-1)/r^2) lam_sph + c2 R Lam + ((n-4)/2) Q

with d and r the dimension and radius of the sphere (factor), so that
on a round sphere (d = n) lam_sph is Lam, and with
c2 = (n^2-4n+8)/(2(n-1)(n-2)).  The zero-order term is the same for
every n; in dimension four its coefficient (n-4)/2 is zero.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import fields as F
from .fields import ScalarField
from .geometry import ConformalFactor, ManifoldModel, conformal_curvature

__all__ = [
    "apply_L",
    "apply_P",
    "apply_P_pointwise",
    "build_symbol",
    "conformal_q",
    "conformal_quadratic_form_E",
    "laplacian_coefficient",
    "quadratic_form_E",
    "smallest_abs_eigenvalue",
]


def laplacian_coefficient(n: int) -> float:
    """Coefficient of -Laplace in the conformal Laplacian."""
    return 4.0 * (n - 1) / (n - 2)


def _gradient_coefficient(n: int) -> float:
    return (n * n - 4 * n + 8) / (2.0 * (n - 1) * (n - 2))


@lru_cache(maxsize=64)
def build_symbol(m: ManifoldModel, operator: str) -> np.ndarray:
    """Eigenvalue table of L or P on a catalog backend, read-only and
    built once per (backend, operator)."""
    b = m.basis
    lam = b.neg_laplacian_eigenvalues()
    n = m.n
    if operator == "L":
        table = laplacian_coefficient(n) * lam + m.scalar_curvature
    elif operator == "P":
        # the sphere-factor part of -Laplace, constant along the circle modes
        rc_term = ((m.sphere_dim - 1) / m.radius ** 2) \
            * b.sphere_factor_eigenvalues()
        table = (lam ** 2 - (4.0 / (n - 2)) * rc_term
                 + _gradient_coefficient(n) * m.scalar_curvature * lam
                 + 0.5 * (n - 4) * m.q_value)
    else:
        raise ValueError(f"unknown operator tag {operator!r}")
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def smallest_abs_eigenvalue(m: ManifoldModel, operator: str) -> float:
    """The smallest |eigenvalue| of L or P on a catalog backend, taken
    once per (backend, operator) from ``build_symbol``."""
    return float(np.min(np.abs(build_symbol(m, operator))))


def apply_L(m: ManifoldModel, f: ScalarField) -> ScalarField:
    """-(4(n-1)/(n-2)) Lap f + R f."""
    return F.synthesize(f.basis, build_symbol(m, "L") * F.coefficients_of(f))


def apply_P(m: ManifoldModel, f: ScalarField) -> ScalarField:
    """Fourth-order operator, applied mode-wise."""
    return F.synthesize(f.basis, build_symbol(m, "P") * F.coefficients_of(f))


def apply_P_pointwise(m: ManifoldModel, f: ScalarField) -> ScalarField:
    """Fourth-order operator through grid-side curvature contraction.

    The Ricci term is the frame contraction of the Hessian with the
    Ricci grid values (the divergence collapses because Ricci is
    parallel on every backend), so this route shares no code with the
    symbol table and serves as its cross-check.
    """
    n = m.n
    lap = F.laplacian(f)
    bilap = F.laplacian(lap)
    _, _, hess = F.frame_jets(f)
    rc_dot_hess = F.frame_dot(m.basis, m.ricci_eigenvalues, hess)
    vals = (bilap.grid_values + (4.0 / (n - 2)) * rc_dot_hess
            - _gradient_coefficient(n) * m.scalar_curvature * lap.grid_values
            + 0.5 * (n - 4) * m.q_value * f.grid_values)
    return F.field_from_grid(m.basis, vals)


def quadratic_form_E(m: ManifoldModel, u: ScalarField, v: ScalarField):
    """Second-derivative form of the operator pairing.

    E(u, v) = int ( Lap u Lap v - (4/(n-2)) Ric(grad u, grad v)
              + c2 R grad u . grad v + ((n-4)/2) Q u v ) dmu,
    which equals int (P u) v dmu after integration by parts on a closed
    manifold.  Stacked fields give one value per trial.
    """
    n = m.n
    lap_u = F.laplacian(u).grid_values
    lap_v = F.laplacian(v).grid_values
    gu = F.gradient_components(u)
    gv = F.gradient_components(v)
    rc_grad = F.frame_bilinear(m.ricci_eigenvalues, gu, gv)
    grad_dot = sum(a * b for a, b in zip(gu, gv))
    vals = (lap_u * lap_v - (4.0 / (n - 2)) * rc_grad
            + _gradient_coefficient(n) * m.scalar_curvature * grad_dot
            + 0.5 * (n - 4) * m.q_value * u.grid_values * v.grid_values)
    return F.grid_sum(m.basis, vals * m.basis.quadrature_weights())


def conformal_quadratic_form_E(m: ManifoldModel, factor: ConformalFactor,
                               u: ScalarField, v: ScalarField):
    """The quadratic form of the changed metric e^{2w} g, assembled directly.

    Every ingredient (changed Laplacian, Ricci, scalar and Q curvature,
    volume element) is produced from the base curvature and derivatives
    of w, not from the covariance law, so comparing this value with
    int P(rho u) rho v dmu is a genuine two-route test.  A stacked
    factor or stacked fields give one value per trial.
    """
    n = m.n
    w = factor.w_grid
    w_vals = w.grid_values
    gw = F.gradient_components(w)
    e2w = np.exp(2.0 * w_vals)

    def lap_tilde(f, gf):
        lap = F.laplacian(f).grid_values
        cross = sum(a * b for a, b in zip(gw, gf))
        return (lap + (n - 2) * cross) / e2w

    gu = F.gradient_components(u)
    gv = F.gradient_components(v)
    rc, r_tilde, q_tilde = conformal_curvature(m, factor)
    rc_grad = F.frame_bilinear(rc, gu, gv) / e2w ** 2
    grad_dot = sum(a * b for a, b in zip(gu, gv)) / e2w
    vals = (lap_tilde(u, gu) * lap_tilde(v, gv) - (4.0 / (n - 2)) * rc_grad
            + _gradient_coefficient(n) * r_tilde * grad_dot
            + 0.5 * (n - 4) * q_tilde * u.grid_values * v.grid_values)
    weights = m.basis.quadrature_weights() * np.exp(n * w_vals)
    return F.grid_sum(m.basis, vals * weights)


def conformal_q(m: ManifoldModel, factor: ConformalFactor) -> ScalarField:
    """Q curvature of the changed metric through the covariance laws.

    Dimension 4 uses Q~ = e^{-4w} (P w + Q); otherwise Q~ is read off
    from the fourth-order operator acting on the weight
    rho = e^{(n-4) w / 2}.
    """
    n = m.n
    w = factor.w_grid
    if n == 4:
        pw = apply_P(m, w)
        vals = np.exp(-4.0 * w.grid_values) * (pw.grid_values + m.q_value)
        return F.field_from_grid(m.basis, vals)
    rho = F.analyze(factor.rho("paneitz"))
    p_rho = apply_P(m, rho)
    expo = -(n + 4.0) / (n - 4.0)
    vals = (2.0 / (n - 4.0)) * rho.grid_values ** expo * p_rho.grid_values
    return F.field_from_grid(m.basis, vals)
