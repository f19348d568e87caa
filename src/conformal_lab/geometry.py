"""Manifold catalog, conformal factors, and curvature transformation.

The catalog manifolds, each built from its row of ``basis.BACKENDS``,
carry constant-coefficient curvature in closed form: the round sphere
S^n(a) has Ricci tensor (n-1)/a^2 times the metric, and the product
S^1(l) x S^d(b) has Ricci eigenvalues (0, (d-1)/b^2, ...).  Their chart
coordinates are (s, chi) on a product and (chi,) on a sphere, whose
grid is the one-row case of a product's.  Conformal changes of metric are represented by
their logarithm w (the metric picks up a factor e^{2w}); all curvature
of the changed metric is produced from the base curvature and the first
two derivatives of w:

    Ric~ = Ric - (n-2)(Hess w - dw (x) dw) - (Lap w + (n-2)|dw|^2) g
    R~   = e^{-2w} (R - 2(n-1) Lap w - (n-1)(n-2) |dw|^2)

with all components measured in a g-orthonormal frame, so that R~ is
e^{-2w} times the frame trace of Ric~.  The Q curvature is assembled
from (R, Ric, Lap R) by one dimension-uniform polynomial formula.  For a
changed metric ``conformal_curvature`` gives Ric~, R~ and that Q~ in one
grid pass; ``operators.conformal_q`` gives Q~ through the covariance law
of the fourth-order operator instead, and the verification suites
compare the two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import fields as F
from .basis import BACKENDS, Backend, ModeBasis
from .errors import (AliasingError, NonpositiveFactorError,
                     UnsupportedBackendError, checked_integer)
from .fields import ScalarField

__all__ = [
    "ConformalFactor",
    "FieldFactor",
    "ManifoldModel",
    "MoebiusFactor",
    "Pole",
    "catalog_build",
    "conformal_curvature",
    "conformal_ricci",
    "q_from_data",
    "ricci_from_jets",
]

@dataclass(frozen=True)
class Pole:
    """A distinguished point on the symmetry axis of the zonal reduction.

    ``axis`` picks the north (+1) or south (-1) end of the sphere
    (factor); ``s0`` is the circle position on product backends.
    """

    axis: int = 1
    s0: float = 0.0

    def label(self) -> str:
        side = "N" if self.axis > 0 else "S"
        return f"{side}@s={self.s0:.6g}"


@dataclass(frozen=True)
class ManifoldModel:
    """A catalog manifold with its discretization and curvature package."""

    kind: str
    n: int
    radius: float
    length: float
    basis: ModeBasis

    # ------------------------------------------------------------- geometry
    @property
    def backend(self) -> Backend:
        """The row of ``basis.BACKENDS`` this manifold is built from."""
        return BACKENDS[self.kind]

    @property
    def sphere_dim(self) -> int:
        return self.basis.sphere_dim

    @property
    def volume(self) -> float:
        return self.basis.volume

    @property
    def scalar_curvature(self) -> float:
        d = self.sphere_dim
        return d * (d - 1) / self.radius ** 2

    @property
    def ricci_eigenvalues(self) -> dict:
        """The Ricci tensor, whose frame components are constant: (d-1)/r^2
        along the sphere (factor), 0 along the circle."""
        lam = (self.sphere_dim - 1) / self.radius ** 2
        return {k: 0.0 if k in ("ss", "sx") else lam
                for k in F.frame_weights(self.basis)}

    @cached_property
    def q_value(self) -> float:
        """Constant Q curvature of the backend."""
        rc = self.ricci_eigenvalues
        return q_from_data(self.n, 0.0, float(F.frame_dot(self.basis, rc, rc)),
                           self.scalar_curvature ** 2)

    def constant(self, value: float) -> ScalarField:
        return F.constant_field(self.basis, value)

    # ------------------------------------------------------------- sampling
    @lru_cache(maxsize=64)
    def grid_points(self):
        """The grid's chart coordinates, an open mesh: an s column where a
        circle multiplies the sphere (the chart's one such question), then
        a chi row; read-only and built once per backend."""
        chart = (self.basis.polar_angles()[None, :],)
        if self.backend.circle:
            chart = (self.basis.circle_points()[:, None],) + chart
        for axis in chart:
            axis.setflags(write=False)
        return chart

    def pole_point(self, pole: Pole) -> tuple:
        """Chart coordinates of the pole, as one-point arrays."""
        return self.chart_from_pole(
            pole, *(np.zeros(1) for _ in self.grid_points()))

    def pole_separation(self, pole: Pole, *points) -> tuple:
        """Pole coordinates of chart points: (ds, xi) for (s, chi), (xi,)
        for (chi,), with xi the polar angle from the pole's end of the
        axis and ds the circle offset, reduced to [-l/2, l/2); an offset
        already in (-l/2, l/2) comes back exactly."""
        xi = np.asarray(points[-1], dtype=float)
        if pole.axis < 0:
            xi = math.pi - xi
        if len(points) == 1:
            return (xi,)
        ds = np.asarray(points[0], dtype=float) - pole.s0
        return ds - self.length * np.floor(ds / self.length + 0.5), xi

    def chart_from_pole(self, pole: Pole, *sep) -> tuple:
        """Chart coordinates of the points with pole coordinates ``sep``;
        the inverse of ``pole_separation``."""
        xi = np.asarray(sep[-1], dtype=float)
        polar = xi if pole.axis > 0 else math.pi - xi
        if len(sep) == 1:
            return (polar,)
        return pole.s0 + np.asarray(sep[0], dtype=float), polar

    def near_pole(self, pole: Pole) -> np.ndarray:
        """Grid mask: True within three coarse grid spacings (geodesic
        distance) of the pole, where a kernel's singular part dominates;
        a sphere's circle has length 0.  A grid so coarse that the mask
        leaves no node raises ``UnsupportedBackendError``."""
        *ds, xi = self.pole_separation(pole, *self.grid_points())
        r = np.hypot(*ds, self.radius * xi) if ds else self.radius * xi
        spacing = max(self.length / self.basis.circle_nodes,
                      self.radius * math.pi / self.basis.sphere_nodes)
        near = r < 3.0 * spacing
        if near.all():
            raise UnsupportedBackendError(
                f"every grid node of {self.descriptor()} lies within three "
                f"grid spacings of the pole {pole.label()}")
        return near

    def descriptor(self) -> str:
        """``kind:n=..`` and each scale of the row by its symbol."""
        return ":".join([self.kind, f"n={self.n}"] + [
            f"{symbol}={getattr(self, name):.6g}"
            for name, (symbol, _) in self.backend.scales.items()])


def catalog_build(kind: str, n: int | None = None, params: dict | None = None,
                  basis: dict | None = None) -> ManifoldModel:
    """Construct a catalog backend from a manifest-style record.

    ``kind`` names a row of ``basis.BACKENDS``: ``sphere`` with n in 3..7,
    ``product-S1xS2`` and ``product-S1xS3`` (S^1 x S^d, n = d + 1, which
    may be left out).  ``params`` carries the row's scales, finite
    positive numbers, ``basis`` the cutoffs and node counts, integers:
    ``degree_max`` at least 4 and, with a circle length, ``fourier_max``
    at least 1, the modes the default test functions use, and node
    counts at least 1.
    """
    params = dict(params or {})
    basis = dict(basis or {})
    if n is not None:
        n = checked_integer("n", n, 1, UnsupportedBackendError)
    degree_max = _count(basis, "degree_max", 16, 4)
    row = BACKENDS.get(kind)
    if row is None:
        raise UnsupportedBackendError(f"unknown backend kind {kind!r}")
    if n is None and len(row.dims) == 1:
        (n,) = row.dims
    if n not in row.dims:
        raise UnsupportedBackendError(
            f"{kind} has dimension n in {sorted(row.dims)}, got n={n}")
    scale = {name: _scale(params, name, default)
             for name, (_, default) in row.scales.items()}
    radius, length = scale["radius"], scale.get("length")
    sphere_nodes = _count(basis, "sphere_nodes", None, 1)
    if length is None:  # no circle length, no Fourier modes
        mb = ModeBasis.for_sphere(n, degree_max, radius, sphere_nodes)
    else:
        mb = ModeBasis.for_product(
            kind, degree_max,
            _count(basis, "fourier_max", max(8, degree_max // 2), 1),
            length, radius, sphere_nodes,
            _count(basis, "circle_nodes", None, 1))
    _reject_unknown(params, basis)
    return ManifoldModel(kind, n, radius, length or 0.0, mb)


def _count(basis: dict, key: str, default, least: int):
    """``basis[key]``, popped, as an integer of at least ``least``; an
    absent key gives ``default``."""
    if key not in basis:
        return default
    return checked_integer(key, basis.pop(key), least,
                           UnsupportedBackendError)


def _scale(params: dict, key: str, default: float) -> float:
    """``params[key]``, popped, as a finite positive number."""
    value = params.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 < value < math.inf:
        raise UnsupportedBackendError(
            f"{key}: must be a finite positive number, got {value!r}")
    return float(value)


def _reject_unknown(params, basis):
    if params:
        raise UnsupportedBackendError(f"unknown params {sorted(params)}")
    if basis:
        raise UnsupportedBackendError(f"unknown basis options {sorted(basis)}")


# --------------------------------------------------------- conformal factor

_CONVENTION_EXPONENTS = {"metric": lambda n: 4.0 / (n - 2),
                         "paneitz": lambda n: 4.0 / (n - 4)}


class ConformalFactor:
    """A positive conformal change of metric, stored via its logarithm.

    A subclass gives w = log of the factor of g~ = e^{2w} g by its values
    at chart points, ``w_at(*points)``; ``w_grid`` samples them on the
    quadrature grid and projects them, unless the subclass holds w as a
    field.  ``jets()`` is the one route to the value, frame gradient and
    frame Hessian of w on the grid, ``fields.frame_jets`` of ``w_grid``,
    which only ``conformal_ricci`` reads.  The same metric is described
    in two weight conventions, rho^{4/(n-2)} (second-order covariance)
    and rho^{4/(n-4)} (fourth-order covariance, n != 4); ``rho`` converts
    w to either, so the conventions agree by construction.  A factor may
    stack one w per trial; its values, jets, weights and curvature then
    lead with the trial axis.  A factor is built as ``FieldFactor(m, w)``
    or ``MoebiusFactor(m, lam)``.
    """

    def __init__(self, manifold: ManifoldModel):
        self.manifold = manifold

    @cached_property
    def w_grid(self) -> ScalarField:
        """w on the quadrature grid as a mode field: sampled by ``w_at``
        and projected, unless a subclass holds w as a field."""
        m = self.manifold
        return F.analyze(F.field_from_grid(m.basis,
                                           self.w_at(*m.grid_points())))

    def jets(self):
        return F.frame_jets(self.w_grid)

    def rho(self, convention: str = "metric") -> ScalarField:
        e = _CONVENTION_EXPONENTS[convention](self.manifold.n)
        return F.field_from_grid(self.manifold.basis,
                                 np.exp(2.0 * self.w_grid.grid_values / e))

    def rho_at(self, convention: str, *points):
        e = _CONVENTION_EXPONENTS[convention](self.manifold.n)
        return np.exp(2.0 * self.w_at(*points) / e)


class FieldFactor(ConformalFactor):
    """Conformal logarithm given as a band-limited mode field, or a stack
    of them, with finite coefficients; a grid-only field raises
    ``ValueError``, a non-finite one ``NonpositiveFactorError``.  Its
    values at points are ``fields.evaluate`` of w, and its grid field is
    w itself; nothing is kept between calls."""

    def __init__(self, manifold: ManifoldModel, w: ScalarField):
        super().__init__(manifold)
        # a grid-only w raises here, not when read
        if not np.all(np.isfinite(F.coefficients_of(w))):
            raise NonpositiveFactorError(
                "conformal logarithm has a non-finite coefficient")
        self.w = w

    @property
    def w_grid(self) -> ScalarField:
        return self.w

    def w_at(self, *points):
        return F.evaluate(self.w, *points)


class MoebiusFactor(ConformalFactor):
    """Logarithm of the round-to-round dilation factor on a sphere.

    In the stereographic coordinate t = tan(theta/2) the dilation by
    ``lam`` sends t to lam * t; the pulled-back round metric is
    e^{2w} g with e^w = lam (1 + t^2) / (1 + lam^2 t^2), in closed form
    at points.  ``lam`` is a positive finite number, or one per trial.
    """

    def __init__(self, manifold: ManifoldModel, lam):
        if not manifold.backend.moebius:
            raise UnsupportedBackendError(
                f"{manifold.descriptor()} has no Moebius dilation family")
        lam = np.asarray(lam, dtype=float)
        if not np.all((lam > 0) & np.isfinite(lam)):
            raise NonpositiveFactorError(
                "dilation parameter must be positive and finite")
        super().__init__(manifold)
        self.lam = lam
        # math.log per value: numpy's log may differ from it in the last bit
        self._log_lam = np.vectorize(math.log, otypes=[float])(lam)

    def mapped_angle(self, theta):
        """Polar angle of the image point under the dilation."""
        xi = np.asarray(theta, dtype=float)
        lam = F.trial_axes(self.lam, xi.ndim)
        mapped = 2.0 * np.arctan(lam * np.tan(0.5 * xi))
        return np.where(np.isclose(xi, math.pi), math.pi, mapped)

    def w_at(self, theta):
        xi = np.asarray(theta, dtype=float)
        t = np.tan(0.5 * xi)
        d = 1.0 + F.trial_axes(self.lam, xi.ndim) ** 2 * t ** 2
        return F.trial_axes(self._log_lam, xi.ndim) + np.log1p(t ** 2) \
            - np.log(d)


# ----------------------------------------------------- curvature transforms

def conformal_ricci(m: ManifoldModel, factor: ConformalFactor):
    """Ricci tensor of e^{2w} g on the grid, components in the base
    orthonormal frame."""
    bw = factor.w_grid.bandwidth
    if bw is not None and bw != (0, 0):
        need = 4 * (bw[1] + 2)
        if need > m.basis.polar_exactness:
            raise AliasingError(
                f"conformal curvature of a degree-{bw[1]} factor needs polar "
                f"exactness {need}, quadrature provides "
                f"{m.basis.polar_exactness}")
    _, grad, hess = factor.jets()
    return ricci_from_jets(m, grad, hess)


# the gradient axes of the frame components of dw (x) dv (no orb part)
FRAME_AXES = {"ss": (0, 0), "sx": (0, -1), "xx": (-1, -1)}


def ricci_from_jets(m: ManifoldModel, grad, hess, background=None,
                    dw0=None) -> dict:
    """Ricci components of e^{2w} h in the base frame from the frame
    gradient and Hessian of w, as a factor's ``jets`` gives them (the
    circle component first on a product, the polar one last): h is g, or
    the metric e^{2 w0} g with the Ricci components ``background`` and
    the frame gradient ``dw0``, whose cross terms with dw it adds."""
    n = m.n
    background = m.ricci_eigenvalues if background is None else background
    dw0 = dw0 or (0.0,) * len(grad)
    # the diagonal of dw (x) dw + dw0 (x) dw + dw (x) dw0, and its trace
    diag = [g * (g + 2.0 * a) for g, a in zip(grad, dw0)]
    trace_term = F.frame_trace(m.basis, hess) + (n - 2) * sum(diag)
    comps = {}
    for key, lam in background.items():
        h = hess[key]
        if key in FRAME_AXES:  # g has no sx
            i, j = FRAME_AXES[key]
            h = h - (diag[i] if i == j else
                     grad[i] * (grad[j] + dw0[j]) + dw0[i] * grad[j])
        comps[key] = ric = h * (2 - n)
        ric += lam
        if key != "sx":
            ric -= trace_term
    return comps


# ------------------------------------------------------------- Q curvature

def q_from_data(n: int, lap_R, rc_norm_sq, R_sq):
    """Q curvature from (Lap R, |Ric|^2, R^2); one formula for every n."""
    c2 = (n ** 3 - 4 * n ** 2 + 16 * n - 16) / (8.0 * (n - 1) ** 2 * (n - 2) ** 2)
    return (-lap_R / (2.0 * (n - 1)) - 2.0 * rc_norm_sq / (n - 2) ** 2
            + c2 * R_sq)


def conformal_curvature(m: ManifoldModel, factor: ConformalFactor):
    """(Ric~, R~, Q~) of the changed metric e^{2w} g on the grid.

    Ric~ holds the base-frame components of ``conformal_ricci``, R~ is
    e^{-2w} times their frame trace, and Q~ is ``q_from_data`` of
    |Ric~|^2 = e^{-4w} |Ric~|_g^2, R~^2 and the changed-metric Laplacian
    of R~, so it shares no code with the covariance route of
    ``operators.conformal_q``.
    """
    w = factor.w_grid
    inv_e2w = np.exp(-2.0 * w.grid_values)
    rc = conformal_ricci(m, factor)
    r_tilde = inv_e2w * F.frame_trace(m.basis, rc)
    r_field = F.analyze(F.field_from_grid(m.basis, r_tilde))
    cross = sum(a * b for a, b in zip(F.gradient_components(w),
                                      F.gradient_components(r_field)))
    lap_tilde_r = inv_e2w * (F.laplacian(r_field).grid_values
                             + (m.n - 2) * cross)
    q_tilde = q_from_data(m.n, lap_tilde_r,
                          inv_e2w ** 2 * F.frame_dot(m.basis, rc, rc),
                          r_tilde ** 2)
    return rc, r_tilde, q_tilde
