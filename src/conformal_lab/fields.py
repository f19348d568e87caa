"""Scalar and symmetric-tensor fields on catalog manifolds.

A ``ScalarField`` keeps a dual representation: coefficients against the
orthonormal zonal/Fourier modes, and values on the quadrature grid.
Transforms never mutate a field, they return a new one with both sides
populated.

A symmetric 2-tensor is a dict of its components in the adapted
orthonormal frame of the backend: on a sphere ``rr`` along e_theta and
``orb`` along each of the (n-1) orbit directions; on a product ``ss``,
``sx``, ``xx`` in the (e_s, e_chi) block and ``orb`` along the (d-1)
orbit directions.  Zonal symmetry makes every tensor we need diagonal
except for the (s, chi) component on products.  A component is an array
of values, or a number where it is constant.

Values and frame jets come from one routine: the basis is tabulated by
the Jacobi three-term recurrence of ``basis.zonal_polynomials`` (cached
node tables on the grid; at other points fresh tables, only up to the
highest mode the coefficients carry) and combined with the coefficients
in ``frame_jets``, which ``evaluate`` and ``gradient_components`` read
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import ModeBasis
from .errors import AliasingError, ZeroFunctionError

__all__ = [
    "ScalarField",
    "analyze",
    "constant_field",
    "evaluate",
    "field_from_grid",
    "field_from_modes",
    "frame_bilinear",
    "frame_dot",
    "frame_jets",
    "frame_trace",
    "gradient_components",
    "integrate",
    "laplacian",
    "random_bandlimited",
    "synthesize",
]


def _freeze(arr):
    if arr is None:
        return None
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScalarField:
    """A scalar field in dual (modes + grid) representation.

    ``bandwidth`` is the effective harmonic degree content
    (circle, sphere); ``None`` means unknown, treated as full-band when
    checking projection exactness.
    """

    basis: ModeBasis
    coefficients: np.ndarray | None = None
    grid_values: np.ndarray | None = None
    bandwidth: tuple | None = None

    def __post_init__(self):
        if self.coefficients is None and self.grid_values is None:
            raise ValueError("a field needs coefficients or grid values")
        object.__setattr__(self, "coefficients", _freeze(self.coefficients))
        object.__setattr__(self, "grid_values", _freeze(self.grid_values))
        if self.coefficients is not None:
            want = self.basis.mode_shape
            if self.coefficients.shape != want:
                raise ValueError(
                    f"coefficient shape {self.coefficients.shape} != {want}")
        if self.grid_values is not None:
            if self.grid_values.shape != self.basis.grid_shape:
                raise ValueError(
                    f"grid shape {self.grid_values.shape} "
                    f"!= {self.basis.grid_shape}")

    # ------------------------------------------------------------- algebra
    def _grid(self):
        if self.grid_values is not None:
            return self.grid_values
        return synthesize(self).grid_values

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(self.basis, None, self._grid() * other._grid(),
                               _bw_sum(self.bandwidth, other.bandwidth))
        if np.isscalar(other):
            coeffs = None if self.coefficients is None else self.coefficients * other
            grid = None if self.grid_values is None else self.grid_values * other
            return ScalarField(self.basis, coeffs, grid, self.bandwidth)
        return NotImplemented

    __rmul__ = __mul__

    def min(self):
        return float(np.min(self._grid()))

    def max(self):
        return float(np.max(self._grid()))


def _bw_sum(a, b):
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] + b[1])


# ------------------------------------------------------------ constructors

def field_from_modes(basis: ModeBasis, coefficients) -> ScalarField:
    coefficients = np.asarray(coefficients, dtype=float)
    if not basis.is_product:
        bw = (0, _top_degree(coefficients))
    else:
        nz = np.nonzero(np.any(np.abs(coefficients) > 0, axis=1))[0]
        kmax = basis.circle_wavenumber(int(nz[-1])) if nz.size else 0
        mz = np.nonzero(np.any(np.abs(coefficients) > 0, axis=0))[0]
        bw = (kmax, int(mz[-1]) if mz.size else 0)
    return ScalarField(basis, coefficients, None, bw)


def _top_degree(c):
    nz = np.nonzero(np.abs(c) > 0)[0]
    return int(nz[-1]) if nz.size else 0


def field_from_grid(basis: ModeBasis, values, bandwidth=None) -> ScalarField:
    return ScalarField(basis, None, np.asarray(values, dtype=float), bandwidth)


def constant_field(basis: ModeBasis, value: float) -> ScalarField:
    c = np.zeros(basis.mode_shape)
    c.flat[0] = value * math.sqrt(basis.volume)
    f = field_from_modes(basis, c)
    return synthesize(f)


def random_bandlimited(basis: ModeBasis, rng, degree: int, fourier: int = 0,
                       amplitude: float = 1.0) -> ScalarField:
    """A reproducible random field supported on low modes.

    Coefficients decay like exp(-(wavenumber + degree)) and the field is
    scaled so its sup norm is ``amplitude``.
    """
    degree = min(degree, basis.degree_max)
    if basis.is_product:
        fourier = min(fourier, basis.fourier_max)
        c = np.zeros((basis.circle_mode_count, basis.sphere_mode_count))
        for j in range(2 * fourier + 1):
            k = basis.circle_wavenumber(j)
            for m in range(degree + 1):
                c[j, m] = rng.normal() * math.exp(-(k + m))
    else:
        c = np.array([rng.normal() * math.exp(-l) if l <= degree else 0.0
                      for l in range(basis.sphere_mode_count)])
    f = synthesize(field_from_modes(basis, c))
    top = float(np.max(np.abs(f.grid_values)))
    if top == 0.0:
        raise ZeroFunctionError("random draw produced the zero field")
    return f * (amplitude / top)


# --------------------------------------------------------------- transforms

def synthesize(f: ScalarField) -> ScalarField:
    """Populate grid values from coefficients (coefficients unchanged)."""
    if f.coefficients is None:
        raise ValueError("synthesize needs authoritative coefficients")
    if f.grid_values is not None:
        return f
    P0, _, _ = f.basis.polar_tables()
    if f.basis.is_product:
        U0, _, _ = f.basis.circle_tables()
        grid = U0 @ f.coefficients @ P0.T
    else:
        grid = P0 @ f.coefficients
    return ScalarField(f.basis, f.coefficients, grid, f.bandwidth)


def _check_projection_exactness(f: ScalarField):
    b = f.basis
    bw = f.bandwidth
    bw_k = b.fourier_max if bw is None else bw[0]
    bw_m = b.degree_max if bw is None else bw[1]
    if bw_m + b.degree_max > b.polar_exactness:
        raise AliasingError(
            f"projection onto degree {b.degree_max} of a degree-{bw_m} field "
            f"needs polar exactness {bw_m + b.degree_max}, quadrature "
            f"provides {b.polar_exactness}")
    if b.is_product and bw_k + b.fourier_max > b.circle_exactness:
        raise AliasingError(
            f"projection onto wavenumber {b.fourier_max} of a "
            f"wavenumber-{bw_k} field needs circle exactness "
            f"{bw_k + b.fourier_max}, quadrature provides {b.circle_exactness}")


def analyze(f: ScalarField) -> ScalarField:
    """Project grid values onto the mode basis by quadrature."""
    if f.grid_values is None:
        raise ValueError("analyze needs authoritative grid values")
    _check_projection_exactness(f)
    b = f.basis
    P0, _, _ = b.polar_tables()
    _, w_pol = b.polar_rule()
    w_pol = w_pol * b.polar_norm
    if b.is_product:
        U0, _, _ = b.circle_tables()
        w_circ = np.full(b.circle_nodes, b.length / b.circle_nodes)
        coeffs = (U0 * w_circ[:, None]).T @ f.grid_values @ (P0 * w_pol[:, None])
    else:
        coeffs = (P0 * w_pol[:, None]).T @ f.grid_values
    return ScalarField(b, coeffs, f.grid_values, f.bandwidth)


def evaluate(f, *points) -> np.ndarray:
    """Evaluate a mode-represented field at arbitrary points.

    Spheres take ``evaluate(f, theta)``; products take ``evaluate(f, s, chi)``
    with broadcastable arrays (evaluated pointwise, not on a mesh).  ``f``
    may also be a sequence of fields on one basis: the basis is tabulated
    once, up to the highest mode any of them carries, and the values gain
    a trailing axis, one column per field.
    """
    if isinstance(f, ScalarField):
        return _jets(f, points, 0)
    if any(g.basis != f[0].basis for g in f):
        raise ValueError("evaluate takes a sequence of fields on one basis")
    if not points:  # the grid tables are cached: one mesh product per field
        return np.stack([_jets(g, points, 0) for g in f], axis=-1)
    b, C = _band(f[0].basis,
                 np.stack([_coefficients(g) for g in f], axis=-1))
    return _mix(_tables(b, points), C, 0, 0)


# -------------------------------------------------------------- integration

def integrate(f: ScalarField) -> float:
    """Integral of the field against the manifold volume measure."""
    g = f.grid_values if f.grid_values is not None else synthesize(f).grid_values
    return float(np.sum(g * f.basis.quadrature_weights()))


# ------------------------------------------------------------------ tensors

def frame_bilinear(basis: ModeBasis, t: dict, u: tuple, v: tuple):
    """T(X, Y) of a symmetric 2-tensor for frame vectors X, Y given as
    component tuples, as ``grad`` of ``frame_jets``."""
    if basis.is_product:
        us, ux = u
        vs, vx = v
        return (t["ss"] * us * vs + t["sx"] * (us * vx + ux * vs)
                + t["xx"] * ux * vx)
    (ur,) = u
    (vr,) = v
    return t["rr"] * ur * vr


def frame_dot(basis: ModeBasis, a: dict, b: dict) -> np.ndarray:
    """Full contraction sum_ij A_ij B_ij of two symmetric 2-tensors.

    ``a`` and ``b`` are frame-component dicts as returned by ``frame_jets``;
    ``frame_dot(basis, a, a)`` is the squared norm.
    """
    weights = _frame_weights(basis)
    return sum(weights[k] * a[k] * b[k] for k in a)


def frame_trace(basis: ModeBasis, comps: dict) -> np.ndarray:
    """Trace of a symmetric 2-tensor from its frame components."""
    weights = _frame_weights(basis)
    return sum(weights[k] * comps[k] for k in comps if k != "sx")


def _frame_weights(basis: ModeBasis) -> dict:
    # each orbit component stands for sphere_dim - 1 equal diagonal
    # entries, the off-diagonal sx for the two entries (s, chi), (chi, s)
    return {"rr": 1, "ss": 1, "xx": 1, "sx": 2, "orb": basis.sphere_dim - 1}


# ----------------------------------------------------------- differentiation

def _mode_tables(basis: ModeBasis, points=None):
    """Normalized mode tables with the polar cosine and sine.

    Returns ``(U, P, t, sin_t)``: the circle tables (``None`` on spheres)
    and the polar tables, each a (value, first, second t-derivative)
    triple of arrays (point, mode), and the polar cosine and sine of the
    points.  With no points these are the cached tables at the quadrature
    nodes; otherwise ``points`` are flat chart coordinates, ``(theta,)``
    on spheres and ``(s, chi)`` on products.
    """
    if points is None:
        t, _ = basis.polar_rule()
        U = basis.circle_tables() if basis.is_product else None
        return U, basis.polar_tables(), t, np.sqrt(1.0 - t ** 2)
    t = np.cos(points[-1])
    U = basis.circle_values(points[0]) if basis.is_product else None
    P = basis.polar_values(t)
    for tab in P:  # freshly tabulated, so normalized in place
        tab /= math.sqrt(basis.polar_norm)
    return U, P, t, np.sin(points[-1])


def _coefficients(f: ScalarField) -> np.ndarray:
    if f.coefficients is None:
        raise ValueError("evaluation needs coefficients; call analyze first")
    return f.coefficients


def _band(b: ModeBasis, C: np.ndarray):
    """``b`` cut to the modes where ``C`` is nonzero, and ``C`` cut to match.

    ``C`` is a coefficient table with a trailing field axis.  The cut keeps
    every circle row and degree column up to the last one holding a
    coefficient with ``C != 0``, so a NaN coefficient still counts.
    """
    nz = (C != 0).any(axis=-1)
    cols = np.flatnonzero(nz.any(axis=0) if b.is_product else nz)
    degree = int(cols[-1]) if cols.size else 0
    if not b.is_product:
        return replace(b, degree_max=degree), C[:degree + 1]
    rows = np.flatnonzero(nz.any(axis=1))
    k = b.circle_wavenumber(int(rows[-1])) if rows.size else 0
    return (replace(b, degree_max=degree, fourier_max=k),
            C[:2 * k + 1, :degree + 1])


def _tables(b: ModeBasis, points):
    """Mode tables for ``_mix``: at broadcast ``points``, or on the grid.

    Returns ``(U, P, t, sin_t, shape, mesh)``; ``mesh`` means the grid of
    a product, where the circle and polar tables combine as a mesh
    product.
    """
    if points:
        pts = np.broadcast_arrays(*(np.asarray(p, dtype=float)
                                    for p in points))
        shape = pts[0].shape
        U, P, t, sin_t = _mode_tables(b, [p.ravel() for p in pts])
        return U, P, t.reshape(shape), sin_t.reshape(shape), shape, False
    U, P, t, sin_t = _mode_tables(b)
    if b.is_product:
        t, sin_t = t[None, :], sin_t[None, :]
    return U, P, t, sin_t, b.grid_shape, b.is_product


def _mix(tabs, C: np.ndarray, i: int, j: int) -> np.ndarray:
    """Coefficients ``C`` against circle table i and polar table j.

    On the grid ``C`` is one field's table; at points it has a trailing
    field axis, kept in the result.
    """
    U, P, _, _, shape, mesh = tabs
    if mesh:
        return U[i] @ C @ P[j].T
    if U is None:
        out = P[j] @ C
    else:
        # per point, the polar row against (circle row @ C)
        out = np.matmul(P[j][:, None, :], np.tensordot(U[i], C, 1))[:, 0]
    return out.reshape(shape + out.shape[1:])


def _jets(f: ScalarField, points, order: int):
    """Value (order 0) or value, frame gradient and frame Hessian (order 2).

    Empty ``points`` means the quadrature grid: the cached node tables are
    combined with the coefficients as a mesh product.  Otherwise the
    points are broadcast, the basis is tabulated over the band of ``f``
    (``_band``) and the tables are combined pointwise.
    """
    b, C = f.basis, _coefficients(f)
    if points:
        b, C = _band(b, C[..., None])
    tabs = _tables(b, points)

    def mix(i, j):
        out = _mix(tabs, C, i, j)
        return out[..., 0] if points else out

    val = mix(0, 0)
    if order == 0:
        return val
    t, sin_t = tabs[2], tabs[3]
    # chart partials in t = cos(chi) to the orthonormal frame; the orbit
    # component (cot chi) f_chi is written as -t f_t so it stays regular
    # on the axis
    r = b.radius
    ft = mix(0, 1)
    grad = (-sin_t * ft / r,)
    hess = {"xx" if b.is_product else "rr":
            ((1.0 - t ** 2) * mix(0, 2) - t * ft) / r ** 2,
            "orb": -t * ft / r ** 2}
    if b.is_product:
        grad = (mix(1, 0),) + grad
        hess.update(ss=mix(2, 0), sx=-sin_t * mix(1, 1) / r)
    return val, grad, hess


def frame_jets(f: ScalarField, *points):
    """Value, frame gradient, and frame Hessian of a mode field.

    Returns ``(value, grad, hess)`` where ``grad`` is a tuple of frame
    components and ``hess`` a dict keyed like the tensor components.
    Points follow the ``evaluate`` convention and are broadcast pointwise;
    with no points the jets are taken on the quadrature grid.
    """
    return _jets(f, points, 2)


def gradient_components(f: ScalarField):
    """Orthonormal-frame gradient components on the grid."""
    _, grad, _ = frame_jets(f)
    return grad


def laplacian(f: ScalarField) -> ScalarField:
    """Laplace-Beltrami operator applied mode-wise (exact in the basis)."""
    if f.coefficients is None:
        raise ValueError("laplacian needs coefficients")
    lam = f.basis.neg_laplacian_eigenvalues()
    return synthesize(field_from_modes(f.basis, -lam * f.coefficients))

