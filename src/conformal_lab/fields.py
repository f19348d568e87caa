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

Synthesis on the grid, values at points and frame jets share one table
preparation: the coefficients of one or more fields are stacked along a
trailing field axis and the basis is tabulated once, from the cached
node tables on the grid or, at other points, by ``ModeBasis.polar_values``
and ``circle_values`` only up to the highest mode the coefficients carry.
``polar_values`` returns the zonal tables of ``basis.zonal_polynomials``
already normalized; one contraction combines them with the coefficients.
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
    return ScalarField(basis, coefficients, None,
                       _support(basis, np.abs(coefficients) > 0))


def field_from_grid(basis: ModeBasis, values) -> ScalarField:
    return ScalarField(basis, None, np.asarray(values, dtype=float))


def constant_field(basis: ModeBasis, value: float) -> ScalarField:
    c = np.zeros(basis.mode_shape)
    c.flat[0] = value * math.sqrt(basis.volume)
    return synthesize(field_from_modes(basis, c))


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
    if f.grid_values is not None:
        return f
    C, tabs = _prepare(f.basis, [f])
    return ScalarField(f.basis, f.coefficients, _mix(tabs, C, 0, 0)[..., 0],
                       f.bandwidth)


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
    _, (U, P, *_) = _prepare(b)
    w_pol = b.polar_rule()[1] * b.polar_norm
    if b.is_product:
        w_circ = np.full(b.circle_nodes, b.length / b.circle_nodes)
        coeffs = ((U[0] * w_circ[:, None]).T @ f.grid_values
                  @ (P[0] * w_pol[:, None]))
    else:
        coeffs = (P[0] * w_pol[:, None]).T @ f.grid_values
    return ScalarField(b, coeffs, f.grid_values, f.bandwidth)


def evaluate(f, *points) -> np.ndarray:
    """Evaluate a mode-represented field at arbitrary points.

    Spheres take ``evaluate(f, theta)``; products take ``evaluate(f, s, chi)``
    with broadcastable arrays (evaluated pointwise, not on a mesh).  ``f``
    may also be a sequence of fields on one basis: the basis is tabulated
    once, up to the highest mode any of them carries, and the values gain
    a trailing axis, one column per field.
    """
    fields = [f] if isinstance(f, ScalarField) else list(f)
    if any(g.basis != fields[0].basis for g in fields):
        raise ValueError("evaluate takes a sequence of fields on one basis")
    C, tabs = _prepare(fields[0].basis, fields, points)
    out = _mix(tabs, C, 0, 0)
    return out[..., 0] if isinstance(f, ScalarField) else out


# -------------------------------------------------------------- integration

def integrate(f: ScalarField) -> float:
    """Integral of the field against the manifold volume measure."""
    return float(np.sum(f._grid() * f.basis.quadrature_weights()))


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


# --------------------------------------------------------------- tabulation

def _coefficients(f: ScalarField) -> np.ndarray:
    if f.coefficients is None:
        raise ValueError("evaluation needs coefficients; call analyze first")
    return f.coefficients


def _support(b: ModeBasis, nz: np.ndarray) -> tuple:
    """(wavenumber, degree) of the last circle row and degree column of the
    mode-shaped mask ``nz`` holding a true entry, 0 where there is none."""
    cols = np.nonzero(nz.any(axis=0) if b.is_product else nz)[0]
    degree = int(cols[-1]) if cols.size else 0
    if not b.is_product:
        return 0, degree
    rows = np.nonzero(nz.any(axis=1))[0]
    return (b.circle_wavenumber(int(rows[-1])) if rows.size else 0), degree


def _band(b: ModeBasis, C: np.ndarray):
    """``b`` cut to the modes where ``C`` is nonzero, and ``C`` cut to match.

    ``C`` is a coefficient table with a trailing field axis.  The cut keeps
    every circle row and degree column up to the last one holding a
    coefficient with ``C != 0``, so a NaN coefficient still counts.
    """
    k, degree = _support(b, (C != 0).any(axis=-1))
    band = replace(b, degree_max=degree, fourier_max=k)
    return band, C[tuple(slice(size) for size in band.mode_shape)]


def _prepare(b: ModeBasis, fields=(), points=()):
    """The coefficients and mode tables ``_mix`` contracts.

    ``C`` stacks the coefficient tables of ``fields``, all on ``b``, along
    a trailing field axis (``None`` with no fields).  With no ``points``
    the tables are the cached ones at the quadrature nodes, combined as a
    mesh product on a product grid.  Otherwise ``points`` are broadcast
    chart coordinates, ``(theta,)`` on spheres and ``(s, chi)`` on
    products, and the basis is cut to the band of ``C`` (``_band``) and
    tabulated there.  Returns ``(C, (U, P, t, sin_t, shape, mesh))``:
    the circle tables (``None`` on spheres) and the polar tables, each a
    (value, first, second derivative) triple of (point, mode) arrays, the
    polar cosine and sine broadcast against the output, and its shape.
    """
    C = np.concatenate([_coefficients(g)[..., None] for g in fields],
                       axis=-1) if fields else None
    if not points:
        t, _ = b.polar_rule()
        sin_t = np.sqrt(1.0 - t ** 2)
        U = b.circle_tables() if b.is_product else None
        if U is not None:  # the polar nodes run along the second grid axis
            t, sin_t = t[None, :], sin_t[None, :]
        return C, (U, b.polar_tables(), t, sin_t, b.grid_shape, U is not None)
    b, C = _band(b, C)
    pts = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in points))
    shape = pts[0].shape
    chi = pts[-1].ravel()
    t = np.cos(chi)
    U = b.circle_values(pts[0].ravel()) if b.is_product else None
    return C, (U, b.polar_values(t), t.reshape(shape),
               np.sin(chi).reshape(shape), shape, False)


def _mix(tabs, C: np.ndarray, i: int, j: int) -> np.ndarray:
    """Coefficients ``C`` against circle table i and polar table j, with
    the trailing field axis of ``C`` kept in the result."""
    U, P, _, _, shape, mesh = tabs
    if mesh:  # on a product grid, a mesh product batched over the fields
        return (U[i] @ C.transpose(2, 0, 1) @ P[j].T).transpose(1, 2, 0)
    if U is None:
        out = P[j] @ C
    else:
        # per point, the polar row against (circle row @ C)
        out = np.matmul(P[j][:, None, :], np.tensordot(U[i], C, 1))[:, 0]
    return out.reshape(shape + out.shape[1:])


def frame_jets(f: ScalarField, *points):
    """Value, frame gradient, and frame Hessian of a mode field.

    Returns ``(value, grad, hess)`` where ``grad`` is a tuple of frame
    components and ``hess`` a dict keyed like the tensor components.
    Points follow the ``evaluate`` convention and are broadcast pointwise;
    with no points the jets are taken on the quadrature grid.
    """
    C, tabs = _prepare(f.basis, [f], points)
    b, t, sin_t = f.basis, tabs[2], tabs[3]

    def mix(i, j):
        return _mix(tabs, C, i, j)[..., 0]

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
    return mix(0, 0), grad, hess


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

