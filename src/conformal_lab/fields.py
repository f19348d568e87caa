"""Scalar and symmetric-tensor fields on catalog manifolds.

A ``ScalarField`` always carries its values on the quadrature grid, and
has one of two states: a mode field also carries its coefficients
against the orthonormal zonal/Fourier modes, a grid-only field does not.
There are two constructors, ``synthesize`` from coefficients and
``field_from_grid`` from grid values; ``analyze`` turns a grid-only
field into a mode field, and only where a caller asks for it.  Every
route that needs coefficients (values at points, jets, the Laplacian,
the operators) raises ``ValueError`` on a grid-only field.  Transforms
never mutate a field.  A field may carry a leading trial axis: a stack
of fields on one basis, each transform mapping over it, and each value,
jet or integral gaining the same leading axis.  A single field is a
field with no leading axis.

A symmetric 2-tensor is a dict of its components in the adapted
orthonormal frame of the backend: ``xx`` along the polar direction,
``orb`` along each of the (d-1) orbit directions of the sphere (factor)
S^d, and ``ss`` and ``sx`` in the (e_s, e_chi) block where a circle
S^1(l) multiplies it, which only ``frame_weights`` asks here.  Zonal
symmetry makes every tensor we need diagonal except for ``sx``.  A
component is an array of values, or a number where it is constant.

Synthesis on the grid, values at points, pairings at points and frame
jets share one table preparation: the coefficients of one or more fields
are stacked along a trailing field axis, behind any trial axis, and the
basis is tabulated once, for every field and trial.  On the grid the
tables are the cached node tables, with the first two derivatives, and
only there are fields differentiated (``frame_jets``,
``gradient_components``).  At other points a field is read by its values
alone: the basis is tabulated by ``ModeBasis.polar_values`` and
``circle_values``, value tables only, and only up to the highest mode
the coefficients carry.  The tables come normalized; one contraction
combines them with the coefficients.  A pairing ``sum_p v_p f(p)`` is
the adjoint of evaluation: the density meets the tables first, in mode
moments, and no value of a field at a point is formed.
Tables and grids are (circle, polar) shaped, a sphere's the one-row
case of its unit circle.  Points on a product come pointwise, broadcast
and tabulated per point, or as an open mesh, an s column (Ns, 1) and a
chi row (1, Nx), each axis tabulated once per distinct coordinate, as
on the grid; a sphere's polar angles are a mesh against its one node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import BACKENDS, ModeBasis
from .errors import AliasingError, ZeroFunctionError

__all__ = [
    "ScalarField",
    "analyze",
    "coefficients_of",
    "constant_field",
    "evaluate",
    "even_part",
    "field_from_grid",
    "frame_bilinear",
    "frame_dot",
    "frame_jets",
    "frame_trace",
    "frame_weights",
    "gradient_components",
    "grid_sum",
    "integrate",
    "laplacian",
    "mode_envelope",
    "pair",
    "random_modes",
    "sup_normalized",
    "synthesize",
    "trial_axes",
]


def _freeze(arr):
    if arr is None:
        return None
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ScalarField:
    """A scalar field: grid values, and coefficients for a mode field.

    ``bandwidth`` is the effective harmonic degree content
    (circle, sphere); ``None`` means unknown, treated as full-band when
    checking projection exactness.  Coefficients and grid values may
    share one leading trial axis in front of the mode and grid shapes.
    """

    basis: ModeBasis
    coefficients: np.ndarray | None = None
    grid_values: np.ndarray | None = None
    bandwidth: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _freeze(self.coefficients))
        object.__setattr__(self, "grid_values", _freeze(self.grid_values))
        leads = {_trial_shape(side, arr, want) for side, arr, want in (
            ("coefficient", self.coefficients, self.basis.mode_shape),
            ("grid", self.grid_values, self.basis.grid_shape))
            if arr is not None}
        if len(leads) > 1:
            raise ValueError("coefficients and grid values stack different "
                             "trial counts")
        if self.grid_values is None:
            raise ValueError("a field needs grid values; build it with "
                             "synthesize or field_from_grid")

    # ------------------------------------------------------------- algebra
    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(self.basis, None,
                               self.grid_values * other.grid_values,
                               _bw_sum(self.bandwidth, other.bandwidth))
        if np.isscalar(other):
            coeffs = None if self.coefficients is None else self.coefficients * other
            return ScalarField(self.basis, coeffs, self.grid_values * other,
                               self.bandwidth)
        return NotImplemented

    __rmul__ = __mul__

    def min(self):
        return float(np.min(self.grid_values))

    def max(self):
        return float(np.max(self.grid_values))


def _trial_shape(side: str, arr: np.ndarray, want: tuple) -> tuple:
    """The trial shape of ``arr`` in front of the ``side`` shape ``want``,
    () or one axis; any other shape raises ``ValueError``."""
    lead = arr.shape[:arr.ndim - len(want)]
    if arr.shape != lead + want or len(lead) > 1:
        raise ValueError(f"{side} shape {arr.shape} != {want}")
    return lead


def _bw_sum(a, b):
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] + b[1])


# ------------------------------------------------------------ constructors

def synthesize(basis: ModeBasis, coefficients) -> ScalarField:
    """The mode field of a coefficient table, or of a stack of them, with
    its grid values synthesized and its bandwidth read off the nonzero
    coefficients."""
    coefficients = np.asarray(coefficients, dtype=float)
    _trial_shape("coefficient", coefficients, basis.mode_shape)
    C, tabs = _prepare(basis, [coefficients])
    return ScalarField(basis, coefficients, _mix(tabs, C, 0, 0)[..., 0],
                       _support(basis, np.abs(coefficients) > 0))


def field_from_grid(basis: ModeBasis, values) -> ScalarField:
    return ScalarField(basis, None, np.asarray(values, dtype=float))


def constant_field(basis: ModeBasis, value: float) -> ScalarField:
    c = np.zeros(basis.mode_shape)
    c.flat[0] = value * math.sqrt(basis.volume)
    return synthesize(basis, c)


def even_part(f: ScalarField, s0: float = 0.0) -> ScalarField:
    """The part of a mode field even under the circle reflection
    s -> 2 s0 - s about a pole at ``s0``: each wavenumber's rows, 2k - 1
    for cos(2 pi k s / l) and 2k for sin, projected on
    cos(2 pi k (s - s0) / l), which at s0 = 0 zeroes the sine rows; ``f``
    itself where it is even already (a sphere's one circle row is)."""
    c = np.array(coefficients_of(f))
    t = 2.0 * math.pi * s0 / f.basis.length * np.arange(
        1, f.basis.fourier_max + 1)[:, None]
    cos_t, sin_t = np.cos(t), np.sin(t)
    along = c[..., 1::2, :] * cos_t + c[..., 2::2, :] * sin_t
    c[..., 1::2, :], c[..., 2::2, :] = along * cos_t, along * sin_t
    if np.array_equal(c, coefficients_of(f)):
        return f
    return synthesize(f.basis, c)


def mode_envelope(basis: ModeBasis, degree: int,
                  fourier: int = 0) -> np.ndarray:
    """The coefficient table exp(-(wavenumber + degree)) on the modes up to
    ``degree`` and wavenumber ``fourier`` (one circle row on a sphere), cut
    to the basis, and zero elsewhere."""
    degree = min(degree, basis.degree_max)
    fourier = min(fourier, basis.fourier_max)
    c = np.zeros(basis.mode_shape)
    rows = [basis.circle_wavenumber(j) for j in range(2 * fourier + 1)]
    c[:len(rows), :degree + 1] = [[math.exp(-(k + m))
                                   for m in range(degree + 1)] for k in rows]
    return c


def random_modes(basis: ModeBasis, rng, degree: int,
                 fourier: int = 0) -> np.ndarray:
    """A reproducible random coefficient table under ``mode_envelope``:
    one normal draw per supported mode, in row-major order, taken in one
    call, times the envelope."""
    c = mode_envelope(basis, degree, fourier)
    support = c > 0.0
    c[support] *= rng.normal(size=np.count_nonzero(support))
    return c


def sup_normalized(basis: ModeBasis, coefficients,
                   amplitude: float = 1.0) -> ScalarField:
    """The field of a coefficient table, or of a stack of them, scaled so
    that each trial's sup norm on the grid is ``amplitude``."""
    f = synthesize(basis, coefficients)
    top = np.max(np.abs(f.grid_values), axis=_grid_axes(basis))
    if np.any(top == 0.0):
        raise ZeroFunctionError("the coefficients give the zero field")
    scale = amplitude / top
    return ScalarField(
        basis, f.coefficients * trial_axes(scale, len(basis.mode_shape)),
        f.grid_values * trial_axes(scale, len(basis.grid_shape)), f.bandwidth)


def trial_axes(a, ndim: int):
    """``a``, one value per trial (or one value), with ``ndim`` unit axes
    appended so that it broadcasts against values at points."""
    a = np.asarray(a, dtype=float)
    return a.reshape(a.shape + (1,) * ndim)


# --------------------------------------------------------------- transforms

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
    if bw_k + b.fourier_max > b.circle_exactness:
        raise AliasingError(
            f"projection onto wavenumber {b.fourier_max} of a "
            f"wavenumber-{bw_k} field needs circle exactness "
            f"{bw_k + b.fourier_max}, quadrature provides {b.circle_exactness}")


def analyze(f: ScalarField) -> ScalarField:
    """Project grid values onto the mode basis by quadrature."""
    _check_projection_exactness(f)
    b = f.basis
    _, (U, P, *_) = _prepare(b)
    w_pol = b.polar_rule()[1] * b.polar_norm
    w_circ = np.full(b.circle_nodes, b.length / b.circle_nodes)
    coeffs = ((U[0] * w_circ[:, None]).T @ f.grid_values
              @ (P[0] * w_pol[:, None]))
    return ScalarField(b, coeffs, f.grid_values, f.bandwidth)


def evaluate(f, *points) -> np.ndarray:
    """Evaluate a mode-represented field at arbitrary points.

    The points are chart coordinates, ``(s, chi)`` on a product and
    ``(chi,)`` on a sphere, broadcastable arrays, the values having their
    broadcast shape; an open mesh, an s column (Ns, 1) against a chi row
    (1, Nx), is tabulated once per distinct s and chi, any other product
    points once per point, and sphere points once per angle.  ``f``
    may also be a sequence of fields on one basis: the basis is tabulated
    once, up to the highest mode any of them carries, and the values gain
    a trailing axis, one column per field.  A trial axis of the fields
    leads the values.
    """
    fields = _on_one_basis(f)
    C, tabs = _prepare(fields[0].basis,
                       [coefficients_of(g) for g in fields], points)
    out = _mix(tabs, C, 0, 0)
    return out[..., 0] if isinstance(f, ScalarField) else out


def pair(f, density, *points) -> np.ndarray:
    """sum_p density_p f(p) over the points: the adjoint of ``evaluate``.

    ``f`` and the points follow the ``evaluate`` convention, and
    ``density`` has the points' broadcast shape, or one trailing axis
    more, one density per column.  Per column the density meets the
    value tables in mode moments, U^T diag(v) P at points on a product
    and U^T V P on an open mesh, a sphere's included, and the moments meet
    the coefficients, so no value of a field at a point is formed.  At
    points on a product the columns are taken one at a time, so only one
    (points, degrees) product of a column with the polar table is alive.
    Every point takes part, so a non-finite density anywhere poisons the
    result.  Returns one number per field (a trailing field axis for a
    sequence), behind the column axis of a density that has one and
    behind the trial axis of the fields.
    """
    fields = _on_one_basis(f)
    C, (U, P, shape, mesh) = _prepare(
        fields[0].basis, [coefficients_of(g) for g in fields], points)
    v = np.asarray(density, dtype=float)
    columns = v.ndim > len(shape)
    if v.shape[:len(shape)] != shape or v.ndim > len(shape) + 1:
        raise ValueError(f"density shape {v.shape} does not match the "
                         f"points' shape {shape}")
    # the moments M, one (circle mode, degree) table per column
    if mesh:
        v = v.reshape(len(U[0]), len(P[0]), -1)
        M = U[0].T @ v.transpose(2, 0, 1) @ P[0]
    else:  # per point, one column at a time weighs the polar rows first
        v = v.reshape(len(P[0]), -1)
        M = np.stack([U[0].T @ (v[:, c, None] * P[0])
                      for c in range(v.shape[-1])])
    out = np.tensordot(C, M, axes=([-3, -2], [1, 2])).swapaxes(-1, -2)
    if not columns:
        out = out[..., 0, :]
    return out[..., 0] if isinstance(f, ScalarField) else out


def _on_one_basis(f) -> list:
    """The fields of ``f``, a field or a sequence of fields on one basis."""
    fields = [f] if isinstance(f, ScalarField) else list(f)
    if any(g.basis != fields[0].basis for g in fields):
        raise ValueError("a sequence of fields must lie on one basis")
    return fields


# -------------------------------------------------------------- integration

def _grid_axes(basis: ModeBasis) -> tuple:
    return tuple(range(-len(basis.grid_shape), 0))


def grid_sum(basis: ModeBasis, values):
    """Sum of grid values over the grid axes: a number, or one per trial
    when ``values`` lead with a trial axis."""
    return np.sum(values, axis=_grid_axes(basis))


def integrate(f: ScalarField):
    """Integral of the field against the manifold volume measure, one
    per trial for a stack."""
    return grid_sum(f.basis, f.grid_values * f.basis.quadrature_weights())


# ------------------------------------------------------------------ tensors

def frame_bilinear(t: dict, u: tuple, v: tuple):
    """T(X, Y) of a symmetric 2-tensor for frame vectors X, Y given as
    component tuples, as ``grad`` of ``frame_jets``: the circle component
    first on a product, the polar one last."""
    *u_circle, ux = u
    *v_circle, vx = v
    out = t["xx"] * ux * vx
    for us, vs in zip(u_circle, v_circle):  # on a product
        out = t["ss"] * us * vs + t["sx"] * (us * vx + ux * vs) + out
    return out


def frame_dot(basis: ModeBasis, a: dict, b: dict) -> np.ndarray:
    """Full contraction sum_ij A_ij B_ij of two symmetric 2-tensors.

    ``a`` and ``b`` are frame-component dicts as returned by ``frame_jets``;
    ``frame_dot(basis, a, a)`` is the squared norm.
    """
    weights = frame_weights(basis)
    return sum(weights[k] * a[k] * b[k] for k in a)


def frame_trace(basis: ModeBasis, comps: dict) -> np.ndarray:
    """Trace of a symmetric 2-tensor from its frame components."""
    weights = frame_weights(basis)
    return sum(weights[k] * comps[k] for k in comps if k != "sx")


def frame_weights(basis: ModeBasis) -> dict:
    """The frame components on ``basis`` in the order ss, sx, xx, orb, each
    with the matrix entries it stands for: orb the sphere_dim - 1 equal
    diagonal ones, sx the two (s, chi) and (chi, s); ss and sx where a
    circle multiplies the sphere."""
    ss_sx = {"ss": 1, "sx": 2} if BACKENDS[basis.kind].circle else {}
    return {**ss_sx, "xx": 1, "orb": basis.sphere_dim - 1}


# --------------------------------------------------------------- tabulation

def coefficients_of(f: ScalarField) -> np.ndarray:
    """The coefficients of a mode field; a grid-only field raises."""
    if f.coefficients is None:
        raise ValueError("a grid-only field has no coefficients; call "
                         "analyze first")
    return f.coefficients


def _support(b: ModeBasis, nz: np.ndarray) -> tuple:
    """(wavenumber, degree) of the last circle row and degree column of the
    mode-shaped mask ``nz``, or of any trial of a stack of them, holding a
    true entry, 0 where there is none."""
    nz = nz.reshape((-1,) + b.mode_shape).any(axis=0)
    rows = np.nonzero(nz.any(axis=1))[0]
    cols = np.nonzero(nz.any(axis=0))[0]
    return ((b.circle_wavenumber(int(rows[-1])) if rows.size else 0),
            int(cols[-1]) if cols.size else 0)


def _band(b: ModeBasis, C: np.ndarray):
    """``b`` cut to the modes where ``C`` is nonzero, and ``C`` cut to match.

    ``C`` is a coefficient table with a trailing field axis, behind any
    trial axis.  The cut keeps every circle row and degree column up to
    the last one holding a coefficient with ``C != 0`` in any field or
    trial, so a NaN coefficient still counts.
    """
    k, degree = _support(b, (C != 0).any(axis=-1))
    band = replace(b, degree_max=degree, fourier_max=k)
    cut = tuple(slice(size) for size in band.mode_shape)
    return band, C[(Ellipsis,) + cut + (slice(None),)]


def _prepare(b: ModeBasis, coeffs=(), points=()):
    """The coefficients and mode tables ``_mix`` and ``pair`` contract.

    ``C`` stacks the coefficient tables ``coeffs``, all on ``b`` and with
    one trial shape, along a trailing field axis (``None`` with none); a
    trial axis stays in front.  With no ``points`` the tables are the
    cached ones at the quadrature nodes, combined as a mesh product.
    Otherwise the basis is cut to the band of ``C`` (``_band``) and
    tabulated, values only, at the chart coordinates ``points``: once per
    distinct coordinate on an open mesh, an s column (Ns, 1) and a chi
    row (1, Nx), or a sphere's polar angles against its one circle node,
    otherwise once per broadcast point.  Returns ``(C, (U, P, shape,
    mesh))``: the circle and the polar tables, each a tuple of
    (coordinate, mode) arrays, the value table first and then, on the
    grid, the first and second derivative tables; the point shape and
    whether the tables combine as a mesh product.
    """
    C = np.concatenate([c[..., None] for c in coeffs],
                       axis=-1) if coeffs else None
    if not points:
        return C, (b.circle_tables(), b.polar_tables(), b.grid_shape, True)
    b, C = _band(b, C)
    pts = [np.asarray(p, dtype=float) for p in points]
    shape = np.broadcast_shapes(*(p.shape for p in pts))
    if len(pts) == 1:
        pts = [b.circle_points()[:, None], pts[0].reshape(1, -1)]
    mesh = all(p.ndim == 2 for p in pts) and pts[0].shape[1] == 1 \
        and pts[1].shape[0] == 1
    if not mesh:
        pts = np.broadcast_arrays(*pts)
    U = (b.circle_values(pts[0].ravel()),)
    return C, (U, (b.polar_values(np.cos(pts[-1].ravel())),), shape, mesh)


def _mix(tabs, C: np.ndarray, i: int, j: int) -> np.ndarray:
    """Coefficients ``C`` against circle table i and polar table j, with
    the trial axis of ``C`` leading and its field axis trailing the
    result; each trial is one batch of the same products."""
    U, P, shape, mesh = tabs
    if mesh:  # a mesh product batched over the fields, C as (f, k, l)
        out = U[i] @ C.swapaxes(-1, -2).swapaxes(-2, -3) @ P[j].T
        out = out.swapaxes(-3, -2).swapaxes(-2, -1)
        return out.reshape(out.shape[:-3] + shape + out.shape[-1:])
    # per point, the polar row against (circle row @ C)
    lead, (cm, sm, nf) = C.shape[:-3], C.shape[-3:]
    rows = U[i] @ C.reshape(lead + (cm, sm * nf))
    out = np.matmul(P[j][:, None, :],
                    rows.reshape(lead + (-1, sm, nf)))[..., 0, :]
    return out.reshape(out.shape[:-2] + shape + out.shape[-1:])


def _mixer(f: ScalarField):
    """The cosines t and sines of the polar nodes, broadcast against the
    grid values, and ``mix(i, j)``, the grid values of ``f`` against
    circle table i and polar table j."""
    C, tabs = _prepare(f.basis, [coefficients_of(f)])
    t, sin_t = f.basis.polar_nodes()  # along the second grid axis
    return t[None, :], sin_t[None, :], lambda i, j: _mix(tabs, C, i, j)[..., 0]


def _frame_gradient(b: ModeBasis, mix, ft, sin_t) -> tuple:
    """The frame gradient from ``mix`` and the t = cos(chi) partial
    ``ft``: (e_chi f,), behind e_s f where the frame has a circle."""
    grad = (-sin_t * ft / b.radius,)
    return (mix(1, 0),) + grad if "ss" in frame_weights(b) else grad


def frame_jets(f: ScalarField):
    """Value, frame gradient, and frame Hessian of a mode field on the
    quadrature grid.

    Returns ``(value, grad, hess)`` where ``grad`` is a tuple of frame
    components and ``hess`` a dict keyed like the tensor components.  A
    field is differentiated on the grid only; at other points it is read
    by its values (``evaluate``).
    """
    t, sin_t, mix = _mixer(f)
    b = f.basis

    # chart partials in t = cos(chi) to the orthonormal frame; the orbit
    # component (cot chi) f_chi is written as -t f_t so it stays regular
    # on the axis
    r = b.radius
    ft = mix(0, 1)
    grad = _frame_gradient(b, mix, ft, sin_t)
    hess = {"xx": ((1.0 - t ** 2) * mix(0, 2) - t * ft) / r ** 2,
            "orb": -t * ft / r ** 2}
    if len(grad) > 1:  # the circle rows, on a product
        hess.update(ss=mix(2, 0), sx=-sin_t * mix(1, 1) / r)
    return mix(0, 0), grad, hess


def gradient_components(f: ScalarField):
    """Orthonormal-frame gradient components on the grid, the ``grad``
    of ``frame_jets`` with no Hessian table mixed."""
    _, sin_t, mix = _mixer(f)
    return _frame_gradient(f.basis, mix, mix(0, 1), sin_t)


def laplacian(f: ScalarField) -> ScalarField:
    """Laplace-Beltrami operator applied mode-wise (exact in the basis)."""
    lam = f.basis.neg_laplacian_eigenvalues()
    return synthesize(f.basis, -lam * coefficients_of(f))

