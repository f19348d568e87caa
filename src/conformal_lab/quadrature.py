"""Panel quadrature for integrands with a known pole structure.

Green's functions and their powers behave like r^(2-n) (or log r) at the
pole, which is integrable against the volume measure but defeats the
spectral quadrature of the basis.  The rules here are composite Gauss
panels away from the pole, geometrically graded panels toward it, and
on products a smooth partition of unity that splits the reduced
(s, chi) rectangle into a polar patch around the pole plus a blended
far region.

``pole_blocks`` is the one rule: an iterable of weighted node blocks
``(points, weights)`` in chart coordinates, for integrands even about
the pole.  A caller computes a density at the nodes of each block,
weights included, and pairs it with the ``fields.even_part`` of fields
by ``fields.pair``, or sums it where no field takes part.  A sphere's
rule is one block.  The product rule is mirror-symmetric under
ds -> -ds with no node on ds = 0, so its blocks hold the ds > 0 half
with doubled weights.  It comes in slabs of at most ``SLAB_NODES``
nodes, each built only when its iterator reaches it, so what the rule
and a caller form per node is alive for one slab at a time: runs of
whole radial rows of the polar patch, pointwise, and runs of whole s
rows of the far rectangle, each an open mesh, an s column of shape
(Ns, 1) and a chi row of shape (1, Nx), so the layers below can
tabulate along each axis before they broadcast.

What sits next to the pole is resolved once, not per level: both rules
grade toward the pole ``_GRADED_DEPTH`` = 14 times, and the product's
polar patch is one node set at every level, ``_PATCH_BAND_PANELS`` = 8
panels on its cut-off band and ``_PATCH_PSI_PANELS`` = 16 on [0, pi].
That patch is converged to rounding: twice its psi or band panels, or
ten more gradings, move no residual of the product weak and 4d
identities by more than 1.4e-15 at levels 1 to 3 and l = 0.5, 2 pi and
40, while half its band panels move them by up to 3.9e-13 and half its
psi panels by up to 8.3e-15.  So ``level`` refines only where the rule
is not converged, the far rectangle of a product, which sets the
level-2 residuals, and the uniform panels on [pi/8, pi] of a sphere.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .basis import gauss_jacobi

__all__ = ["extrapolate_to_zero", "pole_blocks"]

# the most nodes a product block of ``pole_blocks`` holds: whatever the
# rule or a caller forms per node, weights, kernel jets or a pairing's
# moments, it holds for one block at a time
SLAB_NODES = 4096

# the pole side of the rules, the same at every level (see above)
_GRADED_DEPTH = 14
_PATCH_BAND_PANELS = 8
_PATCH_PSI_PANELS = 16


def _gauss_panels(edges: np.ndarray, order: int):
    """Composite Gauss-Legendre nodes/weights over consecutive edges; the
    Legendre rule is the Gauss-Jacobi rule of weight 1 (a 2-sphere's)."""
    edges = np.asarray(edges, dtype=float)
    x, w, _ = gauss_jacobi(2, order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _graded_edges(outer: float, depth: int) -> np.ndarray:
    """Edges [0, outer/2^depth, ..., outer/2, outer] grading toward zero."""
    e = [0.0] + [outer * 0.5 ** j for j in range(depth, -1, -1)]
    return np.asarray(e)


def smoothstep(x: np.ndarray) -> np.ndarray:
    """C^4 ramp from 0 to 1 on [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 5 * (126.0 + x * (-420.0 + x * (540.0 + x * (-315.0 + 70.0 * x))))


def _cuts(rows: int, cols: int) -> list:
    """The (row run, column run) slices that cut a (rows, columns) piece
    of a rule into node blocks of at most ``SLAB_NODES`` nodes: runs of
    whole rows, or runs of one row where a row alone holds more."""
    dr = max(1, SLAB_NODES // cols)
    dc = min(cols, SLAB_NODES)
    return [(slice(i, i + dr), slice(j, j + dc))
            for i in range(0, rows, dr) for j in range(0, cols, dc)]


def pole_blocks(m, pole, level: int = 1, resolution: dict | None = None):
    """The graded rule of ``m`` around ``pole``, node blocks
    ``(points, weights)`` as the module describes.

    On a sphere it is one pointwise block: 10-point Gauss panels grade
    toward ``pole`` by halves, ``_GRADED_DEPTH`` times at every level,
    below pi/8, and ``level`` doubles the panel count of the uniform
    panels on [pi/8, pi].  A product takes ``_product_blocks``, whose
    polar patch is the same at every level.  A ``resolution`` dict
    receives the node counts and the graded depth.
    """
    if m.backend.circle:
        return _product_blocks(m, pole, level, resolution)
    n = m.n
    a = m.radius
    npan = 8 * 2 ** level
    xi0 = math.pi / 8
    edges = np.concatenate([
        _graded_edges(xi0, _GRADED_DEPTH)[:-1],
        np.linspace(xi0, math.pi, npan + 1),
    ])
    xi, w = _gauss_panels(edges, 10)
    surf = m.basis.orbit_area * a ** n * np.sin(xi) ** (n - 1)
    if resolution is not None:
        resolution.update(nodes=[xi.size], graded_depth=_GRADED_DEPTH)
    return [(m.chart_from_pole(pole, xi), surf * w)]


def _product_blocks(m, pole, level: int, resolution: dict | None) -> Iterator:
    """The ds > 0 half of the graded product rule with doubled weights,
    as an iterator of node blocks ``((s, chi), weights)``.

    A polar patch of radius r1 around the pole is integrated in
    (r, psi) shells graded toward r = 0; the complement is integrated
    on the full (s, chi) rectangle after multiplying by a C^4 cutoff
    that vanishes inside the patch, so both pieces see a smooth
    integrand.  Both use 6-point Gauss panels.  The patch is the same at
    every level, converged to rounding (see the module): its shells
    grade toward the pole by halves ``_GRADED_DEPTH`` times, then take
    ``_PATCH_BAND_PANELS`` panels across the cut-off band [r0, r1], and
    its psi rows take ``_PATCH_PSI_PANELS`` panels on [0, pi], which is
    48 nodes on the half.  ``level`` refines the rectangle alone: it
    takes 8 * 2**level panels per axis, more where the cut-off band
    (r1 - r0 = r1 / 2) would be narrower than 2**(level - 1) panels; the
    level-2 residuals of the product identities come from there.

    The whole rule is mirror-symmetric under ds -> -ds, and no node lies
    on the mirror line ds = 0: the psi panels split [0, pi] at pi/2 and
    the s panels split [-l/2, l/2] symmetrically, and a Gauss panel has
    no node on its edges nor, with an even order, at its middle, where
    an odd s panel count puts ds = 0.  So the half keeps the near-patch
    columns with psi < pi/2 and the far-rectangle rows with ds > 0,
    selected from the full panelization, and its weights double.

    Each piece comes in slabs of at most ``SLAB_NODES`` nodes, runs of
    whole rows (of one r, or of one s), and a row longer than that in
    runs of its columns, and each slab is built only when the iterator
    reaches it, from the panels' axes: the polar patch with the trig on
    the psi values and the cut-off on the r values, pointwise, since its
    nodes are not separable in (s, chi); the far rectangle as an open
    mesh, an s column of shape (Ns, 1) and a chi row of shape (1, Nx).
    A ``resolution`` dict receives, when the call returns, the node
    counts of the two half pieces, [near, far], the graded depth and
    ``mirror="s"``.
    """
    d = m.sphere_dim
    b = m.radius
    ell = m.length
    r1 = 0.25 * min(0.5 * ell, b * math.pi)
    r0 = 0.5 * r1
    orbit = m.basis.orbit_area * b ** (d - 1)

    # polar patch: ds = r cos(psi), b*chi = r sin(psi); a radial column
    # against a psi row, broadcast only where they meet
    redges = np.concatenate([_graded_edges(r0, _GRADED_DEPTH)[:-1],
                             np.linspace(r0, r1, _PATCH_BAND_PANELS + 1)])
    r_nodes, r_w = _gauss_panels(redges, 6)
    p_nodes, p_w = _gauss_panels(
        np.linspace(0.0, math.pi, _PATCH_PSI_PANELS + 1), 6)
    half = p_nodes < 0.5 * math.pi
    R, WR = r_nodes[:, None], r_w[:, None]
    psi, WP = p_nodes[half], 2.0 * p_w[half]
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)

    def near(rows, cols):
        r = R[rows]
        ds = r * cos_psi[cols]
        chi_eff = r * sin_psi[cols] / b
        cut = 1.0 - smoothstep((r - r0) / (r1 - r0))
        # ds d(b chi) = r dr dpsi, so the jacobian is plain r
        meas = orbit * np.sin(chi_eff) ** (d - 1) * r
        return (m.chart_from_pole(pole, ds, chi_eff),
                cut * meas * WR[rows] * WP[cols])

    # far region on the full rectangle, integrand cut off inside the
    # patch; panels no wider than h keep the band resolved at every
    # circle length
    h = (r1 - r0) / 2 ** (level - 1)
    ns = max(8 * 2 ** level, math.ceil(ell / h))
    nx = max(8 * 2 ** level, math.ceil(math.pi * b / h))
    s_nodes, s_w = _gauss_panels(np.linspace(-0.5 * ell, 0.5 * ell, ns + 1),
                                 6)
    half = s_nodes > 0.0
    x_nodes, x_w = _gauss_panels(np.linspace(0.0, math.pi, nx + 1), 6)
    DS, WS = s_nodes[half][:, None], 2.0 * s_w[half][:, None]
    CHI_EFF, WX = x_nodes[None, :], x_w[None, :]
    meas_far = orbit * b * np.sin(CHI_EFF) ** (d - 1)

    def far(rows, cols):
        ds, chi_eff = DS[rows], CHI_EFF[:, cols]
        rr = np.hypot(ds, b * chi_eff)
        cut_far = smoothstep((rr - r0) / (r1 - r0))
        return (m.chart_from_pole(pole, ds, chi_eff),
                cut_far * meas_far[:, cols] * WS[rows] * WX[:, cols])

    pieces = [(near, R.size, psi.size), (far, DS.size, CHI_EFF.size)]
    if resolution is not None:
        resolution.update(nodes=[rows * cols for _, rows, cols in pieces],
                          graded_depth=_GRADED_DEPTH, mirror="s")
    cuts = [(piece, cut) for piece, rows, cols in pieces
            for cut in _cuts(rows, cols)]
    return (piece(*cut) for piece, cut in cuts)


def extrapolate_to_zero(radii, values) -> float:
    """Limit at r = 0 of samples values(r) = a + b r + c r^2 + ...: the
    constant of the quadratic fitted to the four smallest radii by least
    squares.

    The fit is expanded in the discrete orthogonal polynomials q_0 = 1,
    q_1, q_2 of those radii (Forsythe), built by the Stieltjes recurrence

        q_(k+1) = (r - alpha_k) q_k - beta_k q_(k-1),
        alpha_k = <r q_k, q_k> / <q_k, q_k>,
        beta_k = <q_k, q_k> / <q_(k-1), q_(k-1)>,

    and carried at r = 0 alongside.  Each coefficient <y, q_k> / <q_k, q_k>
    is taken from the residual that the ones before leave, so no normal
    equations square the Vandermonde's condition number.
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(radii)[:4]
    r, residual = radii[order], values[order]
    q, q_prev = np.ones_like(r), np.zeros_like(r)
    at_zero, at_zero_prev, norm_prev = 1.0, 0.0, 1.0
    limit = 0.0
    for k in range(3):
        norm = q @ q
        coef = (residual @ q) / norm
        residual = residual - coef * q
        limit += coef * at_zero
        if k == 2:
            break
        alpha = ((r * q) @ q) / norm
        beta = norm / norm_prev
        q, q_prev = (r - alpha) * q - beta * q_prev, q
        at_zero, at_zero_prev = -alpha * at_zero - beta * at_zero_prev, \
            at_zero
        norm_prev = norm
    return float(limit)
