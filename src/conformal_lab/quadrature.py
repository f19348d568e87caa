"""Panel quadrature for integrands with a known pole structure.

Green's functions and their powers behave like r^(2-n) (or log r) at the
pole, which is integrable against the volume measure but defeats the
spectral quadrature of the basis.  The rules here are composite Gauss
panels away from the pole, geometrically graded panels toward it, and
on products a smooth partition of unity that splits the reduced
(s, chi) rectangle into a polar patch around the pole plus a blended
far region.

A rule is its node blocks ``[(points, weights)]`` (``sphere_blocks``,
``product_blocks``), in chart coordinates: a caller computes a density
at the nodes of each block, weights included, and pairs it with fields
by ``fields.pair``, or sums it where no field takes part.  The product
rule is mirror-symmetric under the circle offset ds -> -ds and has no
node on ds = 0, so ``product_blocks`` returns its ds > 0 half with
doubled weights, a rule for densities even about the pole; a density
that is not even is summed on both sides, each half block at s and at
its mirror 2 s0 - s with halved weights, which is the full rule.  The
product rule comes in slabs of at most ``SLAB_NODES`` nodes, so what a
caller forms per node it holds for one slab at a time: runs of whole
radial rows of the polar patch, pointwise, and runs of whole s rows of
the far rectangle, each an open mesh, an s column of shape (Ns, 1) and a
chi row of shape (1, Nx), so the layers below can tabulate along each
axis before they broadcast.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import gauss_jacobi

__all__ = ["extrapolate_to_zero", "product_blocks", "sphere_blocks"]

# the most nodes a block of ``product_blocks`` holds: whatever a caller
# forms per node, kernel jets or a pairing's moments, it holds for one
# block at a time
SLAB_NODES = 4096


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


def _charted(m, pole, blocks, graded_depth, resolution, **record):
    """Node blocks in pole coordinates moved to chart coordinates, with
    their node counts, the graded depth and ``record`` written to a
    ``resolution`` dict."""
    if resolution is not None:
        resolution.update(nodes=[w.size for _, w in blocks],
                          graded_depth=graded_depth, **record)
    return [(m.chart_from_pole(pole, *sep), w) for sep, w in blocks]


def _slabs(points, weights) -> list:
    """One piece of a rule, a (rows, columns) table of nodes given
    pointwise or as an open mesh, cut into node blocks of at most
    ``SLAB_NODES`` nodes: runs of whole rows, or runs of one row where a
    row alone holds more.  An axis of length one in a point array spans
    every row (or column) and is kept whole."""
    rows, cols = weights.shape
    dr = max(1, SLAB_NODES // cols)
    dc = min(cols, SLAB_NODES)
    out = []
    for i in range(0, rows, dr):
        for j in range(0, cols, dc):
            cut = (slice(i, i + dr), slice(j, j + dc))
            out.append((tuple(p[tuple(c if k > 1 else slice(None)
                                      for c, k in zip(cut, p.shape))]
                              for p in points), weights[cut]))
    return out


def sphere_blocks(m, pole, level: int = 1, graded_depth: int | None = None,
                  resolution: dict | None = None) -> list:
    """The graded rule of a sphere backend around ``pole`` as one
    pointwise node block, ``[((theta,), weights)]``.

    10-point Gauss panels grade geometrically toward ``pole``;
    ``level`` doubles the panel count per unit.  A ``resolution`` dict
    receives the node count (one block) and the graded depth.
    """
    n = m.n
    a = m.radius
    if graded_depth is None:
        graded_depth = 24 + 8 * level
    npan = 8 * 2 ** level
    xi0 = math.pi / 8
    edges = np.concatenate([
        _graded_edges(xi0, graded_depth)[:-1],
        np.linspace(xi0, math.pi, npan + 1),
    ])
    xi, w = _gauss_panels(edges, 10)
    surf = m.basis.orbit_area * a ** n * np.sin(xi) ** (n - 1)
    return _charted(m, pole, [((xi,), surf * w)], graded_depth, resolution)


def product_blocks(m, pole, level: int = 1,
                   resolution: dict | None = None) -> list:
    """The ds > 0 half of the graded product rule, as node blocks
    ``[((s, chi), weights)]`` with doubled weights: a rule for
    integrands that are even about ``pole`` under ds -> -ds.  Any other
    integrand is summed at s and at 2 s0 - s with halved weights, which
    is the full rule.

    A polar patch of radius r1 around the pole is integrated in
    (r, psi) shells graded toward r = 0; the complement is integrated
    on the full (s, chi) rectangle after multiplying by a C^4 cutoff
    that vanishes inside the patch, so both pieces see a smooth
    integrand.  Both use 6-point Gauss panels; the shells grade toward
    the pole by halves, 18 + 6 * level times, and the rectangle takes
    8 * 2**level panels per axis, more where the cut-off band
    (r1 - r0 = r1 / 2) would be narrower than 2**(level - 1) panels.

    The whole rule is mirror-symmetric under ds -> -ds, and no node lies
    on the mirror line ds = 0: the psi panels split [0, pi] at pi/2 and
    the s panels split [-l/2, l/2] symmetrically, and a Gauss panel has
    no node on its edges nor, with an even order, at its middle, where
    an odd s panel count puts ds = 0.  So the half keeps the near-patch
    columns with psi < pi/2 and the far-rectangle rows with ds > 0,
    selected from the full panelization, and its weights double.
    The polar patch is built along its axes, the trig on the psi values
    and the cut-off on the r values, but its nodes are not separable in
    (s, chi) and come pointwise; the far rectangle comes as an open mesh,
    an s column and a chi row.  Each piece is handed out in slabs of at
    most ``SLAB_NODES`` nodes, runs of whole rows (of one r, or of one
    s), and a row longer than that in runs of its columns.  A
    ``resolution`` dict receives the node counts of the two half pieces,
    [near, far], the graded depth and ``mirror="s"``.
    """
    d = m.sphere_dim
    b = m.radius
    ell = m.length
    graded_depth = 18 + 6 * level
    r1 = 0.25 * min(0.5 * ell, b * math.pi)
    r0 = 0.5 * r1
    orbit = m.basis.orbit_area * b ** (d - 1)

    # polar patch: ds = r cos(psi), b*chi = r sin(psi)
    redges = np.concatenate([_graded_edges(r0, graded_depth)[:-1],
                             np.linspace(r0, r1, 4 * 2 ** level + 1)])
    r_nodes, r_w = _gauss_panels(redges, 6)
    p_nodes, p_w = _gauss_panels(np.linspace(0.0, math.pi, 8 * 2 ** level + 1),
                                 6)
    half = p_nodes < 0.5 * math.pi
    # a radial column against a psi row: trig on the psi values and the
    # cut-off on the r values, broadcast only where they meet
    R, WR = r_nodes[:, None], r_w[:, None]
    psi, WP = p_nodes[half], 2.0 * p_w[half]
    ds = R * np.cos(psi)
    chi_eff = R * np.sin(psi) / b
    cut = 1.0 - smoothstep((R - r0) / (r1 - r0))
    # ds d(b chi) = r dr dpsi, so the jacobian is plain r
    meas = orbit * np.sin(chi_eff) ** (d - 1) * R
    near = ((ds, chi_eff), cut * meas * WR * WP)

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
    DS, CHI_EFF = np.meshgrid(s_nodes[half], x_nodes, indexing="ij",
                              sparse=True)
    WS, WX = np.meshgrid(2.0 * s_w[half], x_w, indexing="ij", sparse=True)
    rr = np.hypot(DS, b * CHI_EFF)
    cut_far = smoothstep((rr - r0) / (r1 - r0))
    meas = orbit * b * np.sin(CHI_EFF) ** (d - 1)
    far = ((DS, CHI_EFF), cut_far * meas * WS * WX)
    return [slab for piece in _charted(m, pole, [near, far], graded_depth,
                                       resolution, mirror="s")
            for slab in _slabs(*piece)]


def extrapolate_to_zero(radii, values) -> float:
    """Limit at r = 0 of samples values(r) = a + b r + c r^2 + ...: the
    constant of the quadratic fitted to the four smallest radii, by least
    squares."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(radii)[:4]
    r = radii[order]
    vander = r[:, None] ** np.arange(3)
    coef, *_ = np.linalg.lstsq(vander, values[order], rcond=None)
    return float(coef[0])
