"""Zonal spectral bases and quadrature on the manifold catalog.

The catalog holds round spheres S^n (n = 3..7) and the products
S^1(l) x S^2(b), S^1(l) x S^3(b).  Every field in the laboratory is
rotationally invariant about a fixed axis of the sphere (factor), so a
scalar field reduces to a function of the polar angle alone, and on a
product to a function of (circle arclength, polar angle).  The basis
functions are the zonal harmonics about that axis, orthonormalized with
respect to the manifold volume measure, paired with a real Fourier basis
on the circle factor.

Quadrature is Gauss-Jacobi in the polar cosine (the Jacobi weight
absorbs the sin^(d-1) surface factor exactly, which plain Gauss-Legendre
only achieves for a 2-sphere factor) and a uniform trapezoid rule on the
circle.  With nq polar nodes the rule integrates zonal polynomials of
degree <= 2*nq - 1 exactly; with N circle nodes it integrates
wavenumbers |k| <= N - 1 exactly.  The Gauss-Jacobi rule is built from
the same recurrence as the tables (Golub-Welsch): its nodes are the
eigenvalues of the symmetric tridiagonal Jacobi matrix, refined by one
Newton step on p_nq and symmetrized, and its weights are the Christoffel
numbers 1 / sum_{l<nq} p_l(t_i)^2.

The zonal polynomials and their t-derivatives are tabulated by the
orthonormal Jacobi three-term recurrence in one routine,
``zonal_polynomials``, which nothing outside this module calls.
``ModeBasis.polar_values`` and ``circle_values`` tabulate the normalized
modes at points, values only; ``polar_jets`` and ``circle_jets`` add the
first two derivatives, and the cached node tables are their frozen value
at the quadrature nodes.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import UnsupportedBackendError

KIND_SPHERE = "sphere"
# the circle products S^1(l) x S^d: kind -> sphere-factor dimension d
PRODUCT_KINDS = {"product-S1xS2": 2, "product-S1xS3": 3}


def sphere_area(d: int) -> float:
    """Surface measure of the unit d-sphere."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def harmonic_dimension(d: int, m: int) -> int:
    """Dimension of the degree-m spherical harmonic space on S^d."""
    if m == 0:
        return 1
    return math.comb(d + m, d) - math.comb(d + m - 2, d)


@lru_cache(maxsize=64)
def _recurrence_alpha(a: float, degree_max: int) -> np.ndarray:
    """alpha_l, l = 1..degree_max, of the orthonormal Jacobi recurrence,
    read-only."""
    l = np.arange(1, degree_max + 1)
    alpha = np.sqrt(l * (l + 2 * a)
                    / ((2 * l + 2 * a - 1) * (2 * l + 2 * a + 1)))
    alpha.setflags(write=False)
    return alpha


def zonal_polynomials(sphere_dim: int, degree_max: int, t: np.ndarray,
                      order: int = 2):
    """Orthonormal zonal polynomials on S^sphere_dim and t-derivatives.

    The polynomials p_l, orthonormal under the weight (1 - t^2)^a with
    a = (d - 2)/2, follow the three-term recurrence (DLMF 18.9.1)

        t p_l = alpha_{l+1} p_{l+1} + alpha_l p_{l-1},
        alpha_l^2 = l (l + 2a) / ((2l + 2a - 1) (2l + 2a + 1)),

    and the k-th t-derivative follows the same recurrence differentiated
    k times, with the extra term k p_l^(k-1) on the left.  All orders
    advance together, a degree at a time, in one table.

    Parameters
    ----------
    sphere_dim : int
        Dimension d of the sphere the zonal functions live on.
    degree_max : int
        Highest harmonic degree evaluated.
    t : array
        Polar cosines in [-1, 1].
    order : int
        Highest t-derivative tabulated.

    Returns
    -------
    tuple of order + 1 arrays of shape (t.size, degree_max + 1)
        Values, then the successive t-derivatives, each the transpose of
        a contiguous table: the callers' matrix products round by it.
    """
    a = (sphere_dim - 2) / 2.0
    t = np.asarray(t, dtype=float).ravel()
    alpha = _recurrence_alpha(a, degree_max)
    tab = np.zeros((degree_max + 1, order + 1, t.size))
    # p_0 = 1 / sqrt(int (1 - t^2)^a dt)
    tab[0, 0] = math.sqrt(math.gamma(a + 1.5) / (math.sqrt(math.pi)
                                                  * math.gamma(a + 1.0)))
    ks = np.arange(1.0, order + 1)[:, None]
    term = np.empty((order + 1, t.size))
    for l in range(degree_max):
        nxt = np.multiply(t, tab[l], out=tab[l + 1])
        if order:
            nxt[1:] += np.multiply(ks, tab[l, :-1], out=term[1:])
        if l:
            nxt -= np.multiply(alpha[l - 1], tab[l - 1], out=term)
        nxt /= alpha[l]
    return tuple(np.ascontiguousarray(tab[:, k]).T for k in range(order + 1))


@dataclass(frozen=True)
class ModeBasis:
    """Discretization of one catalog manifold.

    Fields are stored as coefficients against the orthonormal zonal/Fourier
    modes and as values on the tensor quadrature grid.  ``sphere_dim`` is
    the dimension of the sphere (factor); products add a circle of length
    ``length``.  ``radius`` scales the sphere (factor).
    """

    kind: str
    sphere_dim: int
    degree_max: int
    fourier_max: int
    radius: float
    length: float
    sphere_nodes: int
    circle_nodes: int

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash, taken once: every grid transform looks its node
        tables up by basis."""
        return hash(astuple(self))

    # ---------------------------------------------------------------- setup
    @staticmethod
    def for_sphere(n: int, degree_max: int, radius: float = 1.0,
                   nodes: int | None = None) -> "ModeBasis":
        if nodes is None:
            nodes = max(degree_max + 1, (3 * (degree_max + 1)) // 2)
        return ModeBasis(KIND_SPHERE, n, degree_max, 0, float(radius), 0.0,
                         int(nodes), 0)

    @staticmethod
    def for_product(kind: str, degree_max: int, fourier_max: int,
                    length: float, radius: float = 1.0,
                    sphere_nodes: int | None = None,
                    circle_nodes: int | None = None) -> "ModeBasis":
        if kind not in PRODUCT_KINDS:
            raise UnsupportedBackendError(f"unknown product kind {kind!r}")
        d = PRODUCT_KINDS[kind]
        if sphere_nodes is None:
            sphere_nodes = max(degree_max + 1, (3 * (degree_max + 1)) // 2)
        if circle_nodes is None:
            circle_nodes = max(2 * fourier_max + 1, 3 * fourier_max + 2)
        return ModeBasis(kind, d, degree_max, fourier_max, float(radius),
                         float(length), int(sphere_nodes), int(circle_nodes))

    # ------------------------------------------------------------ structure
    @property
    def is_product(self) -> bool:
        return self.kind in PRODUCT_KINDS

    @property
    def orbit_area(self) -> float:
        """Area of the unit orbit sphere of the zonal reduction."""
        return sphere_area(self.sphere_dim - 1)

    @property
    def polar_norm(self) -> float:
        """Measure carried by one unit of the polar weight (1-t^2)^a."""
        return self.orbit_area * self.radius ** self.sphere_dim

    @property
    def volume(self) -> float:
        v_sph = sphere_area(self.sphere_dim) * self.radius ** self.sphere_dim
        if self.is_product:
            return self.length * v_sph
        return v_sph

    @property
    def circle_mode_count(self) -> int:
        return 2 * self.fourier_max + 1 if self.is_product else 1

    @property
    def sphere_mode_count(self) -> int:
        return self.degree_max + 1

    @property
    def mode_shape(self) -> tuple:
        """Shape of a coefficient table: (circle modes, degrees) on a
        product, (degrees,) on a sphere."""
        if self.is_product:
            return (self.circle_mode_count, self.sphere_mode_count)
        return (self.sphere_mode_count,)

    @property
    def grid_shape(self) -> tuple:
        if self.is_product:
            return (self.circle_nodes, self.sphere_nodes)
        return (self.sphere_nodes,)

    def circle_wavenumber(self, j: int) -> int:
        return (j + 1) // 2

    # ----------------------------------------------------------- quadrature
    def polar_rule(self):
        """Gauss-Jacobi nodes t (ascending) and weights for the polar factor."""
        t, w, _ = gauss_jacobi(self.sphere_dim, self.sphere_nodes)
        return t, w

    def polar_nodes(self):
        """Cosines t and sines sqrt(1 - t^2) of the polar node angles."""
        t, _, sin_t = gauss_jacobi(self.sphere_dim, self.sphere_nodes)
        return t, sin_t

    def polar_angles(self) -> np.ndarray:
        t, _ = self.polar_rule()
        return np.arccos(t)

    def circle_points(self) -> np.ndarray:
        return np.arange(self.circle_nodes) * (self.length / self.circle_nodes)

    def quadrature_weights(self) -> np.ndarray:
        """Manifold measure weights on the grid (same shape as the grid)."""
        _, w = self.polar_rule()
        w_sph = self.polar_norm * w
        if not self.is_product:
            return w_sph
        w_circ = np.full(self.circle_nodes, self.length / self.circle_nodes)
        return np.outer(w_circ, w_sph)

    @property
    def polar_exactness(self) -> int:
        """Largest zonal polynomial degree integrated exactly."""
        return 2 * self.sphere_nodes - 1

    @property
    def circle_exactness(self) -> int:
        """Largest Fourier wavenumber integrated exactly."""
        return self.circle_nodes - 1 if self.is_product else 0

    # --------------------------------------------------------- value tables
    def polar_tables(self):
        """(P0, P1, P2) for all modes at the polar quadrature nodes."""
        return _polar_tables(self)

    def circle_tables(self):
        """(U0, U1, U2) for all circle modes at the circle nodes."""
        return _circle_tables(self)

    def polar_values(self, t: np.ndarray) -> np.ndarray:
        """P0, the normalized zonal modes at polar cosines t."""
        (P0,) = self._polar(t, 0)
        return P0

    def polar_jets(self, t: np.ndarray):
        """(P0, P1, P2), the normalized zonal modes at polar cosines t and
        their first two t-derivatives."""
        return self._polar(t, 2)

    def _polar(self, t, order: int):
        tabs = zonal_polynomials(self.sphere_dim, self.degree_max, t, order)
        norm = math.sqrt(self.polar_norm)
        for tab in tabs:  # freshly tabulated, so normalized in place
            tab /= norm
        return tabs

    def circle_values(self, s: np.ndarray) -> np.ndarray:
        """U0, the normalized real Fourier modes at points s."""
        (U0,) = _circle_values(self.fourier_max, self.length, s, 0)
        return U0

    def circle_jets(self, s: np.ndarray):
        """(U0, U1, U2), the normalized real Fourier modes at points s and
        their first two s-derivatives."""
        return _circle_values(self.fourier_max, self.length, s, 2)

    # ---------------------------------------------------------- eigenvalues
    def sphere_factor_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -Laplace on the sphere (factor), per degree."""
        m = np.arange(self.sphere_mode_count, dtype=float)
        return m * (m + self.sphere_dim - 1) / self.radius ** 2

    def circle_factor_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -d^2/ds^2 on the circle, per real mode."""
        if not self.is_product:
            return np.zeros(1)
        j = np.arange(self.circle_mode_count)
        k = (j + 1) // 2
        return (2.0 * math.pi * k / self.length) ** 2

    def neg_laplacian_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -Laplace per mode, shaped like the mode table."""
        lam_s = self.sphere_factor_eigenvalues()
        if not self.is_product:
            return lam_s
        lam_c = self.circle_factor_eigenvalues()
        return lam_c[:, None] + lam_s[None, :]

    def multiplicities(self) -> np.ndarray:
        """True eigenspace dimensions carried by each reduced mode."""
        mult_s = np.array(
            [harmonic_dimension(self.sphere_dim, m)
             for m in range(self.sphere_mode_count)], dtype=int)
        if not self.is_product:
            return mult_s
        ones = np.ones(self.circle_mode_count, dtype=int)
        return np.outer(ones, mult_s)


@lru_cache(maxsize=64)
def gauss_jacobi(sphere_dim: int, nodes: int):
    """Gauss-Jacobi nodes t (ascending), weights and sqrt(1 - t^2) for the
    weight (1 - t^2)^a, a = (sphere_dim - 2)/2, read-only; sphere_dim 2
    gives Gauss-Legendre."""
    d, nq = sphere_dim, nodes
    # Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix,
    # whose off-diagonal is the recurrence's alpha (its diagonal is zero)
    t = np.linalg.eigvalsh(np.diag(_recurrence_alpha((d - 2) / 2.0,
                                                     nq - 1), 1), UPLO="U")
    p, dp = zonal_polynomials(d, nq, t, order=1)
    t = t - p[:, nq] / dp[:, nq]
    # the weight (1 - t^2)^a is even, so the nodes are symmetric
    t = 0.5 * (t - t[::-1])
    # Christoffel numbers: orthonormal p_l make sum(w) = int (1 - t^2)^a
    (p,) = zonal_polynomials(d, nq - 1, t, order=0)
    return _frozen((t, 1.0 / np.sum(p * p, axis=1), np.sqrt(1.0 - t ** 2)))


def _frozen(arrays: tuple) -> tuple:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def _polar_tables(basis: ModeBasis):
    t, _ = basis.polar_rule()
    return _frozen(basis.polar_jets(t))


def _circle_values(fourier_max: int, length: float, s: np.ndarray,
                   order: int):
    """The real Fourier modes at points s and their s-derivatives up to
    ``order``, 0 or 2.

    cos(k w s) and sin(k w s) follow the Chebyshev recurrence
    f_k = 2 cos(w s) f_(k-1) - f_(k-2) from one cos and one sin per
    point; a derivative swaps each (cos, sin) pair and scales it by
    (-k w, k w).  Each table is filled mode by mode, in rows over the
    points, and returned transposed, (point, mode).
    """
    s = np.atleast_1d(np.asarray(s, dtype=float)).ravel()
    om = 2.0 * math.pi / length
    U0 = np.empty((2 * fourier_max + 1, s.size))
    U0[0] = 1.0 / math.sqrt(length)
    pairs = U0[1:].reshape(fourier_max, 2, s.size)  # (k - 1, cos | sin)
    if fourier_max:
        amp = math.sqrt(2.0 / length)
        pairs[0] = np.cos(om * s), np.sin(om * s)
        two_c = 2.0 * pairs[0, 0]
        pairs[0] *= amp
        prev = np.array([[amp], [0.0]])    # k = 0
        for k in range(1, fourier_max):
            np.multiply(two_c, pairs[k - 1], out=pairs[k])
            pairs[k] -= prev
            prev = pairs[k - 1]
    if not order:
        return (U0.T,)
    k_om = om * np.arange(1.0, fourier_max + 1)[:, None, None]
    U1, U2 = np.zeros_like(U0), np.zeros_like(U0)
    np.multiply(pairs[:, ::-1], k_om * np.array([[-1.0], [1.0]]),
                out=U1[1:].reshape(pairs.shape))
    np.multiply(pairs, -k_om ** 2, out=U2[1:].reshape(pairs.shape))
    return U0.T, U1.T, U2.T


@lru_cache(maxsize=64)
def _circle_tables(basis: ModeBasis):
    return _frozen(basis.circle_jets(basis.circle_points()))
