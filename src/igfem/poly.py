"""Bernstein-Bezier polynomial calculus on a single triangle.

Polynomials are stored as B-net coefficient vectors over the degree-k
multi-indices in descending lexicographic order, i.e. (k,0,0), (k-1,1,0),
(k-1,0,1), ..., (0,0,k).  Evaluation at barycentric points is independent
of the triangle geometry; gradients and Laplacians use the (constant)
barycentric gradients stored in TriGeom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

__all__ = [
    "TriGeom",
    "BPoly",
    "QuadRule",
    "multi_indices",
    "domain_points",
    "bernstein_values",
    "bpoly_eval",
    "bpoly_grad",
    "bpoly_laplacian",
    "bpoly_from_point_values",
    "make_quad_rule",
    "MAX_QUAD_DEGREE",
]

MAX_QUAD_DEGREE = 16


@dataclass(frozen=True)
class TriGeom:
    """Triangle geometry: vertices, area, and barycentric gradients."""

    vertices: np.ndarray    # (3, 2)
    area: float
    grad_lambda: np.ndarray  # (3, 2), rows sum to zero

    @classmethod
    def from_vertices(cls, verts) -> "TriGeom":
        verts = np.asarray(verts, dtype=float)
        if verts.shape != (3, 2):
            raise ValueError(f"expected 3 vertices in 2D, got shape {verts.shape}")
        v0, v1, v2 = verts
        det = (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v1[1] - v0[1]) * (v2[0] - v0[0])
        if det <= 0.0:
            raise ValueError(f"degenerate or negatively oriented triangle (2*area = {det})")
        # grad lambda_i is the inward normal of the opposite edge over 2*area
        g = np.empty((3, 2))
        for i in range(3):
            a, b = verts[(i + 1) % 3], verts[(i + 2) % 3]
            g[i] = ((a[1] - b[1]) / det, (b[0] - a[0]) / det)
        verts = verts.copy()
        verts.setflags(write=False)
        g.setflags(write=False)
        return cls(vertices=verts, area=0.5 * det, grad_lambda=g)

    @property
    def barycenter(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    @property
    def diameter(self) -> float:
        v = self.vertices
        return max(np.hypot(*(v[i] - v[j])) for i, j in ((0, 1), (1, 2), (2, 0)))

    def to_barycentric(self, point) -> np.ndarray:
        """Barycentric coordinates of a physical point."""
        p = np.asarray(point, dtype=float)
        lam = np.empty(3)
        for i in range(3):
            lam[i] = 1.0 / 3.0 + self.grad_lambda[i] @ (p - self.barycenter)
        return lam


@dataclass
class BPoly:
    """Polynomial of fixed degree on one triangle, in Bernstein form."""

    degree: int
    coeffs: np.ndarray
    geom: TriGeom

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        want = num_coeffs(self.degree)
        if self.coeffs.shape != (want,):
            raise ValueError(
                f"degree {self.degree} needs {want} coefficients, got {self.coeffs.shape}")


def num_coeffs(k: int) -> int:
    return (k + 1) * (k + 2) // 2


@lru_cache(maxsize=None)
def multi_indices(k: int) -> tuple[tuple[int, int, int], ...]:
    """Degree-k multi-indices in descending lexicographic order."""
    out = []
    for a in range(k, -1, -1):
        for b in range(k - a, -1, -1):
            out.append((a, b, k - a - b))
    return tuple(out)


@lru_cache(maxsize=None)
def _index_of(k: int) -> dict:
    return {alpha: i for i, alpha in enumerate(multi_indices(k))}


def domain_points(k: int, geom: TriGeom) -> np.ndarray:
    """Physical domain points of the degree-k B-net, (ncoeff, 2)."""
    if k == 0:
        return geom.barycenter[None, :]
    alphas = np.array(multi_indices(k), dtype=float) / k
    return alphas @ geom.vertices


def bernstein_values(k: int, bary: np.ndarray) -> np.ndarray:
    """All degree-k Bernstein basis values at barycentric points.

    bary: (P, 3) -> returns (P, ncoeff).
    """
    bary = np.atleast_2d(np.asarray(bary, dtype=float))
    m, a, b, c = _bernstein_table(k)
    # powers up to k
    pow1 = np.vander(bary[:, 0], k + 1, increasing=True)
    pow2 = np.vander(bary[:, 1], k + 1, increasing=True)
    pow3 = np.vander(bary[:, 2], k + 1, increasing=True)
    # C order, as BLAS products with this table round differently on a
    # transposed layout (pow1[:, a] would give one)
    return m * pow1.take(a, axis=1) * pow2.take(b, axis=1) * pow3.take(c, axis=1)


@lru_cache(maxsize=None)
def _bernstein_table(k: int) -> tuple[np.ndarray, ...]:
    """Multinomials k!/(a! b! c!) and the exponent columns a, b, c of the
    degree-k multi-indices, read-only."""
    m = np.array([factorial(k) // (factorial(a) * factorial(b) * factorial(c))
                  for a, b, c in multi_indices(k)], dtype=float)
    out = (m, *np.array(multi_indices(k)).T)
    for arr in out:
        arr.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _reduction_maps(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps R[i][beta] = index of beta + e_i in the degree-k table.

    Used to form directional-derivative coefficient arrays: for a degree-k
    coefficient vector c, the degree-(k-1) array D_i[beta] = c[beta + e_i].
    """
    idx = _index_of(k)
    lower = multi_indices(k - 1)
    maps = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        maps.append(np.array([idx[(b[0] + e[0], b[1] + e[1], b[2] + e[2])] for b in lower],
                             dtype=int))
    return tuple(maps)


def bpoly_eval(p: BPoly, bary) -> float | np.ndarray:
    """Evaluate at one barycentric triple or an array (P, 3) of them."""
    bary = np.asarray(bary, dtype=float)
    single = bary.ndim == 1
    vals = bernstein_values(p.degree, bary) @ p.coeffs
    return float(vals[0]) if single else vals


def bpoly_grad(p: BPoly, bary) -> np.ndarray:
    """Gradient at barycentric point(s); (2,) for a single point, else (P, 2)."""
    bary = np.asarray(bary, dtype=float)
    single = bary.ndim == 1
    k = p.degree
    if k == 0:
        g = np.zeros((1 if single else np.atleast_2d(bary).shape[0], 2))
        return g[0] if single else g
    maps = _reduction_maps(k)
    # vector-valued degree-(k-1) coefficients: sum_i c[beta+e_i] grad(lambda_i)
    gcoef = np.zeros((num_coeffs(k - 1), 2))
    for i in range(3):
        gcoef += np.outer(p.coeffs[maps[i]], p.geom.grad_lambda[i])
    vals = bernstein_values(k - 1, bary) @ (k * gcoef)
    return vals[0] if single else vals


def bpoly_laplacian(p: BPoly) -> BPoly:
    """Exact Laplacian as a degree-(k-2) BPoly on the same triangle."""
    k = p.degree
    if k < 2:
        raise ValueError(f"laplacian needs degree >= 2, got {k}")
    g = p.geom.grad_lambda
    gram = g @ g.T
    maps_k = _reduction_maps(k)
    # first reduction: three degree-(k-1) arrays c_i[beta] = c[beta + e_i]
    first = [p.coeffs[maps_k[i]] for i in range(3)]
    maps_k1 = _reduction_maps(k - 1)
    out = np.zeros(num_coeffs(k - 2))
    for i in range(3):
        for j in range(3):
            out += gram[i, j] * first[i][maps_k1[j]]
    out *= k * (k - 1)
    return BPoly(degree=k - 2, coeffs=out, geom=p.geom)


@lru_cache(maxsize=None)
def _collocation_inverse(k: int) -> np.ndarray:
    """Inverse of the Bernstein collocation matrix at the degree-k domain points."""
    if k == 0:
        return np.ones((1, 1))
    alphas = np.array(multi_indices(k), dtype=float) / k
    V = bernstein_values(k, alphas)
    return np.linalg.inv(V)


def bpoly_from_point_values(k: int, values, geom: TriGeom) -> BPoly:
    """The unique degree-k BPoly taking `values` at the degree-k domain points."""
    values = np.asarray(values, dtype=float)
    if values.shape != (num_coeffs(k),):
        raise ValueError(
            f"degree {k} needs {num_coeffs(k)} point values, got {values.shape}")
    coeffs = _collocation_inverse(k) @ values
    return BPoly(degree=k, coeffs=coeffs, geom=geom)


@dataclass(frozen=True)
class QuadRule:
    """Symmetric triangle quadrature: barycentric points, weights summing to 1.

    Integral over a triangle T:  area(T) * sum_i w_i f(p_i).
    """

    points: np.ndarray   # (P, 3)
    weights: np.ndarray  # (P,)
    exactness_degree: int


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _grundmann_moller(s: int) -> QuadRule:
    """Grundmann-Moller simplex rule of degree 2s+1 on the triangle."""
    d = 2 * s + 1
    pts, wts = [], []
    for i in range(s + 1):
        denom = d + 2 - 2 * i
        w = (-1.0) ** i * 2.0 ** (-2 * s) * denom ** d / (
            factorial(i) * factorial(d + 2 - i))
        for beta in _compositions(s - i, 3):
            pts.append([(2 * b + 1) / denom for b in beta])
            wts.append(w)
    pts = np.array(pts)
    wts = np.array(wts)
    wts /= wts.sum()
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadRule(points=pts, weights=wts, exactness_degree=d)


def make_quad_rule(required_degree: int) -> QuadRule:
    """A rule exact for all polynomials of degree <= required_degree (0..16)."""
    if not (0 <= required_degree <= MAX_QUAD_DEGREE):
        raise ValueError(
            f"required_degree must be in [0, {MAX_QUAD_DEGREE}], got {required_degree}")
    return _grundmann_moller(required_degree // 2)  # degree 2s+1 >= required
