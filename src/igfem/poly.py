"""Bernstein-Bezier tables and triangle quadrature for the element passes.

A degree-k polynomial on a triangle is a B-net coefficient vector over the
degree-k multi-indices in descending lexicographic order, i.e. (k,0,0),
(k-1,1,0), (k-1,0,1), ..., (0,0,k).  This module tabulates what the batched
passes in `elements`, `assembly` and `analysis` multiply those vectors with:
the Bernstein values at barycentric points (independent of the geometry),
the barycentric gradients and areas of stacked triangles, the index maps
that form derivative coefficients, the inverse collocation matrix at the
domain points, and Grundmann-Moller quadrature rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial

import numpy as np

__all__ = [
    "triangle_geometry",
    "QuadRule",
    "multi_indices",
    "bernstein_values",
    "make_quad_rule",
    "MAX_QUAD_DEGREE",
]

MAX_QUAD_DEGREE = 16


def triangle_geometry(verts) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric gradients (..., 3, 2) and areas (...) of triangles (..., 3, 2)."""
    v = np.asarray(verts, dtype=float)
    d1 = v[..., 1, :] - v[..., 0, :]
    d2 = v[..., 2, :] - v[..., 0, :]
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    if np.any(det <= 0.0):
        raise ValueError(f"degenerate or negatively oriented triangle (2*area = {np.min(det)})")
    # grad lambda_i is the inward normal of the opposite edge over 2*area
    a, b = v[..., [1, 2, 0], :], v[..., [2, 0, 1], :]
    g = np.stack([a[..., 1] - b[..., 1], b[..., 0] - a[..., 0]], axis=-1) / det[..., None, None]
    return g, 0.5 * det


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
    idx = {alpha: i for i, alpha in enumerate(multi_indices(k))}
    lower = multi_indices(k - 1)
    maps = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        maps.append(np.array([idx[(b[0] + e[0], b[1] + e[1], b[2] + e[2])] for b in lower],
                             dtype=int))
    return tuple(maps)


@lru_cache(maxsize=None)
def _collocation_inverse(k: int) -> np.ndarray:
    """Inverse of the Bernstein collocation matrix at the degree-k domain points."""
    if k == 0:
        return np.ones((1, 1))
    alphas = np.array(multi_indices(k), dtype=float) / k
    V = bernstein_values(k, alphas)
    return np.linalg.inv(V)


@dataclass(frozen=True)
class QuadRule:
    """Symmetric triangle quadrature: barycentric points, weights summing to 1.

    Integral over a triangle T:  area(T) * sum_i w_i f(p_i).
    """

    points: np.ndarray   # (P, 3)
    weights: np.ndarray  # (P,)
    exactness_degree: int
    _bernstein: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def bernstein(self, k: int) -> np.ndarray:
        """bernstein_values(k, points), built once per rule and degree: read-only and
        C-contiguous, the layout every element pass multiplies it in."""
        table = self._bernstein.get(k)
        if table is None:
            table = self._bernstein[k] = bernstein_values(k, self.points)
            table.setflags(write=False)
        return table


@lru_cache(maxsize=None)
def _grundmann_moller(s: int) -> QuadRule:
    """Grundmann-Moller simplex rule of degree 2s+1 on the triangle."""
    d = 2 * s + 1
    pts, wts = [], []
    for i in range(s + 1):
        denom = d + 2 - 2 * i
        w = (-1.0) ** i * 2.0 ** (-2 * s) * denom ** d / (
            factorial(i) * factorial(d + 2 - i))
        for beta in multi_indices(s - i):
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
