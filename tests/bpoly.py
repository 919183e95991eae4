"""Bernstein-Bezier polynomial calculus on a single triangle: the
per-triangle reference the tests check the batched element passes against.

Polynomials are stored as B-net coefficient vectors over the degree-k
multi-indices in descending lexicographic order, i.e. (k,0,0), (k-1,1,0),
(k-1,0,1), ..., (0,0,k).  Evaluation at barycentric points is independent
of the triangle geometry; gradients and Laplacians use the (constant)
barycentric gradients stored in TriGeom.  `per_element` reads one
element's rows of a Space, which stores its bases per element class,
and the helpers below read one element's geometry and basis from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from igfem.elements import block_gradients, block_values
from igfem.poly import (_collocation_inverse, _reduction_maps, bernstein_values,
                        multi_indices, num_coeffs, triangle_geometry)


@dataclass(frozen=True)
class TriGeom:
    """Triangle geometry: vertices, area, and barycentric gradients."""

    vertices: np.ndarray    # (3, 2)
    area: float
    grad_lambda: np.ndarray  # (3, 2), rows sum to zero

    @classmethod
    def from_vertices(cls, verts) -> "TriGeom":
        verts = np.array(verts, dtype=float)
        if verts.shape != (3, 2):
            raise ValueError(f"expected 3 vertices in 2D, got shape {verts.shape}")
        g, area = triangle_geometry(verts)
        verts.setflags(write=False)
        g.setflags(write=False)
        return cls(vertices=verts, area=float(area), grad_lambda=g)

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


REF = TriGeom.from_vertices([(0, 0), (1, 0), (0, 1)])    # the reference triangle


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


def domain_points(k: int, geom: TriGeom) -> np.ndarray:
    """Physical domain points of the degree-k B-net, (ncoeff, 2)."""
    if k == 0:
        return geom.barycenter[None, :]
    alphas = np.array(multi_indices(k), dtype=float) / k
    return alphas @ geom.vertices


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


def bpoly_from_point_values(k: int, values, geom: TriGeom) -> BPoly:
    """The unique degree-k BPoly taking `values` at the degree-k domain points."""
    values = np.asarray(values, dtype=float)
    if values.shape != (num_coeffs(k),):
        raise ValueError(
            f"degree {k} needs {num_coeffs(k)} point values, got {values.shape}")
    coeffs = _collocation_inverse(k) @ values
    return BPoly(degree=k, coeffs=coeffs, geom=geom)


def per_element(space, name, eid=slice(None)):
    """Rows of the per-class Space array `name` (basis, grad_lambda or area)
    for element(s) eid, gathered by the class index `space.shape`."""
    return getattr(space, name)[space.shape[eid]]


def element_geom(space, eid, part=0):
    return TriGeom.from_vertices(space.vertices(eid)[part])


def basis_values(space, eid, bary, part=0):
    """Values (nb, P) of the basis of element eid on one part."""
    return block_values(per_element(space, "basis", eid)[None, :, part], space.k, bary)[0]


def basis_gradients(space, eid, bary, part=0):
    """Gradients (nb, P, 2) of the basis of element eid on one part."""
    return block_gradients(per_element(space, "basis", eid)[None, :, part], space.k,
                           per_element(space, "grad_lambda", eid)[part][None], bary)[0]


def random_geom(rng, scale=1.0):
    while True:
        v = rng.normal(size=(3, 2)) * scale
        det = (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - \
              (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
        if det < 0:
            v[[1, 2]] = v[[2, 1]]
            det = -det
        if det > 0.1 * scale * scale:
            return TriGeom.from_vertices(v)
