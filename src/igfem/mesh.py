"""Criss-cross triangulations of the unit square.

Level L has n = 2**(L-1) macro-squares per side; each square is split by
both diagonals into 4 triangles meeting at a center vertex.  Vertices are
numbered corners first (row-major), then centers (row-major), so that all
derived orderings are deterministic.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh",
    "build_crisscross_mesh",
    "edge_gauss_points",
    "triangle_gauss_points",
]

# 2-point Gauss-Legendre parameters on [0, 1]
_GAUSS_T1 = 0.5 * (1.0 - 1.0 / math.sqrt(3.0))
_GAUSS_T2 = 0.5 * (1.0 + 1.0 / math.sqrt(3.0))


@dataclass
class Mesh:
    """Immutable criss-cross mesh of the unit square.

    Triangles of each macro-square appear consecutively in cyclic order
    (bottom, right, top, left); every triangle lists its center vertex last.
    """

    level: int
    n: int
    h: float
    vertices: np.ndarray          # (V, 2) float
    vertex_boundary: np.ndarray   # (V,) bool
    edges: np.ndarray             # (E, 2) int, sorted vertex pairs
    edge_tris: np.ndarray         # (E, 2) int, -1 where absent
    edge_boundary: np.ndarray     # (E,) bool
    triangles: np.ndarray         # (T, 3) int, positively oriented
    macro_corners: np.ndarray     # (M, 4) int  (SW, SE, NE, NW)
    macro_centers: np.ndarray     # (M,) int
    perturbation: float = 0.0

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_macros(self) -> int:
        return len(self.macro_corners)

    def edge_id(self, v0, v1):
        """Edge ids of the vertex pairs (v0[i], v1[i]), in either order.

        Takes vertex ids or arrays of them; raises KeyError for a pair that
        is not an edge.
        """
        nv = self.num_vertices
        codes = self.edges[:, 0] * nv + self.edges[:, 1]
        order = np.argsort(codes)
        query = np.minimum(v0, v1) * nv + np.maximum(v0, v1)
        ids = order[np.minimum(np.searchsorted(codes[order], query), len(order) - 1)]
        if np.any(codes[ids] != query):
            raise KeyError(f"not an edge of the mesh: ({v0}, {v1})")
        return ids

    def _freeze(self) -> None:
        for a in (self.vertices, self.vertex_boundary, self.edges,
                  self.edge_tris, self.edge_boundary, self.triangles,
                  self.macro_corners, self.macro_centers):
            a.setflags(write=False)


def build_crisscross_mesh(level: int, perturb: float = 0.0) -> Mesh:
    """Build the level-`level` criss-cross mesh (n = 2**(level-1) squares per side).

    `perturb` > 0 displaces interior lattice vertices by at most perturb*h
    (deterministic), leaving boundary vertices and square centers in place.
    Raises ValueError if the displacement would flip a triangle.
    """
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if not (0.0 <= perturb < 0.3):
        raise ValueError(f"perturb must be in [0, 0.3), got {perturb}")

    n = 2 ** (level - 1)
    h = 1.0 / n

    # corners row-major, then centers row-major
    corner_id = lambda i, j: j * (n + 1) + i
    center_id = lambda i, j: (n + 1) ** 2 + j * n + i

    nv = (n + 1) ** 2 + n * n
    verts = np.zeros((nv, 2))
    vbnd = np.zeros(nv, dtype=bool)
    for j in range(n + 1):
        for i in range(n + 1):
            verts[corner_id(i, j)] = (i * h, j * h)
            vbnd[corner_id(i, j)] = i == 0 or i == n or j == 0 or j == n
    for j in range(n):
        for i in range(n):
            verts[center_id(i, j)] = ((i + 0.5) * h, (j + 0.5) * h)

    if perturb > 0.0:
        # str hashes change from process to process (PEP 456); crc32 does not
        seed = zlib.crc32(f"crisscross {level} {round(perturb, 12)!r}".encode())
        rng = np.random.default_rng(seed)
        interior = ~vbnd
        interior[(n + 1) ** 2:] = False  # centers stay put
        shift = rng.uniform(-1.0, 1.0, size=(nv, 2)) * (perturb * h)
        verts[interior] += shift[interior]

    tris = []
    macro_corners = np.zeros((n * n, 4), dtype=int)
    macro_centers = np.zeros(n * n, dtype=int)
    for j in range(n):
        for i in range(n):
            m = j * n + i
            sw, se = corner_id(i, j), corner_id(i + 1, j)
            ne, nw = corner_id(i + 1, j + 1), corner_id(i, j + 1)
            c = center_id(i, j)
            macro_corners[m] = (sw, se, ne, nw)
            macro_centers[m] = c
            # cyclic: bottom, right, top, left; center last in each triangle
            for a, b in ((sw, se), (se, ne), (ne, nw), (nw, sw)):
                tris.append((a, b, c))
    tris = np.array(tris, dtype=int)

    # orientation check (also guards perturbation flips)
    v0, v1, v2 = (verts[tris[:, k]] for k in range(3))
    signed = (v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1]) - \
             (v1[:, 1] - v0[:, 1]) * (v2[:, 0] - v0[:, 0])
    if np.any(signed <= 0.0):
        raise ValueError("perturbation produced a non-positive triangle area")

    # edges from triangles, deterministic order
    edge_index: dict[tuple, int] = {}
    edge_list: list[tuple] = []
    edge_tris: list[list[int]] = []
    for t, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            e = edge_index.get(key)
            if e is None:
                e = len(edge_list)
                edge_index[key] = e
                edge_list.append(key)
                edge_tris.append([t, -1])
            else:
                edge_tris[e][1] = t
    edges = np.array(edge_list, dtype=int)
    edge_tris = np.array(edge_tris, dtype=int)
    edge_boundary = edge_tris[:, 1] < 0

    mesh = Mesh(level=level, n=n, h=h, vertices=verts, vertex_boundary=vbnd,
                edges=edges, edge_tris=edge_tris, edge_boundary=edge_boundary,
                triangles=tris, macro_corners=macro_corners,
                macro_centers=macro_centers,
                perturbation=perturb)
    mesh._freeze()
    return mesh


def edge_gauss_points(p0, p1) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two 2-point Gauss-Legendre nodes of segment p0-p1, in parameter order.

    p0 and p1 are (x, y) pairs; so are the two nodes returned.
    """
    (x0, y0), (x1, y1) = p0, p1
    dx, dy = x1 - x0, y1 - y0
    if dx * dx + dy * dy == 0.0:
        raise ValueError("degenerate edge: endpoints coincide")
    return ((x0 + _GAUSS_T1 * dx, y0 + _GAUSS_T1 * dy),
            (x0 + _GAUSS_T2 * dx, y0 + _GAUSS_T2 * dy))


def triangle_gauss_points(verts: np.ndarray) -> np.ndarray:
    """The six edge Gauss points, edges in order (01, 12, 20), of a triangle
    or a stack of them: verts (..., 3, d) -> (..., 6, d)."""
    verts = np.asarray(verts, dtype=float)
    start = verts[..., [0, 0, 1, 1, 2, 2], :]
    t = np.array([_GAUSS_T1, _GAUSS_T2] * 3)[:, None]
    return start + t * (verts[..., [1, 1, 2, 2, 0, 0], :] - start)
