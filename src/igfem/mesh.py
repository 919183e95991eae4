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
    nc = (n + 1) ** 2
    nv = nc + n * n
    cj, ci = np.divmod(np.arange(nc), n + 1)
    mj, mi = np.divmod(np.arange(n * n), n)
    verts = np.concatenate([np.stack([ci * h, cj * h], axis=1),
                            np.stack([(mi + 0.5) * h, (mj + 0.5) * h], axis=1)])
    vbnd = np.zeros(nv, dtype=bool)
    vbnd[:nc] = (ci == 0) | (ci == n) | (cj == 0) | (cj == n)

    if perturb > 0.0:
        # str hashes change from process to process (PEP 456); crc32 does not
        seed = zlib.crc32(f"crisscross {level} {round(perturb, 12)!r}".encode())
        rng = np.random.default_rng(seed)
        interior = ~vbnd
        interior[nc:] = False  # centers stay put
        shift = rng.uniform(-1.0, 1.0, size=(nv, 2)) * (perturb * h)
        verts[interior] += shift[interior]

    sw = mj * (n + 1) + mi
    macro_corners = np.stack([sw, sw + 1, sw + n + 2, sw + n + 1], axis=1)
    macro_centers = nc + np.arange(n * n)
    # cyclic: bottom, right, top, left; center last in each triangle
    tris = np.stack([macro_corners, np.roll(macro_corners, -1, axis=1),
                     np.repeat(macro_centers[:, None], 4, axis=1)], axis=2).reshape(-1, 3)

    # orientation check (also guards perturbation flips)
    v0, v1, v2 = (verts[tris[:, k]] for k in range(3))
    signed = (v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1]) - \
             (v1[:, 1] - v0[:, 1]) * (v2[:, 0] - v0[:, 0])
    if np.any(signed <= 0.0):
        raise ValueError("perturbation produced a non-positive triangle area")

    # edges (a, b), (b, c), (c, a) of each triangle in turn, numbered by first
    # appearance; an interior edge appears twice, in its two triangles
    pairs = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    codes = pairs[:, 0] * nv + pairs[:, 1]
    _, first = np.unique(codes, return_index=True)
    _, last = np.unique(codes[::-1], return_index=True)
    last = len(codes) - 1 - last
    order = np.argsort(first)
    first, last = first[order], last[order]
    edges = pairs[first]
    edge_tris = np.stack([first // 3, np.where(last > first, last // 3, -1)], axis=1)
    edge_boundary = edge_tris[:, 1] < 0

    mesh = Mesh(level=level, n=n, h=h, vertices=verts, vertex_boundary=vbnd,
                edges=edges, edge_tris=edge_tris, edge_boundary=edge_boundary,
                triangles=tris, macro_corners=macro_corners,
                macro_centers=macro_centers,
                perturbation=perturb)
    mesh._freeze()
    return mesh


def triangle_gauss_points(verts: np.ndarray) -> np.ndarray:
    """The six edge Gauss points, edges in order (01, 12, 20), of a triangle
    or a stack of them: verts (..., 3, d) -> (..., 6, d)."""
    verts = np.asarray(verts, dtype=float)
    start = verts[..., [0, 0, 1, 1, 2, 2], :]
    t = np.array([_GAUSS_T1, _GAUSS_T2] * 3)[:, None]
    return start + t * (verts[..., [1, 1, 2, 2, 0, 0], :] - start)
