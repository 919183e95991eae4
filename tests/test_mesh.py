import hashlib
import math
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import igfem
from igfem.mesh import build_crisscross_mesh, triangle_gauss_points


@pytest.mark.parametrize("level,nv,nt,ne,nb", [
    (1, 5, 4, 8, 4),        # 4 corners + 1 center
    (2, 13, 16, 28, 8),     # hand enumeration of the 2x2 grid
    (3, 41, 64, 104, 16),   # (n+1)^2 + n^2 and 4 n^2 with n = 4
])
def test_counts(level, nv, nt, ne, nb):
    m = build_crisscross_mesh(level)
    assert m.num_vertices == nv
    assert m.num_triangles == nt
    assert m.num_edges == ne
    assert int(m.edge_boundary.sum()) == nb
    assert m.num_macros == m.n ** 2
    assert m.h == pytest.approx(1.0 / m.n)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_euler_characteristic(level):
    m = build_crisscross_mesh(level)
    assert m.num_vertices - m.num_edges + m.num_triangles == 1


@pytest.mark.parametrize("level", [1, 2, 3])
def test_topology_invariants(level):
    m = build_crisscross_mesh(level)
    v = m.vertices
    t = m.triangles
    signed = ((v[t[:, 1], 0] - v[t[:, 0], 0]) * (v[t[:, 2], 1] - v[t[:, 0], 1])
              - (v[t[:, 1], 1] - v[t[:, 0], 1]) * (v[t[:, 2], 0] - v[t[:, 0], 0]))
    assert np.all(signed > 0)
    # interior edges have 2 adjacent triangles, boundary edges 1
    n_adjacent = (m.edge_tris >= 0).sum(axis=1)
    assert np.all(n_adjacent[m.edge_boundary] == 1)
    assert np.all(n_adjacent[~m.edge_boundary] == 2)
    # each triangle contains exactly one macro-square center
    centers = set(m.macro_centers.tolist())
    for tri in m.triangles:
        assert sum(1 for vid in tri if int(vid) in centers) == 1


def test_edge_id_inverts_edge_table():
    m = build_crisscross_mesh(3)
    ids = np.arange(m.num_edges)
    assert np.array_equal(m.edge_id(m.edges[:, 0], m.edges[:, 1]), ids)
    assert np.array_equal(m.edge_id(m.edges[:, 1], m.edges[:, 0]), ids)
    assert m.edge_id(*m.edges[7][::-1]) == 7
    with pytest.raises(KeyError):
        m.edge_id(0, m.num_vertices - 1)   # a corner and a far center


def _loop_mesh_arrays(level, perturb):
    """The loop-and-dict mesh builder the array form replaced, as a reference."""
    n = 2 ** (level - 1)
    h = 1.0 / n
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
        seed = zlib.crc32(f"crisscross {level} {round(perturb, 12)!r}".encode())
        rng = np.random.default_rng(seed)
        interior = ~vbnd
        interior[(n + 1) ** 2:] = False
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
            for a, b in ((sw, se), (se, ne), (ne, nw), (nw, sw)):
                tris.append((a, b, c))
    tris = np.array(tris, dtype=int)
    edge_index, edge_list, edge_tris = {}, [], []
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
    edge_tris = np.array(edge_tris, dtype=int)
    return {"vertices": verts, "vertex_boundary": vbnd,
            "edges": np.array(edge_list, dtype=int), "edge_tris": edge_tris,
            "edge_boundary": edge_tris[:, 1] < 0, "triangles": tris,
            "macro_corners": macro_corners, "macro_centers": macro_centers}


@pytest.mark.parametrize("perturb", [0.0, 0.2])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 6])
def test_mesh_bit_identical_to_loop_builder(level, perturb):
    # edge ids fix the DOF numbering, and with it A and cg_iters
    m = build_crisscross_mesh(level, perturb=perturb)
    for name, ref in _loop_mesh_arrays(level, perturb).items():
        got = getattr(m, name)
        assert got.dtype == ref.dtype, name
        assert np.array_equal(got, ref), name


def test_level_and_perturb_validation():
    with pytest.raises(ValueError):
        build_crisscross_mesh(0)
    with pytest.raises(ValueError):
        build_crisscross_mesh(2, perturb=0.3)
    with pytest.raises(ValueError):
        build_crisscross_mesh(2, perturb=-0.1)


def _edge01_gauss_points(a, b):
    """The two Gauss points of edge a-b: points 0-1 of a triangle with edge 01
    from a to b (the third vertex does not enter them)."""
    return triangle_gauss_points(np.array([a, b, a], dtype=float))[:2]


def test_gauss_points_unit_edge():
    g1, g2 = _edge01_gauss_points((0, 0), (1, 0))
    assert g1[0] == pytest.approx(0.2113248654, abs=1e-10)
    assert g2[0] == pytest.approx(0.7886751346, abs=1e-10)
    assert g1[1] == g2[1] == 0.0


def test_gauss_points_scaled_edge():
    g1, g2 = _edge01_gauss_points((0, 0), (0, 2))
    assert g1[1] == pytest.approx(0.4226497308, abs=1e-10)
    assert g2[1] == pytest.approx(1.5773502692, abs=1e-10)


def test_gauss_points_average_is_midpoint():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.normal(size=2), rng.normal(size=2)
        g1, g2 = _edge01_gauss_points(a, b)
        mid = 0.5 * (a + b)
        assert 0.5 * (g1[0] + g2[0]) == pytest.approx(mid[0], abs=1e-14)
        assert 0.5 * (g1[1] + g2[1]) == pytest.approx(mid[1], abs=1e-14)


def _conic_residual(pts):
    """Fit a conic through 5 points, evaluate at the 6th (scaled coordinates)."""
    c = pts.mean(axis=0)
    scale = np.abs(pts - c).max()
    q = (pts - c) / scale
    monos = np.column_stack([np.ones(6), q[:, 0], q[:, 1],
                             q[:, 0] ** 2, q[:, 0] * q[:, 1], q[:, 1] ** 2])
    _, _, vt = np.linalg.svd(monos[:5])
    coef = vt[-1]
    return abs(monos[5] @ coef) / np.linalg.norm(coef)


@pytest.mark.parametrize("perturb", [0.0, 0.2])
def test_six_gauss_points_on_a_conic(perturb):
    m = build_crisscross_mesh(3, perturb=perturb)
    rng = np.random.default_rng(11)
    for t in rng.choice(m.num_triangles, size=12, replace=False):
        pts = triangle_gauss_points(m.vertices[m.triangles[t]])
        assert _conic_residual(pts) < 1e-12


def test_perturbation_bounds_and_fixed_vertices():
    level = 3
    base = build_crisscross_mesh(level)
    m = build_crisscross_mesh(level, perturb=0.2)
    moved = np.linalg.norm(m.vertices - base.vertices, axis=1)
    assert moved.max() <= 0.2 * base.h * math.sqrt(2.0) + 1e-15
    # boundary vertices and centers stay put
    assert np.all(moved[base.vertex_boundary] == 0.0)
    assert np.all(moved[(base.n + 1) ** 2:] == 0.0)
    # deterministic
    m2 = build_crisscross_mesh(level, perturb=0.2)
    assert np.array_equal(m.vertices, m2.vertices)


def test_perturbed_mesh_same_in_every_process():
    # str hashing is salted per process (PEP 456); the seed must not use it
    script = ("import hashlib, igfem.mesh as m; v = m.build_crisscross_mesh(3, "
              "perturb=0.2).vertices; print(hashlib.sha256(v.tobytes()).hexdigest())")
    src = str(Path(igfem.__file__).resolve().parents[1])
    digests = []
    for hashseed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hashseed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
    here = build_crisscross_mesh(3, perturb=0.2).vertices
    assert digests[0] == hashlib.sha256(here.tobytes()).hexdigest()


@pytest.mark.parametrize("level,perturb", [(2, 0.05), (3, 0.15), (3, 0.29)])
def test_perturbed_mesh_valid_or_rejected(level, perturb):
    try:
        m = build_crisscross_mesh(level, perturb=perturb)
    except ValueError:
        return  # a flip was rejected, which is the documented behavior
    v, t = m.vertices, m.triangles
    signed = ((v[t[:, 1], 0] - v[t[:, 0], 0]) * (v[t[:, 2], 1] - v[t[:, 0], 1])
              - (v[t[:, 1], 1] - v[t[:, 0], 1]) * (v[t[:, 2], 0] - v[t[:, 0], 0]))
    assert np.all(signed > 0)


def test_mesh_immutable():
    m = build_crisscross_mesh(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 3.0
