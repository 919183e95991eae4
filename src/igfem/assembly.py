"""Global DOF numbering, f-interpolated interior coefficients, and assembly
of the reduced symmetric Galerkin system.

Free unknowns live on mesh entities (vertices, edge nodes); interior slots
are either interpolated directly from f (interpolated families) or kept as
ordinary unknowns (Lagrange and the standard nonconforming baseline).
Homogeneous Dirichlet DOFs are eliminated by row/column deletion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import elements as el
from .mesh import Mesh
from .poly import (bernstein_values, make_quad_rule, multi_indices, num_coeffs,
                   triangle_geometry, MAX_QUAD_DEGREE)

__all__ = [
    "FAMILIES",
    "INTERPOLATED_FAMILIES",
    "Space",
    "DofMap",
    "SparseSystem",
    "resolve_degree",
    "build_space",
    "build_dof_map",
    "interior_coefficients",
    "assemble_system",
    "load_rule_degree",
    "stiffness_rule_degree",
]

FAMILIES = ("p2c_interp", "p2nc_interp", "p2nc_std", "p3_interp",
            "pk_interp", "pk_lagrange")
INTERPOLATED_FAMILIES = ("p2c_interp", "p2nc_interp", "p3_interp", "pk_interp")
_FIXED_DEGREE = {"p2c_interp": 2, "p2nc_interp": 2, "p2nc_std": 2, "p3_interp": 3}


def resolve_degree(family: str, k: int | None = None) -> int:
    """Validate family/degree and return the effective polynomial degree."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    fixed = _FIXED_DEGREE.get(family)
    if fixed is not None:
        if k is not None and k != fixed:
            raise ValueError(f"family {family} has degree {fixed}, got k={k}")
        return fixed
    if k is None:
        raise ValueError(f"family {family} needs an explicit degree")
    if family == "pk_interp" and k < 4:
        raise ValueError(f"pk_interp needs k >= 4, got {k}")
    if family == "pk_lagrange" and k < 1:
        raise ValueError(f"pk_lagrange needs k >= 1, got {k}")
    if k > 8:
        raise ValueError(f"degree {k} exceeds the supported quadrature range (k <= 8)")
    return k


def stiffness_rule_degree(k: int) -> int:
    return min(max(2 * k - 2, 0), MAX_QUAD_DEGREE)


def load_rule_degree(k: int) -> int:
    return min(2 * k + 2, MAX_QUAD_DEGREE)


def norm_rule_degree(k: int) -> int:
    return min(2 * k + 4, MAX_QUAD_DEGREE)


@dataclass
class DofMap:
    """Global numbering of the local slots of every element.

    `dofs[e, m]` is the free unknown of local slot m of element e, or -1
    where that slot has none: a Dirichlet boundary slot, or an interpolated
    slot.  The interpolated slots sit at the same local positions in every
    element (`interp_mask`); their coefficients come from f.
    """

    n_free: int
    dofs: np.ndarray         # (E, nb) int
    interp_mask: np.ndarray  # (nb,) bool

    @property
    def n_elements(self) -> int:
        return len(self.dofs)

    @property
    def n_interp(self) -> int:
        return self.n_elements * int(self.interp_mask.sum())

    @property
    def local_free_slots(self) -> int:
        """Non-interpolated local slots per element."""
        return int((~self.interp_mask).sum())


def build_dof_map(mesh: Mesh, family: str, k: int | None = None) -> DofMap:
    """Number global DOFs: shared entities identified, boundary DOFs constrained.

    Interior slots are interpolated for the interpolated families; for
    pk_lagrange and p2nc_std they are ordinary free unknowns.  Free unknowns
    are numbered in the order of their entity keys: vertices, then edge
    nodes (edge id, position along the edge), then element-interior slots
    (element id, slot).
    """
    k = resolve_degree(family, k)
    if family == "p2c_interp" and mesh.perturbation != 0.0:
        raise ValueError("p2c_interp requires an unperturbed criss-cross mesh")

    # the vertices the node multi-indices run over, per element
    ents = mesh.macro_corners if family == "p2c_interp" else mesh.triangles
    t = np.arange(len(ents))
    alphas, n_interior = el.slot_layout(family, k)
    interior = sorted(a for a in multi_indices(k) if min(a) > 0)
    # per local slot: (key category, entity id, position, on the boundary)
    # over all elements, or None for an interpolated slot
    columns = []
    for alpha in alphas:
        nz = [i for i in range(len(alpha)) if alpha[i] > 0]
        if len(nz) == 1:
            v = ents[:, nz[0]]
            columns.append((0, v, 0, mesh.vertex_boundary[v]))
        elif len(nz) == 2:
            i, j = nz
            vi, vj = ents[:, i], ents[:, j]
            e = mesh.edge_id(vi, vj)
            columns.append((1, e, np.where(vi < vj, alpha[j], alpha[i]),
                            mesh.edge_boundary[e]))
        else:  # interior lattice node, ranked in lexicographic order
            columns.append((3, t, interior.index(alpha), False))
    interpolated = family in INTERPOLATED_FAMILIES
    columns += [None if interpolated else (2, t, j, False) for j in range(n_interior)]

    # one integer per entity key, ordered as the keys are
    stride = max(mesh.num_vertices, mesh.num_edges, mesh.num_triangles,
                 len(columns)) + 1
    code = np.zeros((len(ents), len(columns)), dtype=np.int64)
    boundary = np.zeros((len(ents), len(columns)), dtype=bool)
    for m, col in enumerate(columns):
        if col is not None:
            category, entity, position, bnd = col
            code[:, m] = (category * stride + entity) * stride + position
            boundary[:, m] = bnd
    interp_mask = np.array([col is None for col in columns])
    free = ~boundary & ~interp_mask
    keys, index = np.unique(code[free], return_inverse=True)
    dofs = np.full(code.shape, -1, dtype=np.int64)
    dofs[free] = index
    return DofMap(n_free=len(keys), dofs=dofs, interp_mask=interp_mask)


@dataclass
class Space:
    """Mesh + family + the local bases of all elements + global DOF map.

    Element e (a triangle, or a macro square for p2c) has parts p, the
    triangles its basis is polynomial on; `basis[e, i, p]` holds the
    Bernstein coefficients of basis function i on part p.
    """

    mesh: Mesh
    family: str
    k: int
    dof_map: DofMap
    basis: np.ndarray               # (E, nb, parts, nc), C-contiguous
    verts: np.ndarray               # (E, parts, 3, 2)
    grad_lambda: np.ndarray         # (E, parts, 3, 2)
    area: np.ndarray                # (E, parts)
    node_xy: np.ndarray             # (E, n_node, 2) points of the node slots
    lap_xy: np.ndarray | None       # (E, 2) Laplacian points: p2c, p2nc, p3
    moments: np.ndarray | None      # (E, d, nc_{k-3}) pk_interp: orthonormal p_j

    @property
    def n_elements(self) -> int:
        return len(self.basis)


BLOCK_BYTES = 256 * 1024   # per block's gradient table; larger blocks raise peak memory


def block_size(k: int, nb: int, parts: int) -> int:
    """Elements per block of every element pass: as many gradient tables (nb, parts,
    P, 2) at the norm rule, the passes' largest, as fit in BLOCK_BYTES, and at least 8."""
    P = len(make_quad_rule(norm_rule_degree(k)).weights)
    return max(8, BLOCK_BYTES // (nb * parts * P * 16))


def build_space(mesh: Mesh, family: str, k: int | None = None) -> Space:
    k = resolve_degree(family, k)
    dof_map = build_dof_map(mesh, family, k)
    lap_xy = moments = None
    if family == "p2c_interp":
        corners = mesh.vertices[mesh.macro_corners]                 # (M, 4, 2)
        lap_xy = mesh.vertices[mesh.macro_centers]
        basis = el.build_p2c_macro_basis(corners, lap_xy)
        verts = np.stack([corners, np.roll(corners, -1, axis=1),
                          np.repeat(lap_xy[:, None], 4, axis=1)], axis=2)
    else:
        corners = mesh.vertices[mesh.triangles]                     # (T, 3, 2)
        verts = corners[:, None]
        if family == "pk_interp":
            basis = np.empty((len(corners), num_coeffs(k), 1, num_coeffs(k)))
            moments = np.empty((len(corners), num_coeffs(k - 3), num_coeffs(k - 3)))
            step = block_size(k, num_coeffs(k), 1)
            for start in range(0, len(corners), step):
                s = slice(start, start + step)
                basis[s], moments[s] = el.build_pk_basis(corners[s], k)
        elif family == "pk_lagrange":
            basis = el.build_lagrange_basis(corners, k)
        elif family == "p3_interp":
            basis = el.build_p3_basis(corners)
        else:
            basis = el.build_p2nc_element(corners, standard=family == "p2nc_std")
        if family in ("p2nc_interp", "p2nc_std", "p3_interp"):
            lap_xy = corners.mean(axis=1)
    grad_lambda, area = triangle_geometry(verts)
    alphas, _ = el.slot_layout(family, k)
    node_xy = (np.array(alphas, dtype=float) / k) @ corners
    return Space(mesh=mesh, family=family, k=k, dof_map=dof_map, basis=basis,
                 verts=verts, grad_lambda=grad_lambda, area=area, node_xy=node_xy,
                 lap_xy=lap_xy, moments=moments)


def element_blocks(space: Space):
    """Blocks of consecutive elements as (slice, basis (B, nb, parts, nc),
    vertices (B, parts, 3, 2), grad_lambda (B, parts, 3, 2), area (B, parts))."""
    step = block_size(space.k, *space.basis.shape[1:3])      # nb, parts
    for start in range(0, space.n_elements, step):
        s = slice(start, start + step)
        yield s, space.basis[s], space.verts[s], space.grad_lambda[s], space.area[s]


def interior_coefficients(space: Space, f) -> np.ndarray:
    """Coefficients of the interpolated interior basis functions, (E, n_int).

    Pointwise families take f at the Laplacian point (the -1 normalization
    makes the coefficient +f); the moment element takes c_j = -int p_j b f,
    the value the moment functional assumes on the exact solution.
    """
    if space.family in ("p2c_interp", "p2nc_interp", "p3_interp"):
        return f(space.lap_xy[:, 0], space.lap_xy[:, 1])[:, None]
    if space.family != "pk_interp":
        return np.zeros((space.n_elements, 0))
    rule = make_quad_rule(load_rule_degree(space.k))
    bv = bernstein_values(3, rule.points) @ el.BUBBLE
    low = bernstein_values(space.k - 3, rule.points)
    c = np.zeros((space.n_elements, space.dof_map.interp_mask.sum()))
    for s, _, verts, _, area in element_blocks(space):
        pj = space.moments[s]
        xy = rule.points @ verts[:, 0]
        fv = f(xy[..., 0], xy[..., 1])
        w = rule.weights * area
        for j in range(pj.shape[1]):
            pv = (low @ pj[:, j, :, None])[..., 0]            # one gemv per p_j
            c[s, j] = (-(w * bv * pv)[:, None, :] @ fv[:, :, None])[:, 0, 0]
    return c


@dataclass
class SparseSystem:
    """Reduced Galerkin system: A x = F over the free DOFs."""

    A: sp.csr_array
    F: np.ndarray
    interp_coeffs: np.ndarray    # (E, n_interp per element); zero columns for baselines


def assemble_system(space: Space, f) -> SparseSystem:
    """Assemble the reduced system on a Space for right-hand side f(x, y).

    Stiffness uses elementwise (broken) gradients; the known interpolated
    interior part is moved to the right-hand side.
    """
    dm = space.dof_map
    k = space.k
    stiff_rule = make_quad_rule(stiffness_rule_degree(k))
    load_rule = make_quad_rule(load_rule_degree(k))
    S = np.zeros(dm.dofs.shape + dm.dofs.shape[1:])       # (E, nb, nb)
    L = np.zeros(dm.dofs.shape)                           # (E, nb)
    for s, basis, verts, grad_lambda, area in element_blocks(space):
        for part in range(basis.shape[2]):
            grads = el.block_gradients(basis[:, :, part], k, grad_lambda[:, part],
                                       stiff_rule.points)           # (B, nb, P, 2)
            S[s] += area[:, part, None, None] * np.einsum(
                "bnpd,bmpd,p->bnm", grads, grads, stiff_rule.weights)
            vals = el.block_values(basis[:, :, part], k, load_rule.points)  # (B, nb, P)
            xy = load_rule.points @ verts[:, part]
            fv = f(xy[..., 0], xy[..., 1])
            L[s] += ((area[:, part, None, None] * vals)
                     @ (load_rule.weights * fv)[:, :, None])[..., 0]
    c = interior_coefficients(space, f)                   # (E, n_interp)

    # The order of the COO entries (element, local row, local column) and of
    # the additions into F fixes the rounding of A and F, and CG at the
    # default tolerance is sensitive to their last bits.
    free = dm.dofs >= 0
    pair = free[:, :, None] & free[:, None, :]
    rows = np.broadcast_to(dm.dofs[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(dm.dofs[:, None, :], pair.shape)[pair]
    A = sp.coo_array((S[pair], (rows, cols)), shape=(dm.n_free, dm.n_free)).tocsr()
    # per free row: F[g] += L[m], then F[g] -= S[m, j] c[j] for each interpolated j
    terms = np.concatenate([L[:, :, None], -S[:, :, dm.interp_mask] * c[:, None, :]],
                           axis=2)
    F = np.zeros(dm.n_free)
    np.add.at(F, np.broadcast_to(dm.dofs[:, :, None], terms.shape)[free].ravel(),
              terms[free].ravel())
    return SparseSystem(A=A, F=F, interp_coeffs=c)
