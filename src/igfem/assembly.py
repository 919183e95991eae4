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
from .poly import TriGeom, bernstein_values, bpoly_eval, make_quad_rule, MAX_QUAD_DEGREE

__all__ = [
    "FAMILIES",
    "INTERPOLATED_FAMILIES",
    "Space",
    "DofMap",
    "SparseSystem",
    "resolve_degree",
    "build_local_element",
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


def build_local_element(mesh: Mesh, family: str, k: int, eid: int) -> el.LocalElement:
    """Build the local basis for element `eid` (triangle id, or macro id for p2c)."""
    if family == "p2c_interp":
        corners = mesh.vertices[mesh.macro_corners[eid]]
        center = mesh.vertices[mesh.macro_centers[eid]]
        return el.build_p2c_macro_basis(corners, center)
    geom = TriGeom.from_vertices(mesh.vertices[mesh.triangles[eid]])
    if family == "p2nc_interp":
        return el.build_p2nc_element(geom)
    if family == "p2nc_std":
        return el.build_p2nc_element(geom, standard=True)
    if family == "p3_interp":
        return el.build_p3_basis(geom)
    if family == "pk_interp":
        return el.build_pk_basis(geom, k)
    return el.build_lagrange_basis(geom, k)


@dataclass
class DofMap:
    """Global numbering of the local slots of every element.

    `dofs[e, m]` is the free unknown of local slot m of element e, or -1
    where that slot has none: a Dirichlet boundary slot, or an interpolated
    slot.  The interpolated slots sit at the same local positions in every
    element (`interp_mask`); their coefficients come from f.
    """

    family: str
    k: int
    n_free: int
    n_boundary: int
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


def _simplex_slot_layout(family: str, k: int):
    """Local slot descriptors as (kind, alpha-or-None) in local basis order."""
    if family in ("p2nc_interp", "p2nc_std"):
        return [("node", a) for a in el.multi_indices(2)] + [("lap", None)]
    if family == "p3_interp":
        return [("node", a) for a in el.boundary_multi_indices(3)] + [("lap", None)]
    if family == "pk_interp":
        d = (k - 2) * (k - 1) // 2
        return ([("node", a) for a in el.boundary_multi_indices(k)]
                + [("lap", j) for j in range(d)])
    return [("node", a) for a in el.multi_indices(k)]


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

    # per local slot: (key category, entity id, position, on the boundary)
    # over all elements, or None for an interpolated slot
    columns = []
    if family == "p2c_interp":
        for c in mesh.macro_corners.T:
            columns.append((0, c, 0, mesh.vertex_boundary[c]))
        for e in mesh.macro_side_edges.T:
            columns.append((1, e, 0, mesh.edge_boundary[e]))
        columns.append(None)
        n_el = mesh.num_macros
    else:
        interpolated = family in INTERPOLATED_FAMILIES
        tris = mesh.triangles
        t = np.arange(mesh.num_triangles)
        interior = sorted(a for a in el.multi_indices(k) if min(a) > 0)
        for kind, alpha in _simplex_slot_layout(family, k):
            if kind == "lap":
                columns.append(None if interpolated else
                               (2, t, alpha if alpha is not None else 0, False))
                continue
            nz = [i for i in range(3) if alpha[i] > 0]
            if len(nz) == 1:
                v = tris[:, nz[0]]
                columns.append((0, v, 0, mesh.vertex_boundary[v]))
            elif len(nz) == 2:
                i, j = nz
                vi, vj = tris[:, i], tris[:, j]
                e = mesh.edge_id(vi, vj)
                columns.append((1, e, np.where(vi < vj, alpha[j], alpha[i]),
                                mesh.edge_boundary[e]))
            else:  # interior lattice node, ranked in lexicographic order
                columns.append((3, t, interior.index(alpha), False))
        n_el = mesh.num_triangles

    # one integer per entity key, ordered as the keys are
    stride = max(mesh.num_vertices, mesh.num_edges, mesh.num_triangles,
                 len(columns)) + 1
    code = np.zeros((n_el, len(columns)), dtype=np.int64)
    boundary = np.zeros((n_el, len(columns)), dtype=bool)
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
    return DofMap(family=family, k=k, n_free=len(keys),
                  n_boundary=len(np.unique(code[boundary])),
                  dofs=dofs, interp_mask=interp_mask)


@dataclass
class Space:
    """Mesh + family + per-element local bases + global DOF map."""

    mesh: Mesh
    family: str
    k: int
    elements: list
    dof_map: DofMap

    @property
    def n_elements(self) -> int:
        return len(self.elements)


def build_space(mesh: Mesh, family: str, k: int | None = None) -> Space:
    k = resolve_degree(family, k)
    dof_map = build_dof_map(mesh, family, k)
    n = mesh.num_macros if family == "p2c_interp" else mesh.num_triangles
    elems = [build_local_element(mesh, family, k, e) for e in range(n)]
    return Space(mesh=mesh, family=family, k=k, elements=elems, dof_map=dof_map)


# elements per block of the element passes; larger blocks raise peak memory
BLOCK = 8


def element_blocks(space: Space):
    """Blocks of consecutive elements as (slice, basis (B, nb, parts, nc),
    vertices (B, parts, 3, 2), grad_lambda (B, parts, 3, 2), area (B, parts))."""
    for start in range(0, space.n_elements, BLOCK):
        elems = space.elements[start:start + BLOCK]
        geoms = [e.geoms for e in elems]
        yield (slice(start, start + len(elems)),
               np.array([e.basis for e in elems]),
               np.array([[g.vertices for g in gs] for gs in geoms]),
               np.array([[g.grad_lambda for g in gs] for gs in geoms]),
               np.array([[g.area for g in gs] for gs in geoms]))


def interior_coefficients(space: Space, f) -> np.ndarray:
    """Coefficients of the interpolated interior basis functions, (E, n_int).

    Pointwise families take f at the Laplacian point (the -1 normalization
    makes the coefficient +f); the moment element takes c_j = -int p_j b f,
    the value the moment functional assumes on the exact solution.
    """
    if space.family in ("p2c_interp", "p2nc_interp", "p3_interp"):
        pts = np.array([e.dofs[-1].point for e in space.elements])
        return f(pts[:, 0], pts[:, 1])[:, None]
    if space.family != "pk_interp":
        return np.zeros((space.n_elements, 0))
    rule = make_quad_rule(load_rule_degree(space.k))
    bv = bpoly_eval(space.elements[0].bubble, rule.points)   # the same on every element
    low = bernstein_values(space.k - 3, rule.points)
    c = np.zeros((space.n_elements, space.dof_map.interp_mask.sum()))
    for s, _, verts, _, area in element_blocks(space):
        pj = np.array([[p.coeffs for p in e.moment_basis] for e in space.elements[s]])
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
    space: Space


def assemble_system(mesh_or_space, family: str | None = None, k: int | None = None,
                    f=None) -> SparseSystem:
    """Assemble the reduced system for right-hand side f.

    Accepts either a Mesh (family/k required) or a prebuilt Space.
    Stiffness uses elementwise (broken) gradients; the known interpolated
    interior part is moved to the right-hand side.
    """
    if isinstance(mesh_or_space, Space):
        space = mesh_or_space
    else:
        space = build_space(mesh_or_space, family, k)
    if f is None:
        raise ValueError("assemble_system needs a right-hand side f(x, y)")
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
    return SparseSystem(A=A, F=F, interp_coeffs=c, space=space)
