"""Global DOF numbering and assembly of the reduced symmetric Galerkin
system, with the f-interpolated interior coefficients.

Free unknowns live on mesh entities (vertices, edge nodes); interior slots
are either interpolated directly from f (interpolated families) or kept as
ordinary unknowns (Lagrange and the standard nonconforming baseline).
Homogeneous Dirichlet DOFs are eliminated by row/column deletion.  The
moment element's interior coefficients c_j = int psi_j f are its interior
load entries, so the load pass computes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import elements as el
from .mesh import Mesh
from .poly import (make_quad_rule, multi_indices, num_coeffs, triangle_geometry,
                   MAX_QUAD_DEGREE)

__all__ = [
    "FAMILIES",
    "INTERPOLATED_FAMILIES",
    "Space",
    "DofMap",
    "SparseSystem",
    "resolve_degree",
    "build_space",
    "build_dof_map",
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
    where that slot has none.  The node slots come first
    (`elements.slot_layout`): slots [:n_node] hold an unknown unless they
    lie on the Dirichlet boundary, and the slots [n_node:] are interpolated,
    their coefficients taken from f.  The baselines interpolate no slot, so
    their n_node is nb.  The table is int32, so the CSR indices and index
    pointer of the assembled matrix are int32 too.
    """

    n_free: int
    dofs: np.ndarray         # (E, nb) int32
    n_node: int

    @property
    def n_interp(self) -> int:
        return len(self.dofs) * (self.dofs.shape[1] - self.n_node)


def corner_ids(mesh: Mesh, family: str) -> np.ndarray:
    """The vertex ids (E, 3 or 4) the node multi-indices of every element run
    over: a macro square's four corners for p2c, else the triangle's three."""
    return mesh.macro_corners if family == "p2c_interp" else mesh.triangles


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

    ents = corner_ids(mesh, family)
    t = np.arange(len(ents))
    alphas, n_interior = el.slot_layout(family, k)
    interior = sorted(a for a in multi_indices(k) if min(a) > 0)
    # per local slot that may hold an unknown: (key category, entity id,
    # position, on the boundary) over all elements
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
    if family not in INTERPOLATED_FAMILIES:
        columns += [(2, t, j, False) for j in range(n_interior)]
    n_node, nb = len(columns), len(alphas) + n_interior

    # one integer per entity key, ordered as the keys are
    stride = max(mesh.num_vertices, mesh.num_edges, mesh.num_triangles, nb) + 1
    code = np.zeros((len(ents), n_node), dtype=np.int64)
    boundary = np.zeros((len(ents), n_node), dtype=bool)
    for m, (category, entity, position, bnd) in enumerate(columns):
        code[:, m] = (category * stride + entity) * stride + position
        boundary[:, m] = bnd
    keys, index = np.unique(code[~boundary], return_inverse=True)
    dofs = np.full((len(ents), nb), -1, dtype=np.int32)
    dofs[:, :n_node][~boundary] = index
    return DofMap(n_free=len(keys), dofs=dofs, n_node=n_node)


@dataclass
class Space:
    """Mesh + family + the local bases of its element classes + global DOF map.

    Element e (a triangle, or a macro square for p2c) has parts p, the
    triangles its basis is polynomial on: the mesh's triangles e, or a macro's
    four consecutive triangles.  Its class `shape[e]` holds the elements with
    its grad_lambda and area bytes (for pk_interp, e alone).  `basis`,
    `grad_lambda` and `area` hold one row per class, built on its first
    element: `basis[shape[e], i, p]` holds the Bernstein coefficients of basis
    function i of element e on part p.  The per-element arrays are `lap_xy`,
    `shape` and the int32 `dof_map.dofs`; the vertices stay in the mesh.
    """

    mesh: Mesh
    family: str
    k: int
    dof_map: DofMap
    basis: np.ndarray               # (S, nb, parts, nc), C-contiguous
    grad_lambda: np.ndarray         # (S, parts, 3, 2)
    area: np.ndarray                # (S, parts)
    lap_xy: np.ndarray              # (E, 2) the mean of the element's corners
    shape: np.ndarray               # (E,) class of every element

    @property
    def n_elements(self) -> int:
        return len(self.shape)

    def vertices(self, e=slice(None)) -> np.ndarray:
        """Vertices (B, parts, 3, 2) of the parts of elements e, from the mesh."""
        return self.mesh.vertices[self.mesh.triangles.reshape(self.n_elements, -1, 3)[e]]


BLOCK_BYTES = 256 * 1024   # per block's gradient table; larger blocks raise peak memory


def block_size(k: int, nb: int, parts: int) -> int:
    """Elements per block of every element pass: as many gradient tables (nb, parts,
    P, 2) at the norm rule, the passes' largest, as fit in BLOCK_BYTES, and at least 8."""
    P = len(make_quad_rule(norm_rule_degree(k)).weights)
    return max(8, BLOCK_BYTES // (nb * parts * P * 16))


def build_space(mesh: Mesh, family: str, k: int | None = None) -> Space:
    k = resolve_degree(family, k)
    dof_map = build_dof_map(mesh, family, k)
    corners = mesh.vertices[corner_ids(mesh, family)]               # (E, 3 or 4, 2)
    verts = mesh.vertices[mesh.triangles].reshape(len(corners), -1, 3, 2)
    grad_lambda, area = triangle_geometry(verts)
    if family == "pk_interp":      # its Gram-Schmidt reads absolute coordinates
        shape = first = np.arange(len(area))
    else:
        shape, first = _classes(grad_lambda, area)
    # every builder's bits are independent of the elements built with it
    alphas, n_interior = el.slot_layout(family, k)
    nb, parts = len(alphas) + n_interior, verts.shape[1]
    basis = np.empty((len(first), nb, parts, num_coeffs(k)))
    step = block_size(k, nb, parts)
    for start in range(0, len(first), step):
        s = slice(start, start + step)
        rep = corners[first[s]]
        if family == "p2c_interp":      # checked against the mesh's centre vertex
            basis[s] = el.build_p2c_macro_basis(rep, verts[first[s], 0, 2])
        elif family == "pk_interp":
            basis[s] = el.build_pk_basis(rep, k)
        elif family == "pk_lagrange":
            basis[s] = el.build_lagrange_basis(rep, k)
        elif family == "p3_interp":
            basis[s] = el.build_p3_basis(rep)
        else:
            basis[s] = el.build_p2nc_element(rep, standard=family == "p2nc_std")
    return Space(mesh=mesh, family=family, k=k, dof_map=dof_map, basis=basis,
                 grad_lambda=grad_lambda[first], area=area[first],
                 lap_xy=corners.mean(axis=1), shape=shape)


def _classes(grad_lambda, area) -> tuple[np.ndarray, np.ndarray]:
    """Class ids (E,) numbered in order of first appearance, and each class's
    first element (S,).  Two elements share a class when the bytes of their
    grad_lambda and area are equal, so 0.0 and -0.0 differ."""
    E = len(area)
    geom = np.concatenate([grad_lambda.reshape(E, -1), area.reshape(E, -1)], axis=1)
    _, first, group = np.unique(geom.view(np.dtype((np.void, geom[0].nbytes)))[:, 0],
                                return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[group], first[order]


def element_blocks(space: Space, tabulate):
    """Blocks of elements in class order as (element ids (B,), vertices (B,
    parts, 3, 2), area (B, parts), tables), where tables are the arrays
    tabulate(basis, grad_lambda, area) returns, gathered to the block's elements.

    The classes are taken block_size at a time, and tabulate runs once on
    each such block of class rows; the elements of those classes follow in
    blocks of at most block_size.  A class's rows do not depend on the other
    classes of its block, so the tables equal those of tabulating every
    element, bit for bit.  The passes write only per-element outputs and add
    them up in element order afterwards, so the walk does not change a bit.
    A class block's tables are dropped before the next block's are made.
    """
    step = block_size(space.k, *space.basis.shape[1:3])      # nb, parts
    order = np.argsort(space.shape, kind="stable")
    sorted_shape = space.shape[order]
    for c0 in range(0, len(space.basis), step):
        c = slice(c0, c0 + step)
        rows = tabulate(space.basis[c], space.grad_lambda[c], space.area[c])
        lo, hi = np.searchsorted(sorted_shape, [c0, c0 + step])
        for start in range(lo, hi, step):
            e = order[start:min(start + step, hi)]
            at = space.shape[e] - c0
            yield e, space.vertices(e), space.area[space.shape[e]], tuple(t[at] for t in rows)
        del rows        # one class block's tables alive at a time


@dataclass
class SparseSystem:
    """Reduced Galerkin system: A x = F over the free DOFs."""

    A: sp.csr_array
    F: np.ndarray
    # (E, n_interp per element): f at the Laplacian point, or the moment
    # element's c_j = int psi_j f; zero columns for the baselines
    interp_coeffs: np.ndarray


def assemble_system(space: Space, f) -> SparseSystem:
    """Assemble the reduced system on a Space for right-hand side f(x, y).

    Stiffness uses elementwise (broken) gradients; the known interpolated
    interior part is moved to the right-hand side.  Pointwise families take
    f at the Laplacian point as the interior coefficient (the -1
    normalization makes it +f).  The moment element's interior functions
    are psi_j = -b p_j, so its c_j = -int p_j b f, the value the moment
    functional assumes on the exact solution, is the load entry int psi_j f.
    """
    dm = space.dof_map
    S, L, c = _element_tables(space, f)
    n_node = dm.n_node
    # The order of the entries of every global row and of the additions into
    # F fixes the rounding of A and F, and CG at the default tolerance is
    # sensitive to their last bits.
    dofs = dm.dofs[:, :n_node]         # an interpolated slot is never free
    free = dofs >= 0
    # per free row: F[g] += L[m], then F[g] -= S[m, j] c[j] for each interpolated
    # j, added in that order: bincount adds its weights in input order (and
    # gives int64 when there are none); an intp index it does not copy
    terms = np.concatenate(
        [L[:, :n_node, None], -S[:, :, n_node:][space.shape] * c[:, None, :]], axis=2)
    F = np.bincount(np.repeat(dofs[free].astype(np.intp), terms.shape[2]),
                    weights=terms[free].ravel(), minlength=dm.n_free).astype(float, copy=False)
    del L, terms
    data, indices, indptr = _unsummed_csr(dm, space.shape, S)
    del S
    A = sp.csr_array((data, indices, indptr), shape=(dm.n_free, dm.n_free))
    A.sum_duplicates()
    return SparseSystem(A=A, F=F, interp_coeffs=c)


def _element_tables(space: Space, f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every class's stiffness rows of its node slots (S, n_node, nb), every
    element's load vector (E, nb), and the interior coefficients (E, n_interp
    per element).

    An interpolated slot has no unknown, so A reads only the node x node
    block of the stiffness and F only its node x interpolated block: the
    interpolated slots' rows are never read.  The node slots are the slots
    [:n_node] (`DofMap`), and a leading slice of the n axis gives the full
    stiffness form's rows bit for bit.  S is summed over the walk's blocks
    of block_size classes, before the walk; a class's rows do not depend on
    the other classes of its block, and the walk's order does not reach S.
    """
    dm = space.dof_map
    k, n_node = space.k, dm.n_node
    nb, parts = space.basis.shape[1], range(space.basis.shape[2])
    stiff_rule = make_quad_rule(stiffness_rule_degree(k))
    load_rule = make_quad_rule(load_rule_degree(k))
    S = np.zeros((len(space.basis), n_node, nb))
    step = block_size(k, nb, len(parts))
    for c0 in range(0, len(S), step):
        block = slice(c0, c0 + step)
        for part in parts:
            grads = el.block_gradients(space.basis[block, :, part], k,
                                       space.grad_lambda[block, part], stiff_rule)
            S[block] += space.area[block, part, None, None] * np.einsum(
                "bnpd,bmpd,p->bnm", grads[:, :n_node], grads, stiff_rule.weights)

    def tabulate(basis, grad_lambda, area):
        """The block's area-weighted basis values (B, nb, P) at the load rule,
        one array per part."""
        return [area[:, part, None, None] * el.block_values(basis[:, :, part], k, load_rule)
                for part in parts]

    L = np.zeros(dm.dofs.shape)                           # (E, nb)
    for e, verts, _, av in element_blocks(space, tabulate):
        for part in parts:
            xy = load_rule.points @ verts[:, part]
            fv = f(xy[..., 0], xy[..., 1])
            L[e] += (av[part] @ (load_rule.weights * fv)[:, :, None])[..., 0]
    if space.family == "pk_interp":
        c = L[:, n_node:]                                 # (E, n_interp)
    elif n_node < nb:
        c = f(space.lap_xy[:, 0], space.lap_xy[:, 1])[:, None]
    else:
        c = np.zeros((len(dm.dofs), 0))
    return S, L, c


def _unsummed_csr(dm: DofMap, shape, S) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A's CSR arrays (data, indices, indptr) before its duplicates are summed.

    Global row g holds, in element order, the free local rows (e, a) with
    dofs[e, a] == g, each as its free columns S[shape[e], a, m] in local
    order: the order in which a COO -> CSR conversion places the entries
    (element, local row, local column).  Summing the duplicates sorts and
    adds each row as that conversion does, so A keeps its bits.  The free
    rows are node slots, the rows [:n_node] that S holds.  data is filled a
    slice of rows at a time; a slice's rows of S and their free entries take
    at most BLOCK_BYTES.
    """
    n_node, nb = S.shape[1:]
    free = dm.dofs >= 0
    node_free = free[:, :n_node]
    rows = np.flatnonzero(node_free)                      # e * n_node + a
    g = dm.dofs[:, :n_node][node_free]
    width = free.sum(axis=1)                              # free columns per row of e
    counts = np.bincount(g, weights=width[rows // n_node],
                         minlength=dm.n_free).astype(np.int64)
    nnz = int(counts.sum())
    # int32 DOFs give int32 indices and indptr wherever the entries fit
    index_dtype = sp.get_index_dtype(dm.dofs, maxval=max(nnz, dm.n_free))
    indptr = np.zeros(dm.n_free + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    elements, src = np.divmod(rows[np.argsort(g, kind="stable")], n_node)
    src += shape[elements] * n_node                       # row of (e, a) in S
    del rows, g, counts
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index_dtype)
    S = S.reshape(-1, nb)
    step = max(1, BLOCK_BYTES // (2 * S[0].nbytes))
    at = 0
    for start in range(0, len(src), step):
        cols = dm.dofs.take(elements[start:start + step], axis=0)
        free_cols = cols >= 0
        n = at + np.count_nonzero(free_cols)
        data[at:n] = S.take(src[start:start + step], axis=0)[free_cols]
        indices[at:n] = cols[free_cols]
        at = n
    return data, indices, indptr
