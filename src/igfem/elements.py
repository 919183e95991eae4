"""Per-element bases for the five element families.

Families:
  p2c_interp   piecewise-quadratic macro element on a criss-cross square,
               8 nodal values + 1 constant-Laplacian value
  p2nc_interp  quadratic nonconforming: bubble-corrected (harmonic) nodal
               functions + the edge-Gauss-point bubble, bubble interpolated
  p2nc_std     same span with plain quadratic nodal functions, bubble free
  p3_interp    cubic: 9 boundary Lagrange nodes + barycenter-Laplacian bubble
  pk_interp    degree k >= 4: 3k boundary nodes + weighted-Laplacian moments
  pk_lagrange  full nodal Lagrange of any degree

All interior (interpolated) basis functions follow one sign convention:
their Laplacian value/moment equals -1, so the interpolated coefficient is
obtained from +f.  Local degree-k node slots are ordered by the descending
lexicographic order of their lattice multi-indices; interior slots come last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import (
    BPoly,
    TriGeom,
    bernstein_values,
    bpoly_eval,
    bpoly_grad,
    bpoly_laplacian,
    bpoly_from_point_values,
    make_quad_rule,
    multi_indices,
    num_coeffs,
    _collocation_inverse,
    _reduction_maps,
    MAX_QUAD_DEGREE,
)

__all__ = [
    "DofDescriptor",
    "LocalElement",
    "block_values",
    "block_gradients",
    "build_p2c_macro_basis",
    "build_fs_bubble",
    "build_p2nc_element",
    "build_p3_basis",
    "gram_schmidt_pj",
    "build_pk_basis",
    "build_lagrange_basis",
    "laplacian_operator",
    "boundary_multi_indices",
    "BARYCENTER",
]

BARYCENTER = np.array([1.0, 1.0, 1.0]) / 3.0


@dataclass(frozen=True)
class DofDescriptor:
    """What a local basis function is dual to.

    kind 'node':       point evaluation; `alpha` is the lattice multi-index
                       for simplex elements (None for the macro element).
    kind 'lap_point':  Laplacian value at `point`; the dual function is
                       normalized to Laplacian -1 there.
    kind 'lap_moment': weighted-Laplacian moment number `index`; dual in the
                       plain sense G_l(psi_m) = delta_lm.
    """

    kind: str
    point: tuple | None = None
    alpha: tuple | None = None
    index: int | None = None


@dataclass
class LocalElement:
    """Local basis over one triangle (or one 4-triangle macro-square).

    basis[i, p] is the Bernstein coefficient vector of basis function i on
    part p; simplex elements have a single part.
    """

    family: str
    degree: int
    geoms: list
    dofs: list
    basis: np.ndarray
    moment_basis: list | None = None   # pk_interp: orthonormal p_j, degree k-3
    bubble: BPoly | None = None        # pk_interp: cubic bubble 27*l1*l2*l3

    @property
    def n_basis(self) -> int:
        return self.basis.shape[0]

    def function(self, i: int, part: int = 0) -> BPoly:
        return BPoly(self.degree, self.basis[i, part].copy(), self.geoms[part])

    def basis_values(self, bary, part: int = 0) -> np.ndarray:
        """Values of all basis functions at barycentric points: (nbasis, P)."""
        return block_values(self.basis[None, :, part], self.degree, bary)[0]

    def basis_gradients(self, bary, part: int = 0) -> np.ndarray:
        """Gradients of all basis functions at barycentric points: (nbasis, P, 2)."""
        return block_gradients(self.basis[None, :, part], self.degree,
                               self.geoms[part].grad_lambda[None], bary)[0]


def block_values(coeffs, k: int, bary) -> np.ndarray:
    """Values of a (B, nb, nc) block of degree-k bases at barycentric points: (B, nb, P)."""
    return coeffs @ bernstein_values(k, bary).T


def block_gradients(coeffs, k: int, grad_lambda, bary) -> np.ndarray:
    """Gradients (B, nb, P, 2) of a (B, nb, nc) block of degree-k bases; grad_lambda (B, 3, 2)."""
    maps = _reduction_maps(k)
    gcoef = np.zeros(coeffs.shape[:2] + (num_coeffs(k - 1), 2))
    for i in range(3):
        gcoef += coeffs[:, :, maps[i], None] * grad_lambda[:, None, None, i]
    return k * np.einsum("pc,bncd->bnpd", bernstein_values(k - 1, bary), gcoef)


def laplacian_operator(k: int, geom: TriGeom) -> np.ndarray:
    """Matrix mapping degree-k coefficients to degree-(k-2) Laplacian coefficients."""
    if k < 2:
        raise ValueError(f"laplacian needs degree >= 2, got {k}")
    g = geom.grad_lambda
    gram = g @ g.T
    maps_k = _reduction_maps(k)
    maps_k1 = _reduction_maps(k - 1)
    eye = np.eye(num_coeffs(k))
    out = np.zeros((num_coeffs(k - 2), num_coeffs(k)))
    for i in range(3):
        rows = eye[maps_k[i]]
        for j in range(3):
            out += gram[i, j] * rows[maps_k1[j]]
    return k * (k - 1) * out


def boundary_multi_indices(k: int) -> list[tuple[int, int, int]]:
    """Lattice multi-indices on the triangle boundary, in descending lex order."""
    return [a for a in multi_indices(k) if min(a) == 0]


def _lagrange_rows(k: int) -> np.ndarray:
    """Rows i = Bernstein coefficients of the i-th nodal Lagrange function."""
    return _collocation_inverse(k).T


def _node_points(alphas, k: int, geom: TriGeom) -> np.ndarray:
    return (np.array(alphas, dtype=float) / k) @ geom.vertices


def build_lagrange_basis(geom: TriGeom, k: int) -> LocalElement:
    """Full nodal Lagrange basis on the uniform degree-k lattice."""
    if k < 1:
        raise ValueError(f"lagrange degree must be >= 1, got {k}")
    rows = _lagrange_rows(k)
    alphas = multi_indices(k)
    pts = _node_points(alphas, k, geom)
    dofs = [DofDescriptor("node", point=tuple(pts[i]), alpha=alphas[i])
            for i in range(len(alphas))]
    return LocalElement(family="pk_lagrange", degree=k, geoms=[geom],
                        dofs=dofs, basis=rows[:, None, :].copy())


def build_fs_bubble(geom: TriGeom) -> BPoly:
    """Quadratic bubble with Laplacian -1, vanishing at the six edge Gauss points.

    phi0 = (2 - 3*(l1^2 + l2^2 + l3^2)) / (6 * sum_i |grad l_i|^2).
    """
    s = float(np.sum(geom.grad_lambda ** 2))
    # q = 2 - 3*sum(l_i^2): vertex coefficients -1, edge coefficients 2
    q = np.array([-1.0, 2.0, 2.0, -1.0, 2.0, -1.0])
    return BPoly(2, q / (6.0 * s), geom)


def build_p2nc_element(geom: TriGeom, standard: bool = False) -> LocalElement:
    """Quadratic nonconforming element: 6 nodal functions + Gauss-point bubble.

    The interpolated variant corrects each nodal Lagrange function eta by
    (Lap eta) * phi0, making it harmonic while leaving its values at the six
    edge Gauss points unchanged.  The standard variant keeps plain eta and
    treats the bubble as an ordinary unknown.
    """
    phi0 = build_fs_bubble(geom)
    rows = _lagrange_rows(2).copy()
    if not standard:
        lap_op = laplacian_operator(2, geom)
        for i in range(6):
            const_lap = (lap_op @ rows[i])[0]
            rows[i] = rows[i] + const_lap * phi0.coeffs
    alphas = multi_indices(2)
    pts = _node_points(alphas, 2, geom)
    dofs = [DofDescriptor("node", point=tuple(pts[i]), alpha=alphas[i])
            for i in range(6)]
    dofs.append(DofDescriptor("lap_point", point=tuple(geom.barycenter)))
    basis = np.vstack([rows, phi0.coeffs[None, :]])
    family = "p2nc_std" if standard else "p2nc_interp"
    return LocalElement(family=family, degree=2, geoms=[geom], dofs=dofs,
                        basis=basis[:, None, :])


def _cubic_bubble(geom: TriGeom) -> BPoly:
    """b = 27*l1*l2*l3, value 1 at the barycenter."""
    coeffs = np.zeros(10)
    coeffs[list(multi_indices(3)).index((1, 1, 1))] = 27.0 / 6.0
    return BPoly(3, coeffs, geom)


def build_p3_basis(geom: TriGeom) -> LocalElement:
    """Cubic element: 9 boundary Lagrange nodes + barycenter-Laplacian bubble.

    phi0 = b / (-Lap b (x0)) has Lap phi0(x0) = -1 and vanishes on all edges;
    each boundary function is corrected to have zero Laplacian at x0.
    """
    b = _cubic_bubble(geom)
    lap_b = bpoly_laplacian(b)
    phi0 = BPoly(3, b.coeffs / (-bpoly_eval(lap_b, BARYCENTER)), geom)

    lagr = _lagrange_rows(3)
    alphas = multi_indices(3)
    lap_op = laplacian_operator(3, geom)
    lap_at_x0 = bernstein_values(1, BARYCENTER)[0] @ (lap_op @ lagr.T)

    rows = []
    dofs = []
    for i, alpha in enumerate(alphas):
        if min(alpha) > 0:
            continue
        rows.append(lagr[i] + lap_at_x0[i] * phi0.coeffs)
        pt = _node_points([alpha], 3, geom)[0]
        dofs.append(DofDescriptor("node", point=tuple(pt), alpha=alpha))
    rows.append(phi0.coeffs)
    dofs.append(DofDescriptor("lap_point", point=tuple(geom.barycenter)))
    return LocalElement(family="p3_interp", degree=3, geoms=[geom], dofs=dofs,
                        basis=np.array(rows)[:, None, :])


def gram_schmidt_pj(geom: TriGeom, k: int) -> list[BPoly]:
    """Orthonormal degree-(k-3) polynomials under (u, v) = int grad(bu).grad(bv).

    Raw basis: monomials ((x-x0)/diam)^a ((y-y0)/diam)^b in ascending total
    degree (1, X, Y, X^2, XY, Y^2, ...), orthonormalized in that order.
    """
    if k < 4:
        raise ValueError(f"moment element needs k >= 4, got {k}")
    deg = k - 3
    x0, y0 = geom.barycenter
    diam = geom.diameter
    pts = (np.array(multi_indices(deg), dtype=float) / deg) @ geom.vertices

    raws = []
    for total in range(deg + 1):
        for a in range(total, -1, -1):
            b_exp = total - a
            vals = (((pts[:, 0] - x0) / diam) ** a) * (((pts[:, 1] - y0) / diam) ** b_exp)
            raws.append(bpoly_from_point_values(deg, vals, geom).coeffs)
    raws = np.array(raws)

    bub = _cubic_bubble(geom)
    rule = make_quad_rule(min(2 * k, MAX_QUAD_DEGREE))
    qb = rule.points
    w = rule.weights * geom.area
    b_vals = bpoly_eval(bub, qb)
    b_grads = bpoly_grad(bub, qb)
    vals_low = bernstein_values(deg, qb)

    def gram_of(rows):
        p_vals = vals_low @ rows.T                          # (P, d)
        p_grads = block_gradients(rows[None], deg, geom.grad_lambda[None], qb)[0]
        # grad(b p) = p grad b + b grad p, evaluated pointwise
        gbp = p_vals.T[:, :, None] * b_grads[None, :, :] \
            + b_vals[None, :, None] * p_grads
        return np.einsum("npd,mpd,p->nm", gbp, gbp, w)

    coeffs = raws
    for _ in range(2):  # second pass restores orthogonality on thin triangles
        try:
            chol = np.linalg.cholesky(gram_of(coeffs))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"Gram matrix numerically singular on triangle "
                             f"{geom.vertices.tolist()}") from exc
        coeffs = np.linalg.solve(chol, coeffs)
    return [BPoly(deg, c, geom) for c in coeffs]


def build_pk_basis(geom: TriGeom, k: int) -> LocalElement:
    """Dual basis to {3k boundary node values} + {weighted-Laplacian moments}.

    Moment functionals: G_j(u) = int_K p_j b Lap(u); the dual interior
    functions satisfy psi_j = -b p_j.  The element inverts the full
    functional (generalized Vandermonde) matrix on the Bernstein basis.
    """
    if k < 4:
        raise ValueError(f"moment element needs k >= 4, got {k}")
    pjs = gram_schmidt_pj(geom, k)
    bub = _cubic_bubble(geom)

    b_alphas = boundary_multi_indices(k)
    node_bary = np.array(b_alphas, dtype=float) / k
    node_rows = bernstein_values(k, node_bary)            # (3k, nc)

    rule = make_quad_rule(min(2 * k, MAX_QUAD_DEGREE))
    qb = rule.points
    w = rule.weights * geom.area
    lap_op = laplacian_operator(k, geom)
    lap_vals = bernstein_values(k - 2, qb) @ lap_op       # (P, nc)
    b_vals = bpoly_eval(bub, qb)
    moment_rows = np.array([((w * b_vals * bpoly_eval(pj, qb)) @ lap_vals)
                            for pj in pjs])               # (d, nc)

    M = np.vstack([node_rows, moment_rows])
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError(f"unisolvence failure: functional matrix condition "
                         f"{cond:.3e} on triangle {geom.vertices.tolist()}")
    C = np.linalg.inv(M)

    pts = _node_points(b_alphas, k, geom)
    dofs = [DofDescriptor("node", point=tuple(pts[i]), alpha=b_alphas[i])
            for i in range(len(b_alphas))]
    dofs += [DofDescriptor("lap_moment", index=j) for j in range(len(pjs))]
    return LocalElement(family="pk_interp", degree=k, geoms=[geom], dofs=dofs,
                        basis=C.T[:, None, :].copy(), moment_basis=pjs, bubble=bub)


# --- P2 conforming macro element -------------------------------------------

# B-net layout on the macro square: c1..c4 corners (SW, SE, NE, NW),
# c5..c8 side midpoints (bottom, right, top, left), c9 center,
# c10..c13 half-diagonal midpoints (SW, SE, NE, NW to center).
# Sub-triangle quadratic B-nets in descending lex order (200,110,101,020,011,002)
# with vertex order (corner_a, corner_b, center):
_P2C_PARTS = (
    (0, 4, 9, 1, 10, 8),   # bottom: sw, c5, c10, se, c11, c9
    (1, 5, 10, 2, 11, 8),  # right:  se, c6, c11, ne, c12, c9
    (2, 6, 11, 3, 12, 8),  # top:    ne, c7, c12, nw, c13, c9
    (3, 7, 12, 0, 9, 8),   # left:   nw, c8, c13, sw, c10, c9
)


def build_p2c_macro_basis(corners: np.ndarray, center: np.ndarray) -> LocalElement:
    """Nine-function basis of the constant-Laplacian macro element.

    DOF order: values at the 4 corners, values at the 4 side midpoints,
    Laplacian value at the center (basis function 9 normalized to
    Laplacian -1).  Requires an axis-aligned square macro cell.
    """
    corners = np.asarray(corners, dtype=float)
    center = np.asarray(center, dtype=float)
    sides = [np.linalg.norm(corners[(i + 1) % 4] - corners[i]) for i in range(4)]
    h = sides[0]
    diag1 = np.linalg.norm(corners[2] - corners[0])
    diag2 = np.linalg.norm(corners[3] - corners[1])
    tol = 1e-9 * h
    if (max(abs(s - h) for s in sides) > tol or abs(diag1 - diag2) > tol
            or abs(diag1 - h * np.sqrt(2.0)) > tol
            or np.linalg.norm(corners.mean(axis=0) - center) > tol):
        raise ValueError("non-square macro cell")

    geoms = [TriGeom.from_vertices([corners[i], corners[(i + 1) % 4], center])
             for i in range(4)]
    mids = [0.5 * (corners[i] + corners[(i + 1) % 4]) for i in range(4)]

    # 13 B-net coefficients from the 9 DOFs (corner values u1..u4, side
    # values u5..u8, Laplacian value L); interior coefficients carry -L*h^2/8.
    def bnet(u, L):
        c = np.zeros(13)
        c[0:4] = u[0:4]
        for s in range(4):
            c[4 + s] = 2.0 * u[4 + s] - 0.5 * (u[s] + u[(s + 1) % 4])
        lh = L * h * h / 8.0
        c[8] = 0.25 * (u[0] + u[1] + u[2] + u[3]) - lh
        c[9] = 0.25 * (2 * u[0] + u[1] + u[3]) - lh
        c[10] = 0.25 * (2 * u[1] + u[2] + u[0]) - lh
        c[11] = 0.25 * (2 * u[2] + u[3] + u[1]) - lh
        c[12] = 0.25 * (2 * u[3] + u[0] + u[2]) - lh
        return c

    basis = np.zeros((9, 4, 6))
    for i in range(9):
        u = np.zeros(8)
        L = 0.0
        if i < 8:
            u[i] = 1.0
        else:
            L = -1.0
        c = bnet(u, L)
        for p, layout in enumerate(_P2C_PARTS):
            basis[i, p] = c[list(layout)]

    dofs = [DofDescriptor("node", point=tuple(corners[i])) for i in range(4)]
    dofs += [DofDescriptor("node", point=tuple(mids[i])) for i in range(4)]
    dofs.append(DofDescriptor("lap_point", point=tuple(center)))
    return LocalElement(family="p2c_interp", degree=2, geoms=geoms, dofs=dofs,
                        basis=basis)
