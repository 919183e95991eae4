"""Local bases of the six element families, built for many elements at once.

Families:
  p2c_interp   piecewise-quadratic macro element on a criss-cross square,
               8 nodal values + 1 constant-Laplacian value
  p2nc_interp  quadratic nonconforming: bubble-corrected (harmonic) nodal
               functions + the edge-Gauss-point bubble, bubble interpolated
  p2nc_std     same span with plain quadratic nodal functions, bubble free
  p3_interp    cubic: 9 boundary Lagrange nodes + barycenter-Laplacian bubble
  pk_interp    degree k >= 4: 3k boundary nodes + weighted-Laplacian moments
  pk_lagrange  full nodal Lagrange of any degree

Every builder takes the vertices of E elements stacked in one array and
returns arrays over them: basis[e, i, p] is the Bernstein coefficient vector
of basis function i of element e on part p; simplex elements have a single
part.  A builder does per element what a single-element builder would, with
the same floating-point operations in the same order, so its bits do not
depend on how many elements it gets.

All interior (interpolated) basis functions follow one sign convention:
their Laplacian value/moment equals -1, so the interpolated coefficient is
obtained from +f.  The local slots of every family are laid out by
`slot_layout`: node slots first, interior slots last.
"""

from __future__ import annotations

import numpy as np

from .poly import (
    bernstein_values,
    make_quad_rule,
    multi_indices,
    num_coeffs,
    triangle_geometry,
    QuadRule,
    _collocation_inverse,
    _reduction_maps,
    MAX_QUAD_DEGREE,
)

__all__ = [
    "block_values",
    "block_gradients",
    "slot_layout",
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
    "BUBBLE",
]

BARYCENTER = np.array([1.0, 1.0, 1.0]) / 3.0

# the cubic bubble b = 27*l1*l2*l3, value 1 at the barycenter
BUBBLE = np.zeros(10)
BUBBLE[multi_indices(3).index((1, 1, 1))] = 27.0 / 6.0
BUBBLE.setflags(write=False)


def _bernstein_at(k: int, at) -> np.ndarray:
    """Degree-k Bernstein values at barycentric points (P, 3), or a QuadRule's cached table."""
    return at.bernstein(k) if isinstance(at, QuadRule) else bernstein_values(k, at)


def block_values(coeffs, k: int, at) -> np.ndarray:
    """Values of a (B, nb, nc) block of degree-k bases at barycentric points (P, 3)
    or at a QuadRule's points: (B, nb, P)."""
    return coeffs @ _bernstein_at(k, at).T


def block_gradients(coeffs, k: int, grad_lambda, at) -> np.ndarray:
    """Gradients (B, nb, P, 2) of a (B, nb, nc) block of degree-k bases; grad_lambda
    (B, 3, 2); `at` as in block_values."""
    maps = _reduction_maps(k)
    B, nb, _ = coeffs.shape
    nc = num_coeffs(k - 1)
    # coefficient axis first: einsum then adds the c-th product into every
    # output in c order, the sequential sum of the per-element contraction.
    # A contiguous innermost c axis, matmul or optimize=True change the bits.
    gcoef = np.zeros((nc, B, nb, 2))
    by_coeff = coeffs.transpose(2, 0, 1)
    for i in range(3):
        gcoef += by_coeff[maps[i], :, :, None] * grad_lambda[None, :, None, i]
    table = np.einsum("pc,cx->px", _bernstein_at(k - 1, at), gcoef.reshape(nc, -1))
    out = np.ascontiguousarray(table.reshape(-1, B, nb, 2).transpose(1, 2, 0, 3))
    out *= k
    return out


def boundary_multi_indices(k: int) -> tuple[tuple[int, int, int], ...]:
    """Lattice multi-indices on the triangle boundary, in descending lex order."""
    return tuple(a for a in multi_indices(k) if min(a) == 0)


# p2c node slots as multi-indices over the corners (SW, SE, NE, NW) of the
# macro square: the four corners, then the midpoints of the sides
# (bottom, right, top, left)
_P2C_NODES = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
              (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))


def slot_layout(family: str, k: int) -> tuple[tuple, int]:
    """The local slots of a family: the lattice multi-indices of its node
    slots, which come first, and the number of interior slots after them.

    Node slot alpha of an element sits at (alpha / k) @ its vertices; the
    p2c multi-indices run over the four corners of the macro square.  The
    interior slots are dual to a Laplacian value or to Laplacian moments.
    """
    if family == "p2c_interp":
        return _P2C_NODES, 1
    if family in ("p2nc_interp", "p2nc_std"):
        return multi_indices(2), 1
    if family == "p3_interp":
        return boundary_multi_indices(3), 1
    if family == "pk_interp":
        return boundary_multi_indices(k), num_coeffs(k - 3)
    return multi_indices(k), 0


def _laplacian(coeffs, k: int, grad_lambda) -> np.ndarray:
    """Degree-(k-2) Laplacian coefficients (E, nc_{k-2}, m) of the degree-k
    coefficient columns (nc_k, m) on triangles with gradients grad_lambda (E, 3, 2)."""
    gram = grad_lambda @ grad_lambda.transpose(0, 2, 1)
    maps_k = _reduction_maps(k)
    maps_k1 = _reduction_maps(k - 1)
    out = np.zeros((len(gram), num_coeffs(k - 2), coeffs.shape[1]))
    for i in range(3):
        for j in range(3):
            out += gram[:, i, j, None, None] * coeffs[maps_k[i][maps_k1[j]]]
    return k * (k - 1) * out


def laplacian_operator(k: int, grad_lambda) -> np.ndarray:
    """Matrices (E, nc_{k-2}, nc_k) mapping degree-k coefficients to Laplacian
    coefficients on triangles with barycentric gradients grad_lambda (E, 3, 2)."""
    if k < 2:
        raise ValueError(f"laplacian needs degree >= 2, got {k}")
    return _laplacian(np.eye(num_coeffs(k)), k, grad_lambda)


def build_lagrange_basis(verts, k: int) -> np.ndarray:
    """Full nodal Lagrange bases (E, nb, 1, nc) on the uniform degree-k lattice."""
    if k < 1:
        raise ValueError(f"lagrange degree must be >= 1, got {k}")
    return np.repeat(_collocation_inverse(k).T[None, :, None, :], len(verts), axis=0)


def build_fs_bubble(verts) -> np.ndarray:
    """Quadratic bubbles (E, 6) with Laplacian -1, vanishing at the six edge
    Gauss points of their triangles verts (E, 3, 2).

    phi0 = (2 - 3*(l1^2 + l2^2 + l3^2)) / (6 * sum_i |grad l_i|^2).
    """
    g, _ = triangle_geometry(verts)
    s = (g ** 2).reshape(len(g), 6).sum(axis=1)
    # q = 2 - 3*sum(l_i^2): vertex coefficients -1, edge coefficients 2
    q = np.array([-1.0, 2.0, 2.0, -1.0, 2.0, -1.0])
    return q / (6.0 * s[:, None])


def build_p2nc_element(verts, standard: bool = False) -> np.ndarray:
    """Quadratic nonconforming bases (E, 7, 1, 6): 6 nodal functions + the
    Gauss-point bubble.

    The interpolated variant corrects each nodal Lagrange function eta by
    (Lap eta) * phi0, making it harmonic while leaving its values at the six
    edge Gauss points unchanged.  The standard variant keeps plain eta and
    treats the bubble as an ordinary unknown.
    """
    phi0 = build_fs_bubble(verts)
    basis = np.empty((len(verts), 7, 1, 6))
    basis[:, :6, 0] = _collocation_inverse(2).T
    basis[:, 6, 0] = phi0
    if not standard:
        lap_op = laplacian_operator(2, triangle_geometry(verts)[0])     # (E, 1, 6)
        for i in range(6):
            # one matrix-vector product per row, as on a single element
            const_lap = (lap_op @ basis[:, i, 0, :, None])[:, 0]
            basis[:, i, 0] += const_lap * phi0
    return basis


def build_p3_basis(verts) -> np.ndarray:
    """Cubic bases (E, 10, 1, 10): 9 boundary Lagrange nodes + the
    barycenter-Laplacian bubble.

    phi0 = b / (-Lap b (x0)) has Lap phi0(x0) = -1 and vanishes on all edges;
    each boundary function is corrected to have zero Laplacian at x0.
    """
    g, _ = triangle_geometry(verts)
    bary1 = bernstein_values(1, BARYCENTER)                         # (1, 3)
    lap_b = _laplacian(BUBBLE[:, None], 3, g)                       # (E, 3, 1)
    phi0 = BUBBLE / -(bary1 @ lap_b)[:, 0]                          # (E, 10)
    lap_at_x0 = bary1[0] @ (laplacian_operator(3, g) @ _collocation_inverse(3))
    nodes = [multi_indices(3).index(a) for a in boundary_multi_indices(3)]
    basis = np.empty((len(verts), 10, 1, 10))
    basis[:, :9, 0] = _collocation_inverse(3).T[nodes] + lap_at_x0[:, nodes, None] * phi0[:, None]
    basis[:, 9, 0] = phi0
    return basis


def gram_schmidt_pj(verts, k: int) -> np.ndarray:
    """Orthonormal degree-(k-3) polynomials (E, d, nc_{k-3}) under
    (u, v) = int grad(bu).grad(bv), on triangles verts (E, 3, 2).

    Raw basis: monomials ((x-x0)/diam)^a ((y-y0)/diam)^b in ascending total
    degree (1, X, Y, X^2, XY, Y^2, ...), orthonormalized in that order.
    """
    if k < 4:
        raise ValueError(f"moment element needs k >= 4, got {k}")
    deg = k - 3
    g, area = triangle_geometry(verts)
    center = verts.mean(axis=1)
    edges = verts - verts[:, [1, 2, 0]]
    diam = np.hypot(edges[..., 0], edges[..., 1]).max(axis=1)
    pts = (np.array(multi_indices(deg), dtype=float) / deg) @ verts
    X = (pts[..., 0] - center[:, 0, None]) / diam[:, None]
    Y = (pts[..., 1] - center[:, 1, None]) / diam[:, None]
    inv = _collocation_inverse(deg)
    # point values to coefficients with one matrix-vector product per monomial
    raws = np.stack([(inv @ ((X ** a) * (Y ** (total - a)))[..., None])[..., 0]
                     for total in range(deg + 1) for a in range(total, -1, -1)], axis=1)

    rule = make_quad_rule(min(2 * k, MAX_QUAD_DEGREE))
    w = rule.weights * area[:, None]
    b_vals = rule.bernstein(3) @ BUBBLE
    maps = _reduction_maps(3)
    b_gcoef = np.zeros((len(g), 6, 2))
    for i in range(3):
        b_gcoef += BUBBLE[maps[i]][None, :, None] * g[:, None, i]
    b_grads = rule.bernstein(2) @ (3 * b_gcoef)                     # (E, P, 2)
    vals_low = rule.bernstein(deg)

    def gram_of(rows):
        p_vals = vals_low @ rows.transpose(0, 2, 1)                 # (E, P, d)
        p_grads = block_gradients(rows, deg, g, rule)
        # grad(b p) = p grad b + b grad p, evaluated pointwise; einsum's bits
        # follow the operand layout, so gbp is made C-contiguous
        gbp = np.ascontiguousarray(p_vals.transpose(0, 2, 1)[..., None] * b_grads[:, None]
                                   + b_vals[None, None, :, None] * p_grads)
        return np.einsum("enpd,empd,ep->enm", gbp, gbp, w)

    coeffs = raws
    for _ in range(2):  # second pass restores orthogonality on thin triangles
        try:
            chol = np.linalg.cholesky(gram_of(coeffs))
        except np.linalg.LinAlgError as exc:
            raise ValueError("Gram matrix numerically singular on a triangle of "
                             f"{verts.tolist()}") from exc
        coeffs = np.linalg.solve(chol, coeffs)
    return coeffs


def build_pk_basis(verts, k: int) -> np.ndarray:
    """Dual bases (E, nb, 1, nc) to {3k boundary node values} + {weighted-
    Laplacian moments}, with the moment polynomials p_j of gram_schmidt_pj.

    Moment functionals: G_j(u) = int_K p_j b Lap(u); the dual interior
    functions satisfy psi_j = -b p_j.  The element inverts the full
    functional (generalized Vandermonde) matrix on the Bernstein basis.
    """
    pj = gram_schmidt_pj(verts, k)
    g, area = triangle_geometry(verts)
    alphas, n_moments = slot_layout("pk_interp", k)
    n_nodes = len(alphas)

    rule = make_quad_rule(min(2 * k, MAX_QUAD_DEGREE))
    w = rule.weights * area[:, None]
    lap_vals = rule.bernstein(k - 2) @ laplacian_operator(k, g)           # (E, P, nc)
    b_vals = rule.bernstein(3) @ BUBBLE
    low = rule.bernstein(k - 3)
    M = np.empty((len(verts), num_coeffs(k), num_coeffs(k)))
    M[:, :n_nodes] = bernstein_values(k, np.array(alphas, dtype=float) / k)
    for j in range(n_moments):
        pv = (low @ pj[:, j, :, None])[..., 0]                     # one gemv per p_j
        M[:, n_nodes + j] = ((w * b_vals * pv)[:, None, :] @ lap_vals)[:, 0]

    cond = np.linalg.cond(M)
    bad = ~np.isfinite(cond) | (cond > 1e14)
    if bad.any():
        e = np.argmax(bad)
        raise ValueError(f"unisolvence failure: functional matrix condition "
                         f"{cond[e]:.3e} on triangle {verts[e].tolist()}")
    return np.linalg.inv(M).transpose(0, 2, 1)[:, :, None, :]


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


def build_p2c_macro_basis(corners, center) -> np.ndarray:
    """Nine-function bases (M, 9, 4, 6) of the constant-Laplacian macro element
    on squares with corners (M, 4, 2) and centers (M, 2).

    DOF order: values at the 4 corners, values at the 4 side midpoints,
    Laplacian value at the center (basis function 9 normalized to
    Laplacian -1).  Part p is the triangle (corner p, corner p+1, center).
    Requires axis-aligned square macro cells.
    """
    corners = np.asarray(corners, dtype=float)
    center = np.asarray(center, dtype=float)
    sides = np.linalg.norm(np.roll(corners, -1, axis=1) - corners, axis=2)
    h = sides[:, 0]
    diag1 = np.linalg.norm(corners[:, 2] - corners[:, 0], axis=1)
    diag2 = np.linalg.norm(corners[:, 3] - corners[:, 1], axis=1)
    tol = 1e-9 * h
    if np.any((np.abs(sides - h[:, None]).max(axis=1) > tol)
              | (np.abs(diag1 - diag2) > tol) | (np.abs(diag1 - h * np.sqrt(2.0)) > tol)
              | (np.linalg.norm(corners.mean(axis=1) - center, axis=1) > tol)):
        raise ValueError("non-square macro cell")

    # 13 B-net coefficients of basis function i from its 9 DOFs (corner
    # values u1..u4, side values u5..u8, Laplacian value L), all i at once;
    # interior coefficients carry -L*h^2/8.
    u = np.eye(9)[:, :8]
    L = np.zeros(9)
    L[8] = -1.0
    lh = L * h[:, None] * h[:, None] / 8.0                          # (M, 9)
    c = np.zeros((len(h), 9, 13))
    c[..., 0:4] = u[:, 0:4]
    for s in range(4):
        c[..., 4 + s] = 2.0 * u[:, 4 + s] - 0.5 * (u[:, s] + u[:, (s + 1) % 4])
    c[..., 8] = 0.25 * (u[:, 0] + u[:, 1] + u[:, 2] + u[:, 3]) - lh
    c[..., 9] = 0.25 * (2 * u[:, 0] + u[:, 1] + u[:, 3]) - lh
    c[..., 10] = 0.25 * (2 * u[:, 1] + u[:, 2] + u[:, 0]) - lh
    c[..., 11] = 0.25 * (2 * u[:, 2] + u[:, 3] + u[:, 1]) - lh
    c[..., 12] = 0.25 * (2 * u[:, 3] + u[:, 0] + u[:, 2]) - lh
    return np.ascontiguousarray(c[..., np.array(_P2C_PARTS)])
