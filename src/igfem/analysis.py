"""Interpolants, error norms, and observed convergence orders.

The table quantity is e_h = I_h u - u_h, where I_h samples u at the
boundary-type nodes and takes the interior coefficients the discrete
solution holds (f at the Laplacian point, or the moment element's
c_j = int psi_j f, from the assembly), so e_h has no interior component for
the interpolated families.  The nonconforming interpolant fits the six edge
Gauss-point values per triangle in the least-squares sense (the 6x6 system
has rank 5, and one pseudo-inverse serves every triangle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elements as el
from .assembly import Space, corner_ids, element_blocks, norm_rule_degree
from .mesh import triangle_gauss_points
from .poly import _collocation_inverse, bernstein_values, make_quad_rule

__all__ = [
    "FeFunction",
    "interpolate_exact",
    "error_norms",
    "convergence_orders",
]

# least-squares nodal fit to the six edge Gauss-point values: the points have
# the same barycentric coordinates on every triangle, and the p2nc nodal
# functions take plain Lagrange values there
_NC_FIT = np.linalg.pinv(
    bernstein_values(2, triangle_gauss_points(np.eye(3))) @ _collocation_inverse(2))


@dataclass
class FeFunction:
    """Finite element function on a Space: the local coefficients of every
    element, `coeffs[e, m]` for local slot m of element e, (E, nb)."""

    space: Space
    coeffs: np.ndarray

    @classmethod
    def from_dofs(cls, space: Space, free: np.ndarray, interior: np.ndarray) -> "FeFunction":
        """Scatter free DOF values and the interpolated interior coefficients
        (E, n_interp per element) into the coefficient table; Dirichlet slots are 0."""
        dm = space.dof_map
        mask = dm.dofs >= 0
        coeffs = np.zeros(dm.dofs.shape)
        coeffs[mask] = free[dm.dofs[mask]]
        coeffs[:, dm.n_node:] = interior
        return cls(space, coeffs)


def interpolate_exact(u, f, space: Space, interior: np.ndarray) -> FeFunction:
    """The trial-space interpolant used by the convergence tables.

    Boundary-type node DOFs take u(node); the interpolated interior slots
    take `interior` (E, n_interp per element), the f-derived coefficients
    of the assembled solution, `SparseSystem.interp_coeffs`.  Lagrange
    elements use the full nodal interpolant.  f gives p2nc_std's bubble.
    """
    if space.family in ("p2nc_interp", "p2nc_std"):
        gp = triangle_gauss_points(space.vertices()[:, 0])           # (E, 6, 2)
        a = u(gp[..., 0], gp[..., 1]) @ _NC_FIT.T
        if space.family == "p2nc_interp":
            return FeFunction(space, np.column_stack([a, interior[:, 0]]))
        # same function in the plain-nodal basis: the bubble picks up the
        # Laplacians of the nodal functions, one row per class
        lap = el.laplacian_operator(2, space.grad_lambda[:, 0]) @ \
            space.basis[:, :6, 0].transpose(0, 2, 1)                 # (S, 1, 6)
        bubble = np.sum(a * lap[space.shape, 0], axis=1) + f(*space.lap_xy.T)
        return FeFunction(space, np.column_stack([a, bubble]))

    # u once per free node; a node shared by several elements takes its
    # point from the last of them, whose coordinates may differ in the last bit
    dm = space.dof_map
    alphas = el.slot_layout(space.family, space.k)[0]
    node_xy = (np.array(alphas, dtype=float) / space.k) @ \
        space.mesh.vertices[corner_ids(space.mesh, space.family)]    # (E, n_node, 2)
    g = dm.dofs[:, :len(alphas)].ravel()
    keys, first_rev = np.unique(g[::-1], return_index=True)
    xy = node_xy.reshape(-1, 2)[(len(g) - 1 - first_rev)[keys >= 0]]
    return FeFunction.from_dofs(space, u(xy[:, 0], xy[:, 1]), interior)


def _block_eval(side, coeffs, vals, grads, xy):
    """Values (B, P) and gradients (B, P, 2) of an error_norms argument."""
    if coeffs is None:
        u, grad = side.u_grad(xy[..., 0], xy[..., 1])
        return np.asarray(u, dtype=float), np.asarray(grad, dtype=float)
    return (coeffs[:, None, :] @ vals)[:, 0], np.einsum("bn,bnpd->bpd", coeffs, grads)


def error_norms(a, *bs) -> tuple[float, ...]:
    """(L2 norm, broken H1 seminorm) of a - b by elementwise quadrature, as
    one flat tuple (l2_1, h1_1, l2_2, h1_2, ...) with a pair per b in bs.

    Every argument may be a FeFunction or an analytic problem-like object
    whose u_grad(x, y) gives u and its gradient; at least one must be a
    FeFunction, and all FeFunctions must share their Space.  The basis tables
    are built once for all pairs.
    """
    if not bs:
        raise TypeError("error_norms needs at least one function to compare with")
    sides = (a, *bs)
    fes = [x for x in sides if isinstance(x, FeFunction)]
    if not fes:
        raise ValueError("at least one argument must be a FeFunction")
    space = fes[0].space
    if any(fe.space is not space for fe in fes[1:]):
        raise ValueError("FeFunctions live on different meshes/spaces")

    rule = make_quad_rule(norm_rule_degree(space.k))
    parts = range(space.basis.shape[2])

    def tabulate(basis, grad_lambda, area):
        """Basis values (B, nb, P) and gradients (B, nb, P, 2) of each part in turn."""
        return tuple(table for p in parts for table in (
            el.block_values(basis[:, :, p], space.k, rule),
            el.block_gradients(basis[:, :, p], space.k, grad_lambda[:, p], rule)))

    tables = [x.coeffs if isinstance(x, FeFunction) else None for x in sides]
    # L2 and H1 terms of every pair, per (element, part)
    sq = np.zeros((len(bs), 2, space.n_elements, space.area.shape[1]))
    for e, verts, area, shape_tables in element_blocks(space, tabulate):
        for part in parts:
            vals, grads = shape_tables[2 * part:2 * part + 2]
            xy = rule.points @ verts[:, part]
            (va, ga), *rest = [_block_eval(x, None if t is None else t[e], vals, grads, xy)
                               for x, t in zip(sides, tables)]
            w = (rule.weights * area[:, part, None])[:, None, :]     # (B, 1, P)
            for i, (vb, gb) in enumerate(rest):
                sq[i, 0, e, part] = (w @ ((va - vb) ** 2)[:, :, None])[:, 0, 0]
                d = ga - gb
                sq[i, 1, e, part] = (w @ (d[..., 0] ** 2 + d[..., 1] ** 2)[:, :, None])[:, 0, 0]
    # added in element order, as a loop over the elements adds them
    sums = np.cumsum(sq.reshape(2 * len(bs), -1), axis=1)[:, -1]
    return tuple(math.sqrt(abs(v)) for v in sums)


def convergence_orders(levels, errors) -> list:
    """Observed orders log2(e_{l-1} / e_l), one per level; None at the first
    level, after a gap in the levels, and where an error is not positive."""
    levels, errors = list(levels), list(errors)
    orders: list = [None] * len(errors)
    for i in range(1, len(errors)):
        prev, cur = errors[i - 1], errors[i]
        if levels[i] == levels[i - 1] + 1 and prev > 0.0 and cur > 0.0:
            orders[i] = math.log2(prev / cur)
    return orders
