"""Interpolants, error norms, and observed convergence orders.

The table quantity is e_h = I_h u - u_h, where I_h samples u at the
boundary-type nodes and takes the same f-derived interior coefficients as
the discrete solution, so e_h has no interior component for the
interpolated families.  The nonconforming interpolant fits the six edge
Gauss-point values per triangle in the least-squares sense (the 6x6 system
has rank 5, and one pseudo-inverse serves every triangle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import Space, element_blocks, interior_coefficients, norm_rule_degree
from .elements import block_gradients, block_values
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
        coeffs[:, dm.interp_mask] = interior
        return cls(space, coeffs)


def interpolate_exact(u, f, space: Space) -> FeFunction:
    """The trial-space interpolant used by the convergence tables.

    Boundary-type node DOFs take u(node); interior DOFs take the same
    f-derived values as the assembled solution.  Lagrange elements use the
    full nodal interpolant.
    """
    if space.family in ("p2nc_interp", "p2nc_std"):
        gp = triangle_gauss_points(space.verts[:, 0])                # (E, 6, 2)
        a = u(gp[..., 0], gp[..., 1]) @ _NC_FIT.T
        bubble = f(*space.lap_xy.T)
        if space.family == "p2nc_std":
            # same function in the plain-nodal basis: the bubble picks up the
            # nodal functions' Laplacian content; the Bernstein quadratic of
            # e_i + e_j has Laplacian (2 if i == j else 4) grad l_i . grad l_j
            g = space.grad_lambda[:, 0]
            i, j = np.array([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]).T
            lap = np.where(i == j, 2.0, 4.0) * np.sum(g[:, i] * g[:, j], axis=2)
            bubble = np.sum(a * (lap @ _collocation_inverse(2)), axis=1) + bubble
        return FeFunction(space, np.column_stack([a, bubble]))

    # u once per free node; a node shared by several elements takes its
    # point from the last of them, whose coordinates may differ in the last bit
    dm = space.dof_map
    g = dm.dofs[:, :space.node_xy.shape[1]].ravel()
    keys, first_rev = np.unique(g[::-1], return_index=True)
    xy = space.node_xy.reshape(-1, 2)[(len(g) - 1 - first_rev)[keys >= 0]]
    return FeFunction.from_dofs(space, u(xy[:, 0], xy[:, 1]), interior_coefficients(space, f))


def _block_eval(side, coeffs, vals, grads, xy):
    """Values (B, P) and gradients (B, P, 2) of an error_norms argument."""
    if coeffs is None:
        return (np.asarray(side.u(xy[..., 0], xy[..., 1]), dtype=float),
                np.asarray(side.grad(xy[..., 0], xy[..., 1]), dtype=float))
    return (coeffs[:, None, :] @ vals)[:, 0], np.einsum("bn,bnpd->bpd", coeffs, grads)


def error_norms(a, *bs) -> tuple[float, ...]:
    """(L2 norm, broken H1 seminorm) of a - b by elementwise quadrature, as
    one flat tuple (l2_1, h1_1, l2_2, h1_2, ...) with a pair per b in bs.

    Every argument may be a FeFunction or an analytic problem-like object
    with fields u(x, y) and grad(x, y); at least one must be a FeFunction,
    and all FeFunctions must share their Space.  The basis tables are built
    once for all pairs.
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
    tables = [x.coeffs if isinstance(x, FeFunction) else None for x in sides]
    # L2 and H1 terms of every pair, per (element, part)
    sq = np.zeros((len(bs), 2) + space.area.shape)
    for s, basis, verts, grad_lambda, area in element_blocks(space):
        for part in range(basis.shape[2]):
            vals = block_values(basis[:, :, part], space.k, rule.points)
            grads = block_gradients(basis[:, :, part], space.k, grad_lambda[:, part],
                                    rule.points)
            xy = rule.points @ verts[:, part]
            (va, ga), *rest = [_block_eval(x, None if t is None else t[s], vals, grads, xy)
                               for x, t in zip(sides, tables)]
            w = (rule.weights * area[:, part, None])[:, None, :]     # (B, 1, P)
            for i, (vb, gb) in enumerate(rest):
                sq[i, 0, s, part] = (w @ ((va - vb) ** 2)[:, :, None])[:, 0, 0]
                sq[i, 1, s, part] = (w @ np.sum((ga - gb) ** 2, axis=2)[:, :, None])[:, 0, 0]
    # added in element order, as a loop over the elements adds them
    sums = np.cumsum(sq.reshape(2 * len(bs), -1), axis=1)[:, -1]
    return tuple(math.sqrt(abs(v)) for v in sums)


def convergence_orders(errors) -> list:
    """Observed orders log2(e_{l-1} / e_l); None where undefined."""
    errors = list(errors)
    if not errors:
        return []
    orders: list = [None]
    for prev, cur in zip(errors, errors[1:]):
        if prev is None or cur is None or prev <= 0.0 or cur <= 0.0:
            orders.append(None)
        else:
            orders.append(math.log2(prev / cur))
    return orders
