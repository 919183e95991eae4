"""Interpolants, error norms, and observed convergence orders.

The table quantity is e_h = I_h u - u_h, where I_h samples u at the
boundary-type nodes and takes the same f-derived interior coefficients as
the discrete solution, so e_h has no interior component for the
interpolated families.  The nonconforming interpolant fits the six edge
Gauss-point values per triangle in the least-squares sense (the 6x6 system
has rank 5) and therefore lives element-by-element rather than in the
global coefficient vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import Space, interior_coefficients, norm_rule_degree
from .elements import laplacian_operator
from .mesh import triangle_gauss_points
from .poly import make_quad_rule

__all__ = [
    "FeFunction",
    "ErrorRecord",
    "interpolate_exact",
    "error_norms",
    "convergence_orders",
]


@dataclass
class FeFunction:
    """Finite element function: free + interpolated coefficients on a Space.

    `interp` holds the interpolated coefficients, one row per element.
    `local_coeffs` may be overridden per element (one local vector per
    element) for broken interpolants that do not share nodal values across
    elements.
    """

    space: Space
    free: np.ndarray
    interp: np.ndarray       # (E, n_interp per element)
    override: list | None = None

    def __post_init__(self):
        self.interp = np.asarray(self.interp, dtype=float)

    @classmethod
    def zero(cls, space: Space) -> "FeFunction":
        dm = space.dof_map
        return cls(space=space, free=np.zeros(dm.n_free),
                   interp=np.zeros((dm.n_elements, int(dm.interp_mask.sum()))))

    def local_coeffs(self, eid: int) -> np.ndarray:
        if self.override is not None:
            return self.override[eid]
        dm = self.space.dof_map
        dofs = dm.dofs[eid]
        free = dofs >= 0
        out = np.zeros(len(dofs))
        out[free] = self.free[dofs[free]]
        out[dm.interp_mask] = self.interp[eid]
        return out

    def scaled(self, s: float) -> "FeFunction":
        override = None if self.override is None else [s * v for v in self.override]
        return FeFunction(self.space, s * self.free, s * self.interp, override)


def _nc_local_interpolant(element, geom, u) -> np.ndarray:
    """Least-squares nodal fit of the six edge Gauss-point values of u."""
    gp = triangle_gauss_points(geom.vertices)
    bary = np.array([geom.to_barycentric(p) for p in gp])
    M = element.basis_values(bary)[:6].T          # (6 points, 6 nodal funcs)
    rhs = np.asarray(u(gp[:, 0], gp[:, 1]), dtype=float)
    a, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return a


def interpolate_exact(u, f, space: Space) -> FeFunction:
    """The trial-space interpolant used by the convergence tables.

    Boundary-type node DOFs take u(node); interior DOFs take the same
    f-derived values as the assembled solution.  Lagrange elements use the
    full nodal interpolant.
    """
    dm = space.dof_map
    free = np.zeros(dm.n_free)
    if space.family in ("p2nc_interp", "p2nc_std"):
        interp, override = [], []
        for eid, element in enumerate(space.elements):
            geom = element.geoms[0]
            a = _nc_local_interpolant(element, geom, u)
            x0, y0 = geom.barycenter
            if space.family == "p2nc_interp":
                override.append(np.concatenate([a, [f(x0, y0)]]))
                interp.append(np.array([f(x0, y0)]))
            else:
                # same function in the plain-nodal basis: the bubble picks up
                # the nodal functions' Laplacian content
                lap_nodal = np.array([
                    _constant_laplacian(element, i) for i in range(6)])
                bubble = float(a @ lap_nodal) + f(x0, y0)
                override.append(np.concatenate([a, [bubble]]))
                interp.append(np.zeros(0))
        return FeFunction(space=space, free=free, interp=interp, override=override)

    for eid, element in enumerate(space.elements):
        for loc in np.flatnonzero(dm.dofs[eid] >= 0):
            if element.dofs[loc].kind == "node":
                x, y = element.dofs[loc].point
                free[dm.dofs[eid, loc]] = u(x, y)
    interp = [interior_coefficients(element, f) for element in space.elements]
    return FeFunction(space=space, free=free, interp=interp)


def _constant_laplacian(element, i: int) -> float:
    geom = element.geoms[0]
    lap = laplacian_operator(element.degree, geom) @ element.basis[i, 0]
    return float(lap[0])


def _as_evaluator(obj):
    """Normalize an error_norms argument to (kind, payload)."""
    if isinstance(obj, FeFunction):
        return "fe", obj
    if hasattr(obj, "u") and hasattr(obj, "grad"):
        return "analytic", obj
    raise TypeError(f"expected FeFunction or an object with .u/.grad, got {type(obj)}")


def error_norms(a, b, quad_degree: int | None = None) -> tuple[float, float]:
    """(L2 norm, broken H1 seminorm) of a - b by elementwise quadrature.

    Either argument may be a FeFunction or an analytic problem-like object
    with fields u(x, y) and grad(x, y); at least one side must be a
    FeFunction, and two FeFunctions must share their Space.
    """
    kind_a, pa = _as_evaluator(a)
    kind_b, pb = _as_evaluator(b)
    fes = [p for k, p in ((kind_a, pa), (kind_b, pb)) if k == "fe"]
    if not fes:
        raise ValueError("at least one argument must be a FeFunction")
    space = fes[0].space
    if len(fes) == 2 and fes[1].space is not space:
        raise ValueError("FeFunctions live on different meshes/spaces")

    rule = make_quad_rule(quad_degree if quad_degree is not None
                          else norm_rule_degree(space.k))
    l2_sq = 0.0
    h1_sq = 0.0
    for eid, element in enumerate(space.elements):
        ca = pa.local_coeffs(eid) if kind_a == "fe" else None
        cb = pb.local_coeffs(eid) if kind_b == "fe" else None
        for part, geom in enumerate(element.geoms):
            vals_tab = element.basis_values(rule.points, part)
            grads_tab = element.basis_gradients(rule.points, part)
            xy = rule.points @ geom.vertices
            if kind_a == "fe":
                va = ca @ vals_tab
                ga = np.einsum("n,npd->pd", ca, grads_tab)
            else:
                va = np.asarray(pa.u(xy[:, 0], xy[:, 1]), dtype=float)
                ga = np.asarray(pa.grad(xy[:, 0], xy[:, 1]), dtype=float)
            if kind_b == "fe":
                vb = cb @ vals_tab
                gb = np.einsum("n,npd->pd", cb, grads_tab)
            else:
                vb = np.asarray(pb.u(xy[:, 0], xy[:, 1]), dtype=float)
                gb = np.asarray(pb.grad(xy[:, 0], xy[:, 1]), dtype=float)
            w = rule.weights * geom.area
            l2_sq += w @ (va - vb) ** 2
            h1_sq += w @ np.sum((ga - gb) ** 2, axis=1)
    return math.sqrt(abs(l2_sq)), math.sqrt(abs(h1_sq))


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


@dataclass
class ErrorRecord:
    """Per-level errors of one family: table quantity e_h and the true error."""

    level: int
    h: float
    free_dofs: int
    interp_dofs: int
    l2_ih: float
    h1_ih: float
    l2_true: float
    h1_true: float
    order_l2: float | None = None
    order_h1: float | None = None
