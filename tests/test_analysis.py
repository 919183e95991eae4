import numpy as np
import pytest

import math

from bpoly import TriGeom, domain_points, per_element
from igfem.analysis import (FeFunction, convergence_orders, error_norms,
                            interpolate_exact)
from igfem.assembly import assemble_system, build_space, corner_ids, norm_rule_degree
from igfem.cli import PROBLEMS
from igfem.elements import block_gradients, block_values, laplacian_operator, slot_layout
from igfem.mesh import build_crisscross_mesh, triangle_gauss_points
from igfem.poly import make_quad_rule
from igfem.solver import cg_solve

SINE = PROBLEMS["sine"]
PATCH = PROBLEMS["poly4"]


class Quadratic:
    """x^2 + 2xy - y^2 + x - 3y + 1/2 with its gradient."""

    @staticmethod
    def u(x, y):
        return x ** 2 + 2 * x * y - y ** 2 + x - 3 * y + 0.5

    @staticmethod
    def grad(x, y):
        return np.stack([2 * x + 2 * y + 1, 2 * x - 2 * y - 3], axis=-1)


def element_geom(space, eid, part=0):
    return TriGeom.from_vertices(space.vertices(eid)[part])


def node_points(space, eid):
    """Points (n_node, 2) of element eid's node slots, (alpha / k) @ its corners."""
    alphas = slot_layout(space.family, space.k)[0]
    corners = space.mesh.vertices[corner_ids(space.mesh, space.family)[eid]]
    return (np.array(alphas, dtype=float) / space.k) @ corners


def basis_values(space, eid, bary, part=0):
    """Values (nb, P) of the basis of element eid on one part."""
    return block_values(per_element(space, "basis", eid)[None, :, part], space.k, bary)[0]


def basis_gradients(space, eid, bary, part=0):
    """Gradients (nb, P, 2) of the basis of element eid on one part."""
    return block_gradients(per_element(space, "basis", eid)[None, :, part], space.k,
                           per_element(space, "grad_lambda", eid)[part][None], bary)[0]


def solve(space, problem, tol=1e-13):
    system = assemble_system(space, problem.f)
    if space.dof_map.n_free:
        x, _ = cg_solve(system.A, system.F, rel_tol=tol)
    else:
        x = np.zeros(0)
    return FeFunction.from_dofs(space, x, system.interp_coeffs)


def interpolant(u, f, space):
    """I_h u, with the interior coefficients of the system assembled for f."""
    return interpolate_exact(u, f, space, assemble_system(space, f).interp_coeffs)


def zero_function(space):
    return FeFunction(space, np.zeros(space.dof_map.dofs.shape))


def test_identical_inputs_give_zero():
    space = build_space(build_crisscross_mesh(2), "p3_interp")
    u_h = solve(space, SINE)
    assert error_norms(u_h, u_h) == (0.0, 0.0)


def test_analytic_vs_zero_function():
    # L2 norm of sin(pi x) sin(pi y) is 1/2; H1 seminorm is pi/sqrt(2)
    space = build_space(build_crisscross_mesh(3), "pk_lagrange", 2)
    zero = zero_function(space)
    l2, h1 = error_norms(SINE, zero)
    assert l2 == pytest.approx(0.5, rel=1e-12)
    assert h1 == pytest.approx(np.pi / np.sqrt(2.0), rel=1e-12)


def test_single_triangle_norms_against_symbolic():
    # norms of the quadratic over the triangle (0,0),(1,0),(1/2,1/2):
    # L2^2 = 41/144 and |.|_1^2 = 17/6 by symbolic integration
    mesh = build_crisscross_mesh(1)
    space = build_space(mesh, "pk_lagrange", 2)
    coeffs = []
    target = None
    for eid in range(space.n_elements):
        geom = element_geom(space, eid)
        pts = domain_points(2, geom)
        vals = Quadratic.u(pts[:, 0], pts[:, 1])
        if np.allclose(geom.vertices, [[0, 0], [1, 0], [0.5, 0.5]]):
            coeffs.append(vals)
            target = eid
        else:
            coeffs.append(np.zeros(6))
    assert target is not None
    fe = FeFunction(space, np.array(coeffs))
    l2, h1 = error_norms(fe, zero_function(space))
    assert l2 == pytest.approx(np.sqrt(41.0 / 144.0), rel=1e-12)
    assert h1 == pytest.approx(np.sqrt(17.0 / 6.0), rel=1e-12)


def test_norm_homogeneity():
    space = build_space(build_crisscross_mesh(2), "p2nc_interp")
    u_h = solve(space, SINE)
    zero = zero_function(space)
    l2, h1 = error_norms(u_h, zero)
    l2s, h1s = error_norms(FeFunction(space, -2.5 * u_h.coeffs), zero)
    assert l2s == pytest.approx(2.5 * l2, rel=1e-12)
    assert h1s == pytest.approx(2.5 * h1, rel=1e-12)


@pytest.mark.parametrize("family,k", [("pk_lagrange", 2), ("p3_interp", 3),
                                      ("p2nc_interp", 2)])
def test_triangle_inequality_sanity(family, k):
    space = build_space(build_crisscross_mesh(3), family, k)
    u_h = solve(space, SINE)
    i_h = interpolant(SINE.u, SINE.f, space)
    e_tot = error_norms(SINE, u_h)
    e_int = error_norms(SINE, i_h)
    e_h = error_norms(i_h, u_h)
    for i in range(2):
        assert abs(e_tot[i] - e_int[i]) <= e_h[i] + 1e-13


def test_lagrange_interpolant_is_nodal():
    space = build_space(build_crisscross_mesh(2), "pk_lagrange", 3)
    i_h = interpolant(SINE.u, SINE.f, space)
    for eid in range(space.n_elements):
        local = i_h.coeffs[eid]
        for loc, (x, y) in enumerate(node_points(space, eid)):
            on_boundary = space.dof_map.dofs[eid, loc] < 0
            expected = 0.0 if on_boundary else SINE.u(x, y)
            assert local[loc] == pytest.approx(expected, abs=1e-13)


def test_interpolant_of_zero_is_zero():
    space = build_space(build_crisscross_mesh(2), "pk_interp", 4)
    zero_problem = lambda x, y: 0.0 * x
    i_h = interpolant(zero_problem, zero_problem, space)
    assert i_h.coeffs.shape == space.dof_map.dofs.shape
    assert np.allclose(i_h.coeffs, 0.0)


def test_patch_function_interpolates_exactly():
    # u = x(1-x)y(1-y) lies in the degree-4 trial space
    space = build_space(build_crisscross_mesh(2), "pk_interp", 4)
    i_h = interpolant(PATCH.u, PATCH.f, space)
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 1.0, size=(50, 2))
    # locate each point's triangle by brute force and evaluate
    mesh = space.mesh
    for x, y in pts:
        for eid in range(space.n_elements):
            geom = element_geom(space, eid)
            lam = geom.to_barycentric((x, y))
            if np.all(lam >= -1e-12):
                local = i_h.coeffs[eid]
                got = float(local @ basis_values(space, eid, np.array([lam]))[:, 0])
                assert got == pytest.approx(PATCH.u(x, y), abs=1e-10)
                break


def test_nc_interpolant_reproduces_local_trial_functions():
    mesh = build_crisscross_mesh(2)
    space = build_space(mesh, "p2nc_interp")
    # u = x^2 + y^2 has constant Laplacian 4, so with f = -Lap u = -4 the
    # bubble coefficient comes out right and I_h u = u elementwise
    u = lambda x, y: x ** 2 + y ** 2
    f = lambda x, y: -4.0 + 0.0 * x
    i_h = interpolant(u, f, space)
    rule_pts = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [1 / 3, 1 / 3, 1 / 3]])
    for eid in range(space.n_elements):
        geom = element_geom(space, eid)
        local = i_h.coeffs[eid]
        got = local @ basis_values(space, eid, rule_pts)
        xy = rule_pts @ geom.vertices
        assert np.allclose(got, u(xy[:, 0], xy[:, 1]), atol=1e-11)


@pytest.mark.parametrize("family,k", [("p2c_interp", 2), ("p2nc_interp", 2),
                                      ("p3_interp", 3), ("pk_interp", 5), ("pk_interp", 8)])
def test_eh_has_zero_interior_coefficients(family, k):
    # u_h and I_h u hold the one interior array the assembly computed
    space = build_space(build_crisscross_mesh(2), family, k)
    system = assemble_system(space, SINE.f)
    x, _ = cg_solve(system.A, system.F, rel_tol=1e-13)
    u_h = FeFunction.from_dofs(space, x, system.interp_coeffs)
    i_h = interpolate_exact(SINE.u, SINE.f, space, system.interp_coeffs)
    n_node = space.dof_map.n_node
    assert n_node < space.basis.shape[1]
    assert np.array_equal(u_h.coeffs[:, n_node:], i_h.coeffs[:, n_node:])


def test_error_norms_rejects_mismatched_spaces():
    s1 = build_space(build_crisscross_mesh(2), "p3_interp")
    s2 = build_space(build_crisscross_mesh(3), "p3_interp")
    with pytest.raises(ValueError):
        error_norms(solve(s1, SINE), solve(s2, SINE))


def test_error_norms_needs_fe_side():
    with pytest.raises((TypeError, ValueError)):
        error_norms(SINE, SINE)


def test_error_norms_flat_pairs():
    space = build_space(build_crisscross_mesh(2), "pk_lagrange", 3)
    u_h = solve(space, SINE)
    zero = zero_function(space)
    assert error_norms(u_h, zero, SINE, u_h) == (
        error_norms(u_h, zero) + error_norms(u_h, SINE) + (0.0, 0.0))
    with pytest.raises(TypeError):
        error_norms(u_h)
    with pytest.raises(ValueError):
        error_norms(SINE, SINE, SINE)
    other = solve(build_space(build_crisscross_mesh(3), "pk_lagrange", 3), SINE)
    with pytest.raises(ValueError):
        error_norms(SINE, u_h, other)


def test_convergence_orders_table_pair():
    orders = convergence_orders([3, 4], [0.723e-04, 0.887e-05])
    assert orders[0] is None
    assert round(orders[1], 1) == 3.0


def test_convergence_orders_simple():
    assert convergence_orders([1, 2], [4.0, 1.0])[1] == pytest.approx(2.0)
    assert convergence_orders([1, 2], [3.0, 3.0])[1] == pytest.approx(0.0)
    assert convergence_orders([1, 2], [1.0, 0.0]) == [None, None]
    assert convergence_orders([1, 2], [0.0, 1.0]) == [None, None]
    assert convergence_orders([1], [1.0]) == [None]
    assert convergence_orders([], []) == []


def test_convergence_orders_level_gap():
    # no order across a gap in the levels; the next consecutive pair has one
    orders = convergence_orders([1, 2, 4, 5], [16.0, 4.0, 2.0, 0.25])
    assert orders[0] is None and orders[2] is None
    assert orders[1] == pytest.approx(2.0) and orders[3] == pytest.approx(3.0)
    assert convergence_orders((2, 4), (4.0, 1.0)) == [None, None]


# --- element-loop references ------------------------------------------------

def _reference_error_norms(a, b):
    """error_norms as a loop over the elements and their parts."""
    space = a.space if isinstance(a, FeFunction) else b.space
    rule = make_quad_rule(norm_rule_degree(space.k))
    l2_sq = 0.0
    h1_sq = 0.0
    for eid in range(space.n_elements):
        for part, area in enumerate(per_element(space, "area", eid)):
            vals_tab = basis_values(space, eid, rule.points, part)
            grads_tab = basis_gradients(space, eid, rule.points, part)
            xy = rule.points @ space.vertices(eid)[part]
            side = []
            for obj in (a, b):
                if isinstance(obj, FeFunction):
                    c = obj.coeffs[eid]
                    side.append((c @ vals_tab, np.einsum("n,npd->pd", c, grads_tab)))
                else:
                    u, grad = obj.u_grad(xy[:, 0], xy[:, 1])
                    side.append((np.asarray(u, dtype=float), np.asarray(grad, dtype=float)))
            (va, ga), (vb, gb) = side
            w = rule.weights * area
            l2_sq += w @ (va - vb) ** 2
            h1_sq += w @ np.sum((ga - gb) ** 2, axis=1)
    return math.sqrt(abs(l2_sq)), math.sqrt(abs(h1_sq))


def _reference_interpolant(u, interior, space):
    """The conforming interpolant as a loop over elements and node slots:
    a node shared by several elements takes u at the last one's point, and
    the interpolated slots take the interior coefficients given."""
    dm = space.dof_map
    free = np.zeros(dm.n_free)
    for eid in range(space.n_elements):
        nodes = node_points(space, eid)
        for loc in np.flatnonzero(dm.dofs[eid] >= 0):
            if loc < len(nodes):    # a node slot
                x, y = nodes[loc]
                free[dm.dofs[eid, loc]] = u(x, y)
    coeffs = np.zeros(dm.dofs.shape)
    for eid in range(space.n_elements):
        for loc in np.flatnonzero(dm.dofs[eid] >= 0):
            coeffs[eid, loc] = free[dm.dofs[eid, loc]]
        coeffs[eid, dm.n_node:] = interior[eid]
    return FeFunction(space, coeffs)


def _reference_nc_interpolant(u, f, space):
    """The p2nc interpolant by a least-squares fit on every triangle."""
    coeffs = []
    for eid in range(space.n_elements):
        geom = element_geom(space, eid)
        gp = triangle_gauss_points(geom.vertices)
        bary = np.array([geom.to_barycentric(p) for p in gp])
        M = basis_values(space, eid, bary)[:6].T      # (6 points, 6 nodal funcs)
        a, *_ = np.linalg.lstsq(M, u(gp[:, 0], gp[:, 1]), rcond=None)
        bubble = f(*geom.barycenter)
        if space.family == "p2nc_std":
            lap_op = laplacian_operator(2, geom.grad_lambda[None])[0]
            bubble += sum(a[i] * (lap_op @ per_element(space, "basis", eid)[i, 0])[0] for i in range(6))
        coeffs.append(np.concatenate([a, [bubble]]))
    return FeFunction(space, np.array(coeffs))


@pytest.mark.parametrize("family,k,level,perturb", [
    ("p2c_interp", 2, 2, 0.0), ("p3_interp", 3, 2, 0.0), ("pk_interp", 4, 2, 0.0),
    ("pk_interp", 5, 2, 0.0), ("pk_lagrange", 2, 2, 0.0), ("pk_lagrange", 3, 2, 0.0),
    ("pk_interp", 8, 1, 0.0), ("pk_lagrange", 8, 1, 0.0),
    ("p3_interp", 3, 3, 0.2), ("pk_interp", 5, 3, 0.2)])
def test_interpolant_and_norms_bit_identical_to_element_loop(family, k, level, perturb):
    space = build_space(build_crisscross_mesh(level, perturb=perturb), family, k)
    u_h = solve(space, SINE)
    interior = assemble_system(space, SINE.f).interp_coeffs
    i_h = interpolate_exact(SINE.u, SINE.f, space, interior)
    ref = _reference_interpolant(SINE.u, interior, space)
    assert np.array_equal(i_h.coeffs, ref.coeffs)
    assert error_norms(i_h, u_h) == _reference_error_norms(ref, u_h)
    assert error_norms(SINE, u_h) == _reference_error_norms(SINE, u_h)
    # one pass over both pairs, in either order, gives the bits of the loop
    both = _reference_error_norms(ref, u_h) + _reference_error_norms(SINE, u_h)
    assert error_norms(u_h, i_h, SINE) == both
    assert error_norms(u_h, i_h, SINE) == error_norms(i_h, u_h) + error_norms(SINE, u_h)


@pytest.mark.parametrize("family", ["p2nc_interp", "p2nc_std"])
@pytest.mark.parametrize("level,perturb", [(2, 0.0), (4, 0.0), (3, 0.2)])
def test_nc_interpolant_matches_least_squares_loop(family, level, perturb):
    # one pseudo-inverse for every triangle instead of a fit per triangle:
    # the rounding changes, so e_h agrees to a tolerance, not bit for bit
    space = build_space(build_crisscross_mesh(level, perturb=perturb), family)
    u_h = solve(space, SINE)
    e_h = error_norms(interpolant(SINE.u, SINE.f, space), u_h)
    e_ref = error_norms(_reference_nc_interpolant(SINE.u, SINE.f, space), u_h)
    assert e_h == pytest.approx(e_ref, rel=1e-9, abs=0.0)
    assert error_norms(SINE, u_h) == _reference_error_norms(SINE, u_h)
