import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from bpoly import BPoly, TriGeom, bpoly_eval, bpoly_laplacian, per_element
import igfem.assembly
import igfem.elements
from igfem.assembly import (BLOCK_BYTES, FAMILIES, assemble_system, block_size,
                            build_dof_map, build_space, element_blocks,
                            load_rule_degree, norm_rule_degree, resolve_degree,
                            stiffness_rule_degree)
from igfem.elements import (BARYCENTER, BUBBLE, block_gradients, block_values,
                            gram_schmidt_pj, laplacian_operator)
from igfem.mesh import build_crisscross_mesh
from igfem.poly import (MAX_QUAD_DEGREE, QuadRule, bernstein_values, make_quad_rule,
                        num_coeffs, triangle_geometry)
from igfem.solver import cg_solve
from igfem.cli import PROBLEMS
from igfem.analysis import FeFunction, error_norms, interpolate_exact

SINE = PROBLEMS["sine"]
PATCH = PROBLEMS["poly4"]


def element_geom(space, eid, part=0):
    return TriGeom.from_vertices(space.vertices(eid)[part])


def solve(space, problem, tol=1e-13):
    system = assemble_system(space, f=problem.f)
    if space.dof_map.n_free:
        x, stats = cg_solve(system.A, system.F, rel_tol=tol)
    else:
        x, stats = np.zeros(0), None
    return FeFunction.from_dofs(space, x, system.interp_coeffs), system, stats


def test_resolve_degree_validation():
    assert resolve_degree("p2c_interp") == 2
    assert resolve_degree("p3_interp", 3) == 3
    assert resolve_degree("pk_interp", 5) == 5
    with pytest.raises(ValueError):
        resolve_degree("p2c_interp", 3)
    with pytest.raises(ValueError):
        resolve_degree("pk_interp", 3)
    with pytest.raises(ValueError):
        resolve_degree("pk_lagrange", 0)
    with pytest.raises(ValueError):
        resolve_degree("nope", 2)
    with pytest.raises(ValueError):
        resolve_degree("pk_interp")


def test_dof_counts_level2_p2c():
    dm = build_dof_map(build_crisscross_mesh(2), "p2c_interp")
    # 1 interior corner + 4 interior side midpoints
    assert dm.n_free == 5
    assert dm.n_interp == 4
    assert dm.n_node == 8


def test_dof_counts_level2_p3():
    dm = build_dof_map(build_crisscross_mesh(2), "p3_interp")
    # interior vertices (5) + 2 nodes per interior edge (2 * 20)
    assert dm.n_free == 45
    assert dm.n_interp == 16


def test_dof_counts_level1_p2c_empty():
    dm = build_dof_map(build_crisscross_mesh(1), "p2c_interp")
    assert dm.n_free == 0
    assert dm.n_interp == 1


@pytest.mark.parametrize("k", [4, 5, 6])
def test_local_slot_reduction(k):
    mesh = build_crisscross_mesh(2)
    interp = build_dof_map(mesh, "pk_interp", k)
    lagr = build_dof_map(mesh, "pk_lagrange", k)
    assert interp.n_node == 3 * k
    assert lagr.n_node == (k + 1) * (k + 2) // 2


def test_p2c_rejects_perturbed_mesh():
    mesh = build_crisscross_mesh(2, perturb=0.1)
    with pytest.raises(ValueError):
        build_dof_map(mesh, "p2c_interp")


def test_shared_edge_dofs_are_identified():
    mesh = build_crisscross_mesh(2)
    dm = build_dof_map(mesh, "pk_lagrange", 3)
    # 13 vertices + 2 * 28 edge nodes + 16 interior = 85 total, minus boundary
    boundary = 8 + 2 * 8  # boundary vertices + nodes on 8 boundary edges
    assert dm.n_free == 13 + 56 + 16 - boundary


def test_interior_coefficients_zero_f():
    mesh = build_crisscross_mesh(1)
    for family, k in (("p2nc_interp", 2), ("p3_interp", 3), ("pk_interp", 4)):
        space = build_space(mesh, family, k)
        c = assemble_system(space, lambda x, y: 0.0 * x).interp_coeffs
        assert c.shape == (space.n_elements, space.basis.shape[1] - space.dof_map.n_node)
        assert np.allclose(c, 0.0)


def test_interior_coefficients_p3_constant_f():
    mesh = build_crisscross_mesh(2)
    space = build_space(mesh, "p3_interp")
    c = assemble_system(space, lambda x, y: 1.0 + 0.0 * x).interp_coeffs
    assert c.shape == (space.n_elements, 1)
    assert c == pytest.approx(1.0)


# the load entries int psi_j f differ from the moment form -int p_j b f by at
# most 4.8e-13 of max |c| (pk_interp k=4..8, levels 1..4 and perturbed
# level 3, sine and poly4); 5e-12 leaves a tenfold margin
MOMENT_REL = 5e-12


def test_interior_coefficients_match_moment_functionals_of_u():
    # oracle: apply G_j directly to the known solution by quadrature; the
    # assembly takes c_j = int psi_j f from its load pass, psi_j = -b p_j
    mesh = build_crisscross_mesh(2)
    rule = make_quad_rule(12)     # exact for p_j b Lap u up to k = 8
    for k in (4, 8):
        space = build_space(mesh, "pk_interp", k)
        c = assemble_system(space, PATCH.f).interp_coeffs
        pjs = gram_schmidt_pj(space.vertices()[:, 0], k)
        gj_u = np.zeros_like(c)
        for eid in range(space.n_elements):
            geom = element_geom(space, eid)
            xy = rule.points @ geom.vertices
            w = rule.weights * geom.area
            bv = bpoly_eval(BPoly(3, BUBBLE, geom), rule.points)
            # Lap u for u = x(1-x)y(1-y)
            lap_u = -2.0 * (xy[:, 1] * (1 - xy[:, 1]) + xy[:, 0] * (1 - xy[:, 0]))
            for j, pj in enumerate(pjs[eid]):
                gj_u[eid, j] = w @ (bpoly_eval(BPoly(k - 3, pj, geom), rule.points)
                                    * bv * lap_u)
        assert np.abs(c - gj_u).max() <= MOMENT_REL * np.abs(gj_u).max(), k


@pytest.mark.parametrize("family,k", [("p2c_interp", 2), ("p2nc_interp", 2),
                                      ("p2nc_std", 2), ("p3_interp", 3),
                                      ("pk_interp", 4), ("pk_lagrange", 2)])
def test_assembled_matrix_symmetric(family, k):
    space = build_space(build_crisscross_mesh(2), family, k)
    system = assemble_system(space, SINE.f)
    A = system.A.toarray()
    scale = np.abs(A).max()
    assert np.abs(A - A.T).max() <= 1e-12 * scale


@pytest.mark.parametrize("family,k", [("p2c_interp", 2), ("p3_interp", 3),
                                      ("pk_interp", 5), ("pk_lagrange", 3)])
def test_conforming_matrix_positive_definite(family, k):
    space = build_space(build_crisscross_mesh(2), family, k)
    system = assemble_system(space, SINE.f)
    A = system.A.toarray()
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.normal(size=A.shape[0])
        assert v @ A @ v > 0.0
    assert np.linalg.eigvalsh(A).min() > 0.0


@pytest.mark.parametrize("family", ["p2nc_interp", "p2nc_std"])
def test_nonconforming_semidefinite_null_function_is_zero(family):
    mesh = build_crisscross_mesh(2)
    space = build_space(mesh, family)
    system = assemble_system(space, f=SINE.f)
    A = system.A.toarray()
    w, V = np.linalg.eigh(A)
    null = w <= 1e-10 * w.max()
    assert null.sum() <= 1
    for idx in np.where(null)[0]:
        coeffs = V[:, idx]
        fe = FeFunction.from_dofs(space, coeffs, np.zeros_like(system.interp_coeffs))
        l2, _ = error_norms(fe, FeFunction(space, np.zeros(space.dof_map.dofs.shape)))
        assert l2 <= 1e-10 * np.linalg.norm(coeffs)


def test_level1_p2c_interp_only_solution():
    mesh = build_crisscross_mesh(1)
    space = build_space(mesh, "p2c_interp")
    u_h, system, _ = solve(space, SINE)
    assert system.A.shape[0] == 0
    # the solution is f(center)/1 times the interior basis function; nonzero
    l2, _ = error_norms(u_h, FeFunction(space, np.zeros(space.dof_map.dofs.shape)))
    assert l2 > 0.1


@pytest.mark.parametrize("level", [1, 2, 3])
def test_patch_test_k4(level):
    mesh = build_crisscross_mesh(level)
    space = build_space(mesh, "pk_interp", 4)
    u_h, _, _ = solve(space, PATCH, tol=1e-14)
    l2, _ = error_norms(PATCH, u_h)
    assert l2 <= 1e-9


def test_galerkin_residual_small_after_solve():
    mesh = build_crisscross_mesh(3)
    space = build_space(mesh, "p3_interp")
    system = assemble_system(space, f=SINE.f)
    x, stats = cg_solve(system.A, system.F, rel_tol=1e-13)
    r = system.A @ x - system.F
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(system.F)


def test_elementwise_interior_consistency_p3():
    # after the solve, the Laplacian of u_h at each barycenter equals -f there
    mesh = build_crisscross_mesh(2)
    space = build_space(mesh, "p3_interp")
    u_h, _, _ = solve(space, SINE)
    for eid in range(space.n_elements):
        geom = element_geom(space, eid)
        local = u_h.coeffs[eid]
        func = BPoly(3, local @ per_element(space, "basis", eid)[:, 0, :], geom)
        lap = bpoly_eval(bpoly_laplacian(func), BARYCENTER)
        x0, y0 = geom.barycenter
        assert lap == pytest.approx(-SINE.f(x0, y0), rel=1e-12, abs=1e-12)


def test_elementwise_interior_consistency_moments():
    mesh = build_crisscross_mesh(2)
    space = build_space(mesh, "pk_interp", 4)
    u_h, system, _ = solve(space, SINE)
    rule = make_quad_rule(12)
    for eid in range(space.n_elements):
        geom = element_geom(space, eid)
        local = u_h.coeffs[eid]
        func_coeffs = local @ per_element(space, "basis", eid)[:, 0, :]
        lap = laplacian_operator(4, geom.grad_lambda[None])[0] @ func_coeffs
        lapv = bernstein_values(2, rule.points) @ lap
        w = rule.weights * geom.area
        bv = bpoly_eval(BPoly(3, BUBBLE, geom), rule.points)
        for j, pj in enumerate(gram_schmidt_pj(geom.vertices[None], 4)[0]):
            gj = w @ (bpoly_eval(BPoly(1, pj, geom), rule.points) * bv * lapv)
            assert gj == pytest.approx(system.interp_coeffs[eid][j],
                                       rel=1e-12, abs=1e-12)


def test_interior_test_function_orthogonality_on_patch():
    # (grad(u - u_h), grad psi_j)_K = (f, psi_j)_K - (grad u_h, grad psi_j)_K
    # must vanish elementwise for the in-space solution
    mesh = build_crisscross_mesh(2)
    space = build_space(mesh, "pk_interp", 4)
    u_h, _, _ = solve(space, PATCH, tol=1e-14)
    rule = make_quad_rule(12)
    for eid in range(space.n_elements):
        geom = element_geom(space, eid)
        local = u_h.coeffs[eid]
        vals = basis_values(space, eid, rule.points)
        grads = basis_gradients(space, eid, rule.points)
        uh_grad = np.einsum("n,npd->pd", local, grads)
        xy = rule.points @ geom.vertices
        w = rule.weights * geom.area
        fv = PATCH.f(xy[:, 0], xy[:, 1])
        for slot in range(space.dof_map.n_node, space.basis.shape[1]):
            lhs = w @ np.sum(uh_grad * grads[slot], axis=1)
            rhs = w @ (fv * vals[slot])
            assert abs(lhs - rhs) <= 1e-9


def basis_values(space, eid, bary, part=0):
    """Values (nb, P) of the basis of element eid on one part."""
    return block_values(per_element(space, "basis", eid)[None, :, part], space.k, bary)[0]


def basis_gradients(space, eid, bary, part=0):
    """Gradients (nb, P, 2) of the basis of element eid on one part."""
    return block_gradients(per_element(space, "basis", eid)[None, :, part], space.k,
                           per_element(space, "grad_lambda", eid)[part][None], bary)[0]


def _element_interior_coefficients(space, eid, f, L) -> np.ndarray:
    """Interior coefficients of one element with local load L: the moment
    element's c_j = -int p_j b f is the load of psi_j = -b p_j."""
    if space.family == "pk_interp":
        return L[space.dof_map.n_node:]
    if space.family in ("p2c_interp", "p2nc_interp", "p3_interp"):
        x, y = space.lap_xy[eid]
        return np.array([f(x, y)], dtype=float)
    return np.zeros(0)


def _element_contribution(space, f, eid: int):
    """(local stiffness, local load, interior coefficients) for one element."""
    k = space.k
    stiff_rule = make_quad_rule(stiffness_rule_degree(k))
    load_rule = make_quad_rule(load_rule_degree(k))
    nb = space.basis.shape[1]
    S = np.zeros((nb, nb))
    L = np.zeros(nb)
    for part in range(space.basis.shape[2]):
        area = per_element(space, "area", eid)[part]
        grads = basis_gradients(space, eid, stiff_rule.points, part)   # (nb, P, 2)
        S += area * np.einsum("npd,mpd,p->nm", grads, grads, stiff_rule.weights)
        vals = basis_values(space, eid, load_rule.points, part)        # (nb, P)
        xy = load_rule.points @ space.vertices(eid)[part]
        fv = f(xy[:, 0], xy[:, 1])
        L += area * vals @ (load_rule.weights * fv)
    c = _element_interior_coefficients(space, eid, f, L)
    return S, L, c


def _reference_assembly(space, f):
    """The element-by-element scatter: COO entries appended per element,
    local row, local column, and F updated in the same order."""
    dm = space.dof_map
    rows, cols, vals = [], [], []
    F = np.zeros(dm.n_free)
    coeffs = []
    interp_slots = range(dm.n_node, dm.dofs.shape[1])
    for eid in range(space.n_elements):
        S, L, c = _element_contribution(space, f, eid)
        coeffs.append(c)
        free = [(loc, g) for loc, g in enumerate(dm.dofs[eid]) if g >= 0]
        for loc_m, g_m in free:
            F[g_m] += L[loc_m]
            for loc_n, g_n in free:
                rows.append(g_m)
                cols.append(g_n)
                vals.append(S[loc_m, loc_n])
            for j, loc_j in enumerate(interp_slots):
                F[g_m] -= S[loc_m, loc_j] * c[j]
    A = sp.coo_matrix((vals, (rows, cols)), shape=(dm.n_free, dm.n_free)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A, F, np.array(coeffs), len(set(zip(rows, cols)))


_BIT_CASES = [
    ("p2c_interp", 2, 2, 0.0), ("p2nc_interp", 2, 2, 0.0), ("p2nc_std", 2, 2, 0.0),
    ("p3_interp", 3, 2, 0.0), ("pk_interp", 4, 2, 0.0), ("pk_lagrange", 2, 2, 0.0),
    ("pk_interp", 8, 1, 0.0), ("pk_lagrange", 8, 1, 0.0),
    ("p3_interp", 3, 3, 0.2), ("pk_interp", 5, 3, 0.2)]


@pytest.mark.parametrize("family,k,level,perturb", _BIT_CASES, ids=[
    f"{fam}-{k}-{level}" + (f"-perturb{p}" if p else "") for fam, k, level, p in _BIT_CASES])
def test_assembly_bit_identical_to_element_loop(family, k, level, perturb):
    # CG at the default tolerance works at the rounding floor, so any change
    # to the last bits of A or F moves the iteration counts
    space = build_space(build_crisscross_mesh(level, perturb=perturb), family, k)
    system = assemble_system(space, f=SINE.f)
    A, F, c, distinct = _reference_assembly(space, SINE.f)
    assert np.array_equal(system.A.indptr, A.indptr)
    assert np.array_equal(system.A.indices, A.indices)
    assert np.array_equal(system.A.data, A.data)
    assert np.array_equal(system.F, F)
    assert np.array_equal(system.interp_coeffs, c)
    assert system.A.nnz == distinct and system.A.has_canonical_format


def _coo_reference(space, f):
    """A and F from the same element tables, with A made the way assembly
    made it before it laid out the CSR arrays itself: COO entries in
    (element, local row, local column) order, converted by tocsr()."""
    dm = space.dof_map
    rows, L, c = igfem.assembly._element_tables(space, f)
    # every element's own (nb, nb) matrix, its node rows from its class; the
    # interpolated rows stay zero, since no interpolated slot is free
    S = np.zeros(dm.dofs.shape + dm.dofs.shape[1:])
    S[:, :rows.shape[1]] = rows[space.shape]
    free = dm.dofs >= 0
    terms = np.concatenate([L[:, :, None], -S[:, :, dm.n_node:] * c[:, None, :]],
                           axis=2)
    F = np.zeros(dm.n_free)
    np.add.at(F, np.broadcast_to(dm.dofs[:, :, None], terms.shape)[free].ravel(),
              terms[free].ravel())
    pair = free[:, :, None] & free[:, None, :]
    rows = np.broadcast_to(dm.dofs[:, :, None], pair.shape)[pair]
    cols = np.broadcast_to(dm.dofs[:, None, :], pair.shape)[pair]
    A = sp.coo_array((S[pair], (rows, cols)), shape=(dm.n_free, dm.n_free)).tocsr()
    return A, F


_CSR_CASES = [(family, k, level, perturb)
              for family, degrees in (("p2c_interp", [None]), ("p2nc_interp", [None]),
                                      ("p2nc_std", [None]), ("p3_interp", [None]),
                                      ("pk_interp", [4, 6, 8]), ("pk_lagrange", [1, 3, 8]))
              for k in degrees for level in (1, 2, 3)
              for perturb in ((0.0,) if family == "p2c_interp" else (0.0, 0.2))]


@pytest.mark.parametrize("family,k,level,perturb", _CSR_CASES, ids=[
    f"{fam}-{k}-{level}" + (f"-perturb{p}" if p else "") for fam, k, level, p in _CSR_CASES])
def test_csr_arrays_bit_identical_to_coo_conversion(family, k, level, perturb):
    # tocsr() places the COO entries row by row in their order and then sums
    # the duplicates; the CSR arrays laid out in that order and summed the
    # same way are A, bit for bit, with its index dtypes
    space = build_space(build_crisscross_mesh(level, perturb=perturb), family, k)
    system = assemble_system(space, f=SINE.f)
    A, F = _coo_reference(space, SINE.f)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(system.A, name), getattr(A, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert system.A.shape == A.shape
    assert system.A.has_canonical_format and A.has_canonical_format
    assert system.F.dtype == F.dtype and np.array_equal(system.F, F)


_NODE_ROW_CASES = [(family, k, perturb)
                   for family, degrees in (("p2c_interp", [None]), ("p2nc_interp", [None]),
                                           ("p3_interp", [None]), ("pk_interp", [4, 5, 8]),
                                           ("p2nc_std", [None]), ("pk_lagrange", [3]))
                   for k in degrees
                   for perturb in ((0.0,) if family == "p2c_interp" else (0.0, 0.2))]


@pytest.mark.parametrize("family,k,perturb", _NODE_ROW_CASES, ids=[
    f"{fam}-{k}" + (f"-perturb{p}" if p else "") for fam, k, p in _NODE_ROW_CASES])
def test_stiffness_node_rows_bit_identical_to_full_form(family, k, perturb):
    # assembly tabulates only the node rows, a leading slice of the slots;
    # they equal the full (nb, nb) form's rows bit for bit.  The baselines
    # interpolate no slot, so every row is a node row.
    space = build_space(build_crisscross_mesh(3, perturb=perturb), family, k)
    n_node = space.dof_map.n_node
    assert (n_node < space.basis.shape[1]) == (family in igfem.assembly.INTERPOLATED_FAMILIES)
    rule = make_quad_rule(stiffness_rule_degree(space.k))
    full = np.zeros(space.basis.shape[:2] + space.basis.shape[1:2])
    for part in range(space.basis.shape[2]):
        grads = block_gradients(space.basis[:, :, part], space.k,
                                space.grad_lambda[:, part], rule)
        full += space.area[:, part, None, None] * np.einsum(
            "bnpd,bmpd,p->bnm", grads, grads, rule.weights)
    S, _, _ = igfem.assembly._element_tables(space, SINE.f)
    assert S.shape == (len(space.basis), n_node, full.shape[2])
    assert _equal_bits(S, full[:, :n_node])


@pytest.mark.parametrize("k", range(4, 9))
def test_pk_node_interior_stiffness_at_rounding_level(k):
    # the node functions have zero moments, int p_j b Lap(phi) = 0, and
    # psi_j = -b p_j vanishes on the boundary, so int grad(phi) . grad(psi_j)
    # = 0: F takes the interior coefficients through this block only, so
    # their last bits do not reach F.  Measured: at most 9.2e-14 of the
    # element's max |S| (k=8, perturbed level 3), 6.7e-14 at level 2.
    for level, perturb in ((2, 0.0), (3, 0.2)):
        space = build_space(build_crisscross_mesh(level, perturb=perturb), "pk_interp", k)
        rule = make_quad_rule(stiffness_rule_degree(k))
        grads = block_gradients(space.basis[:, :, 0], k, space.grad_lambda[:, 0], rule)
        S = space.area[:, 0, None, None] * np.einsum("bnpd,bmpd,p->bnm", grads, grads,
                                                     rule.weights)
        n_node = space.dof_map.n_node
        block = np.abs(S[:, :n_node, n_node:]).max(axis=(1, 2))
        assert np.all(block <= 1e-12 * np.abs(S).max(axis=(1, 2))), (level, perturb)


@pytest.mark.parametrize("family,k,level,bound", [
    ("pk_lagrange", 8, 4, 3.0), ("p3_interp", None, 6, 4.0),
    ("pk_lagrange", 8, 3, 1.49), ("p3_interp", None, 5, 2.32),
    ("pk_interp", 8, 4, 4.6)])
def test_assembly_transient_memory(family, k, level, bound):
    # the peak holds A's unsummed int32 indices and float64 data, one slice
    # of rows and one stiffness matrix per class, not per element.  The
    # measured ratios are 1.20, 1.83, 1.42 and 2.20 (with the (E, nb, nb)
    # table 1.92, 2.90, 2.14 and 3.31); the last two bounds are these plus 5%.
    # pk_interp's classes are its elements: with the node rows only and one
    # class block's tables alive at a time it measures 4.37 (with all nb rows
    # and two class blocks 6.63), and its bound is that plus 5%
    space = build_space(build_crisscross_mesh(level), family, k)
    tracemalloc.start()
    try:
        A = assemble_system(space, f=SINE.f).A
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dof_map.dofs.dtype == np.int32
    assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32
    assert peak / (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes) < bound


# --- block size: one byte rule for every element pass --------------------------

def test_block_size_rule():
    assert block_size(8, num_coeffs(8), 1) == 8
    for family in FAMILIES:
        for k in ([None] if family in ("p2c_interp", "p2nc_interp", "p2nc_std", "p3_interp")
                  else range(4 if family == "pk_interp" else 1, 9)):
            space = build_space(build_crisscross_mesh(1), family, k)
            _, nb, parts, _ = space.basis.shape
            table = nb * parts * len(make_quad_rule(norm_rule_degree(space.k)).weights) * 16
            B = block_size(space.k, nb, parts)
            assert B >= 8
            if B > 8:   # as many gradient tables as fit in the budget
                assert B * table <= BLOCK_BYTES < (B + 1) * table
            if family.startswith("p2nc"):
                assert B > 8
    assert block_size(2, 7, 1) == 66 and block_size(3, 10, 1) == 29
    assert block_size(2, 9, 4) == 13


def _element_pass_outputs(family, k, level, perturb):
    """Every array the element passes make on one mesh, and the error norms."""
    space = build_space(build_crisscross_mesh(level, perturb=perturb), family, k)
    system = assemble_system(space, f=SINE.f)
    i_h = interpolate_exact(SINE.u, SINE.f, space, system.interp_coeffs)
    u = FeFunction.from_dofs(
        space, np.random.default_rng(level).normal(size=space.dof_map.n_free),
        system.interp_coeffs)
    arrays = [space.basis, system.A.indptr, system.A.indices, system.A.data, system.F,
              system.interp_coeffs, i_h.coeffs]
    blocks = [len(e) for e, *_ in element_blocks(space, lambda *rows: ())]
    return arrays, error_norms(i_h, SINE, u), blocks


_BLOCK_CASES = [("p2nc_interp", None, 5, 0.0), ("p2nc_std", None, 5, 0.0),
                ("p3_interp", None, 4, 0.0), ("p2c_interp", None, 4, 0.0),
                ("pk_lagrange", 1, 5, 0.0), ("pk_interp", 4, 3, 0.2),
                ("p3_interp", None, 4, 0.2)]


@pytest.mark.parametrize("family,k,level,perturb", _BLOCK_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in _BLOCK_CASES[:-1]]
                         + ["p3_interp-4-perturb0.2"])
def test_block_size_leaves_bits_unchanged(monkeypatch, family, k, level, perturb):
    arrays, norms, blocks = _element_pass_outputs(family, k, level, perturb)
    # several full blocks and a partial last one
    assert len(blocks) > 2 and blocks[0] > 8 and 0 < blocks[-1] < blocks[0]
    monkeypatch.setattr(igfem.assembly, "BLOCK_BYTES", 0)   # blocks of 8
    ref_arrays, ref_norms, ref_blocks = _element_pass_outputs(family, k, level, perturb)
    if family == "p3_interp" and perturb:
        # classes of mixed sizes: some blocks end at a boundary of class blocks
        assert max(ref_blocks) == 8 and min(ref_blocks[:-1]) < 8
    else:
        assert set(ref_blocks[:-1]) == {8}
    assert len(arrays) == len(ref_arrays)
    for got, ref in zip(arrays, ref_arrays):
        assert np.array_equal(got, ref)
    assert norms == ref_norms


_WALK_CASES = [("p2nc_interp", 4, 0.0, BLOCK_BYTES), ("p3_interp", 4, 0.2, 0)]


@pytest.mark.parametrize("family,level,perturb,block_bytes", _WALK_CASES,
                         ids=["p2nc_interp-4", "p3_interp-4-perturb0.2-blocks8"])
def test_walk_tabulates_class_blocks_once_in_class_order(
        monkeypatch, family, level, perturb, block_bytes):
    monkeypatch.setattr(igfem.assembly, "BLOCK_BYTES", block_bytes)
    space = build_space(build_crisscross_mesh(level, perturb=perturb), family)
    S, parts = space.area.shape
    step = block_size(space.k, *space.basis.shape[1:3])
    # fewer classes than one class block, or 228 classes in blocks of 8
    assert (S, step) in ((4, 66), (228, 8))
    # each class row's area names its class
    named = dataclasses.replace(space, area=np.repeat(np.arange(S, dtype=float)[:, None],
                                                      parts, axis=1))
    tabulated = []

    def tabulate(basis, grad_lambda, area):
        assert len(basis) == len(grad_lambda) == len(area)
        tabulated.append(area[:, 0])
        return area[:, 0], basis

    walk = []
    for e, verts, area, (classes, basis) in element_blocks(named, tabulate):
        assert 0 < len(e) <= step
        assert np.array_equal(classes, space.shape[e])
        assert np.array_equal(basis, space.basis[space.shape[e]])
        assert np.array_equal(verts, space.mesh.vertices[space.mesh.triangles[e]][:, None])
        assert np.array_equal(area, named.area[space.shape[e]])
        walk.append(e)
    assert np.array_equal(np.concatenate(walk), np.argsort(space.shape, kind="stable"))
    # consecutive class slices, each at most a block, that cover 0..S once
    assert np.array_equal(np.concatenate(tabulated), np.arange(S))
    assert all(len(t) == step for t in tabulated[:-1]) and 0 < len(tabulated[-1]) <= step


def test_walk_drops_each_class_block_before_the_next():
    # pk_interp's classes are its elements: 16 at level 2, in two class
    # blocks of 8.  When tabulate runs for a block, the tables of the block
    # before it must be gone.
    space = build_space(build_crisscross_mesh(2), "pk_interp", 8)
    assert len(space.basis) == 16 and block_size(space.k, *space.basis.shape[1:3]) == 8
    earlier = []

    def tabulate(basis, grad_lambda, area):
        assert all(ref() is None for ref in earlier), "a class block's tables are alive"
        tables = (basis.copy(), area.copy())
        earlier[:] = [weakref.ref(t) for t in tables]
        return tables

    walked = [e for e, *_ in element_blocks(space, tabulate)]
    assert np.array_equal(np.concatenate(walked), np.arange(16))
    assert all(ref() is None for ref in earlier)


def _reversed_walk(space, tabulate):
    """element_blocks with its class blocks taken last to first."""
    step = block_size(space.k, *space.basis.shape[1:3])
    for c0 in reversed(range(0, len(space.basis), step)):
        c = slice(c0, c0 + step)
        rows = tabulate(space.basis[c], space.grad_lambda[c], space.area[c])
        elements = np.flatnonzero((space.shape >= c0) & (space.shape < c0 + step))
        for start in range(0, len(elements), step):
            e = elements[start:start + step]
            at = space.shape[e] - c0
            yield e, space.vertices(e), space.area[space.shape[e]], tuple(t[at] for t in rows)


@pytest.mark.parametrize("family,k,level,perturb", [
    ("pk_interp", 8, 2, 0.0), ("p3_interp", None, 3, 0.2)])
def test_assembly_independent_of_walk_order(monkeypatch, family, k, level, perturb):
    # the walk's order is free: assembly's bits must not depend on it
    space = build_space(build_crisscross_mesh(level, perturb=perturb), family, k)
    step = block_size(space.k, *space.basis.shape[1:3])
    assert -(-len(space.basis) // step) == 2        # two class blocks
    walks = []
    for walk in (element_blocks, _reversed_walk):
        monkeypatch.setattr(igfem.assembly, "element_blocks", walk)
        system = assemble_system(space, SINE.f)
        walks.append((system.A.data, system.A.indices, system.A.indptr, system.F,
                      system.interp_coeffs))
    for a, b in zip(*walks):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


_LAYOUT_CASES = [("p2c_interp", None), ("p2nc_interp", None), ("p2nc_std", None),
                 ("p3_interp", None), ("pk_interp", 4), ("pk_interp", 8),
                 ("pk_lagrange", 1), ("pk_lagrange", 8)]


@pytest.mark.parametrize("family,k", _LAYOUT_CASES,
                         ids=[f"{fam}-{k}" for fam, k in _LAYOUT_CASES])
def test_slot_layout_node_slots_first(family, k):
    # the slots [:n_node] may hold an unknown, the slots [n_node:] are
    # interpolated and hold none
    dm = build_dof_map(build_crisscross_mesh(2), family, k)
    E, nb = dm.dofs.shape
    alphas, n_interior = igfem.elements.slot_layout(family, resolve_degree(family, k))
    assert nb == len(alphas) + n_interior
    if family in igfem.assembly.INTERPOLATED_FAMILIES:
        assert dm.n_node == len(alphas) < nb
    else:
        assert dm.n_node == nb
    assert np.all(dm.dofs[:, dm.n_node:] == -1)
    assert (dm.dofs[:, :dm.n_node] >= 0).any(axis=0).all()
    assert dm.n_interp == E * (nb - dm.n_node)


# --- shapes: the elements of a class share its basis and tables -----------------

_TRIANGLE_FAMILIES = [("p2nc_interp", None), ("p2nc_std", None), ("p3_interp", None)] + [
    ("pk_lagrange", k) for k in range(1, 9)]


def _equal_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.int64),
                          np.ascontiguousarray(b).view(np.int64))


def test_shape_index_on_criss_cross_grids():
    # every triangle of a uniform criss-cross grid has one of four orientations
    mesh = build_crisscross_mesh(3)
    for family, k in _TRIANGLE_FAMILIES:
        space = build_space(mesh, family, k)
        assert space.shape.shape == (space.n_elements,)
        assert space.shape.max() + 1 <= 4, family
    p2c = build_space(mesh, "p2c_interp")
    assert set(p2c.shape) == {0} and len(p2c.basis) == 1
    # pk_interp's class is the element
    pk = build_space(mesh, "pk_interp", 4)
    assert np.array_equal(pk.shape, np.arange(pk.n_elements))
    assert len(pk.basis) == pk.n_elements


@pytest.mark.parametrize("level", [3, 6])
def test_four_classes_stored_once(level):
    mesh = build_crisscross_mesh(level)
    for family in ("p3_interp", "p2nc_interp"):
        space = build_space(mesh, family)
        assert space.n_elements == 4 ** level
        assert space.basis.shape[0] == 4
        assert space.grad_lambda.shape[0] == space.area.shape[0] == 4


def test_shape_index_on_perturbed_mesh():
    # a triangle with a displaced vertex is its own shape; the boundary
    # triangles (two boundary vertices and a fixed center) keep four orientations
    mesh = build_crisscross_mesh(3, perturb=0.2)
    moved = np.any(mesh.vertices != build_crisscross_mesh(3).vertices, axis=1)
    displaced = moved[mesh.triangles].any(axis=1)
    assert displaced.sum() == 48
    for family, k in _TRIANGLE_FAMILIES:
        shape = build_space(mesh, family, k).shape
        ids, counts = np.unique(shape, return_counts=True)
        assert np.all(counts[np.searchsorted(ids, shape[displaced])] == 1), family
        assert len(np.unique(shape[~displaced])) <= 4
    shape = build_space(mesh, "pk_interp", 5).shape
    assert np.array_equal(shape, np.arange(len(shape)))


@pytest.mark.parametrize("family,k,level,perturb", [
    ("p2nc_interp", None, 4, 0.0), ("p2c_interp", None, 3, 0.0), ("pk_interp", 4, 3, 0.0),
    ("pk_interp", 8, 2, 0.0), ("pk_lagrange", 3, 3, 0.2), ("p3_interp", None, 3, 0.2)])
def test_equal_shape_means_equal_bits(family, k, level, perturb):
    space = build_space(build_crisscross_mesh(level, perturb=perturb), family, k)
    first = np.unique(space.shape, return_index=True)[1]
    # ids count up in order of first appearance, one class row per id
    assert np.array_equal(first, np.sort(first))
    assert len(space.basis) == len(space.grad_lambda) == len(space.area) == len(first)
    # every element's own geometry has its class row's bits
    grad_lambda, area = triangle_geometry(space.vertices())
    assert _equal_bits(grad_lambda, per_element(space, "grad_lambda"))
    assert _equal_bits(area, per_element(space, "area"))


def test_p2c_parts_from_mesh_equal_stacked_parts():
    # a macro's parts are the mesh's four consecutive triangles (corner p,
    # corner p + 1, centre), and the mean of its corners is its centre vertex
    for level in range(1, 9):
        mesh = build_crisscross_mesh(level)
        corners = mesh.vertices[mesh.macro_corners]
        center = mesh.vertices[mesh.macro_centers]
        stacked = np.stack([corners, np.roll(corners, -1, axis=1),
                            np.repeat(center[:, None], 4, axis=1)], axis=2)
        space = build_space(mesh, "p2c_interp")
        assert _equal_bits(space.vertices(), stacked), level
        assert _equal_bits(space.lap_xy, center), level


@pytest.mark.parametrize("family,k", [("p2c_interp", None), ("p2nc_interp", None),
                                      ("p2nc_std", None), ("p3_interp", None),
                                      ("pk_lagrange", 3)])
def test_space_keeps_no_per_element_geometry_but_lap_xy(family, k):
    # the vertices stay in the mesh: of the Space's float arrays, only lap_xy
    # has a row per element; the others have one per class, and there are fewer
    space = build_space(build_crisscross_mesh(3), family, k)
    assert len(space.basis) < space.n_elements
    arrays = {f.name: getattr(space, f.name) for f in dataclasses.fields(space)}
    per_element_floats = [name for name, a in arrays.items()
                          if isinstance(a, np.ndarray) and a.dtype.kind == "f"
                          and len(a) == space.n_elements]
    assert per_element_floats == ["lap_xy"]


def test_shape_index_tells_signed_zeros_apart():
    space = build_space(build_crisscross_mesh(3), "pk_lagrange", 2)
    grad_lambda, area = triangle_geometry(space.vertices())
    e = np.flatnonzero(space.shape == space.shape[0])[1]
    grad_lambda[e][tuple(np.argwhere(grad_lambda[e] == 0.0)[0])] = -0.0
    assert np.array_equal(grad_lambda, per_element(space, "grad_lambda"))   # equal as numbers
    shape, first = igfem.assembly._classes(grad_lambda, area)
    assert np.sum(shape == shape[e]) == 1
    assert shape.max() == space.shape.max() + 1 and first[shape[e]] == e


_SHARED_CASES = [("p2nc_interp", None, 5, 0.0), ("p2nc_std", None, 5, 0.0),
                 ("p2c_interp", None, 4, 0.0), ("p3_interp", None, 4, 0.0),
                 ("pk_lagrange", 8, 3, 0.0), ("pk_lagrange", 2, 4, 0.2),
                 ("pk_interp", 4, 4, 0.0), ("pk_interp", 5, 3, 0.0)]


def _pass_outputs(space):
    """A, F, interior coefficients and the error norms of a Space."""
    system = assemble_system(space, f=SINE.f)
    u = FeFunction.from_dofs(
        space, np.random.default_rng(0).normal(size=space.dof_map.n_free),
        system.interp_coeffs)
    i_h = interpolate_exact(SINE.u, SINE.f, space, system.interp_coeffs)
    return [system.A.data, system.F, system.interp_coeffs], error_norms(i_h, SINE, u)


def _with_classes(space, shape, rows):
    """space with classes `shape` whose class rows are space's rows `rows`."""
    return dataclasses.replace(space, shape=shape, **{
        name: getattr(space, name)[rows] for name in ("basis", "grad_lambda", "area")})


def _assert_same_outputs(space, ref_space):
    (arrays, norms), (ref_arrays, ref_norms) = _pass_outputs(space), _pass_outputs(ref_space)
    for got, ref in zip(arrays, ref_arrays):
        assert np.array_equal(got, ref)
    assert norms == ref_norms


@pytest.mark.parametrize("family,k,level,perturb", _SHARED_CASES,
                         ids=[f"{c[0]}-k{c[1]}-{c[2]}" if c[0] == "pk_interp"
                              else f"{c[0]}-{c[2]}" for c in _SHARED_CASES])
def test_shared_tables_bit_identical_to_tabulating_every_element(family, k, level, perturb):
    space = build_space(build_crisscross_mesh(level, perturb=perturb), family, k)
    # the same space with every element its own class tabulates every element
    own = _with_classes(space, np.arange(space.n_elements), space.shape)
    _assert_same_outputs(space, own)
    # assembly keeps the node rows of one stiffness matrix per class, not one
    # per element
    nb = space.basis.shape[1]
    n_node = space.dof_map.n_node
    for case in (space, own):
        S, L, _ = igfem.assembly._element_tables(case, SINE.f)
        assert S.shape == (len(case.basis), n_node, nb) and L.shape == (case.n_elements, nb)


def test_shared_tables_kept_up_to_a_block_boundary(monkeypatch):
    # split p2nc's 4 classes into 12, more than one class block of 8: the walk
    # then crosses a boundary of class blocks, where an element block ends
    # short and the next class block's tables begin
    monkeypatch.setattr(igfem.assembly, "BLOCK_BYTES", 0)   # blocks of 8
    space = build_space(build_crisscross_mesh(4), "p2nc_interp")
    own = _with_classes(space, np.arange(space.n_elements), space.shape)
    S = len(space.basis)
    split = _with_classes(space, space.shape + S * (np.arange(space.n_elements) % 3),
                          np.tile(np.arange(S), 3))
    blocks = [len(e) for e, *_ in element_blocks(split, lambda *rows: ())]
    assert len(split.basis) == 12 and max(blocks) == 8 and min(blocks[:-1]) < 8
    _assert_same_outputs(split, own)


def test_each_shape_tabulated_once_per_rule(monkeypatch):
    counts = {}

    def counting(name, original):
        def wrapper(coeffs, k, *args):
            at = args[-1]
            assert isinstance(at, QuadRule)       # the rule's cached Bernstein tables
            key = (name, at.exactness_degree)
            counts[key] = counts.get(key, 0) + len(coeffs)
            return original(coeffs, k, *args)
        return wrapper

    for name in ("block_values", "block_gradients"):
        monkeypatch.setattr(igfem.elements, name,
                            counting(name, getattr(igfem.elements, name)))
    # 4 classes, and 228 classes in several class blocks
    for family, perturb, S in (("p2nc_interp", 0.0, 4), ("p3_interp", 0.2, 228)):
        counts.clear()
        space = build_space(build_crisscross_mesh(4, perturb=perturb), family)
        assert space.n_elements == 256 and len(space.basis) == S
        assert len(list(element_blocks(space, lambda *rows: ()))) > 2
        system = assemble_system(space, f=SINE.f)
        u = FeFunction.from_dofs(space, np.zeros(space.dof_map.n_free), system.interp_coeffs)
        error_norms(u, SINE)
        # stiffness gradients, load values, norm values and norm gradients
        assert len(counts) == 4
        assert all(n == S for n in counts.values()), (family, counts)


def test_cached_bernstein_tables_match_fresh_ones():
    degrees = {d for k in range(1, 9) for d in (
        stiffness_rule_degree(k), load_rule_degree(k), norm_rule_degree(k),
        min(2 * k, MAX_QUAD_DEGREE))}
    for rule_degree in sorted(degrees):
        rule = make_quad_rule(rule_degree)
        for k in range(9):
            table = rule.bernstein(k)
            assert not table.flags.writeable and table.flags.c_contiguous
            assert _equal_bits(table, bernstein_values(k, rule.points))
            assert rule.bernstein(k) is table
