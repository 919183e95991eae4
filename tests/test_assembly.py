import numpy as np
import pytest
import scipy.sparse as sp

import igfem.assembly
from igfem.assembly import (BLOCK_BYTES, FAMILIES, assemble_system, block_size,
                            build_dof_map, build_space, element_blocks,
                            interior_coefficients, load_rule_degree, norm_rule_degree,
                            resolve_degree, stiffness_rule_degree)
from igfem.elements import (BARYCENTER, BUBBLE, block_gradients, block_values,
                            laplacian_operator)
from igfem.mesh import build_crisscross_mesh
from igfem.poly import (BPoly, TriGeom, bernstein_values, bpoly_eval, bpoly_laplacian,
                        make_quad_rule, num_coeffs)
from igfem.solver import cg_solve
from igfem.cli import PROBLEMS
from igfem.analysis import FeFunction, error_norms, interpolate_exact

SINE = PROBLEMS["sine"]
PATCH = PROBLEMS["poly4"]


def element_geom(space, eid, part=0):
    return TriGeom.from_vertices(space.verts[eid, part])


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
    assert dm.local_free_slots == 8


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
    assert interp.local_free_slots == 3 * k
    assert lagr.local_free_slots == (k + 1) * (k + 2) // 2


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
        for eid in range(space.n_elements):
            c = interior_coefficients(space, lambda x, y: 0.0 * x)[eid]
            assert np.allclose(c, 0.0)


def test_interior_coefficients_p3_constant_f():
    mesh = build_crisscross_mesh(2)
    space = build_space(mesh, "p3_interp")
    for eid in range(space.n_elements):
        c = interior_coefficients(space, lambda x, y: 1.0 + 0.0 * x)[eid]
        assert c.shape == (1,)
        assert c[0] == pytest.approx(1.0)


def test_interior_coefficients_match_moment_functionals_of_u():
    # oracle: apply G_j directly to the known solution by quadrature
    mesh = build_crisscross_mesh(2)
    space = build_space(mesh, "pk_interp", 4)
    k = 4
    rule = make_quad_rule(12)
    for eid in range(space.n_elements):
        geom = element_geom(space, eid)
        c = interior_coefficients(space, PATCH.f)[eid]
        xy = rule.points @ geom.vertices
        w = rule.weights * geom.area
        bv = bpoly_eval(BPoly(3, BUBBLE, geom), rule.points)
        # Lap u for u = x(1-x)y(1-y)
        lap_u = -2.0 * (xy[:, 1] * (1 - xy[:, 1]) + xy[:, 0] * (1 - xy[:, 0]))
        for j, pj in enumerate(space.moments[eid]):
            gj_u = w @ (bpoly_eval(BPoly(k - 3, pj, geom), rule.points) * bv * lap_u)
            assert c[j] == pytest.approx(gj_u, abs=1e-10)


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
        func = BPoly(3, local @ space.basis[eid, :, 0, :], geom)
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
        func_coeffs = local @ space.basis[eid, :, 0, :]
        lap = laplacian_operator(4, geom.grad_lambda[None])[0] @ func_coeffs
        lapv = bernstein_values(2, rule.points) @ lap
        w = rule.weights * geom.area
        bv = bpoly_eval(BPoly(3, BUBBLE, geom), rule.points)
        for j, pj in enumerate(space.moments[eid]):
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
        for j in range(space.moments.shape[1]):
            slot = 12 + j
            lhs = w @ np.sum(uh_grad * grads[slot], axis=1)
            rhs = w @ (fv * vals[slot])
            assert abs(lhs - rhs) <= 1e-9


def basis_values(space, eid, bary, part=0):
    """Values (nb, P) of the basis of element eid on one part."""
    return block_values(space.basis[eid][None, :, part], space.k, bary)[0]


def basis_gradients(space, eid, bary, part=0):
    """Gradients (nb, P, 2) of the basis of element eid on one part."""
    return block_gradients(space.basis[eid][None, :, part], space.k,
                           space.grad_lambda[eid, part][None], bary)[0]


def _element_interior_coefficients(space, eid, f) -> np.ndarray:
    """Interior coefficients of one element, as the element loop computed them."""
    if space.family == "pk_interp":
        k = space.k
        geom = element_geom(space, eid)
        rule = make_quad_rule(load_rule_degree(k))
        xy = rule.points @ geom.vertices
        fv = f(xy[:, 0], xy[:, 1])
        w = rule.weights * geom.area
        bv = bpoly_eval(BPoly(3, BUBBLE, geom), rule.points)
        return np.array([-(w * bv * bpoly_eval(BPoly(k - 3, pj, geom), rule.points)) @ fv
                         for pj in space.moments[eid]])
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
        area = space.area[eid, part]
        grads = basis_gradients(space, eid, stiff_rule.points, part)   # (nb, P, 2)
        S += area * np.einsum("npd,mpd,p->nm", grads, grads, stiff_rule.weights)
        vals = basis_values(space, eid, load_rule.points, part)        # (nb, P)
        xy = load_rule.points @ space.verts[eid, part]
        fv = f(xy[:, 0], xy[:, 1])
        L += area * vals @ (load_rule.weights * fv)
    c = _element_interior_coefficients(space, eid, f)
    return S, L, c


def _reference_assembly(space, f):
    """The element-by-element scatter: COO entries appended per element,
    local row, local column, and F updated in the same order."""
    dm = space.dof_map
    rows, cols, vals = [], [], []
    F = np.zeros(dm.n_free)
    coeffs = []
    interp_slots = np.flatnonzero(dm.interp_mask)
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
    i_h = interpolate_exact(SINE.u, SINE.f, space)
    u = FeFunction.from_dofs(
        space, np.random.default_rng(level).normal(size=space.dof_map.n_free),
        system.interp_coeffs)
    arrays = [space.basis, system.A.indptr, system.A.indices, system.A.data, system.F,
              system.interp_coeffs, interior_coefficients(space, SINE.f), i_h.coeffs]
    if space.moments is not None:
        arrays.append(space.moments)
    blocks = [len(basis) for _, basis, *_ in element_blocks(space)]
    return arrays, error_norms(i_h, SINE, u), blocks


_BLOCK_CASES = [("p2nc_interp", None, 5, 0.0), ("p2nc_std", None, 5, 0.0),
                ("p3_interp", None, 4, 0.0), ("p2c_interp", None, 4, 0.0),
                ("pk_lagrange", 1, 5, 0.0), ("pk_interp", 4, 3, 0.2)]


@pytest.mark.parametrize("family,k,level,perturb", _BLOCK_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in _BLOCK_CASES])
def test_block_size_leaves_bits_unchanged(monkeypatch, family, k, level, perturb):
    arrays, norms, blocks = _element_pass_outputs(family, k, level, perturb)
    # several full blocks and a partial last one
    assert len(blocks) > 2 and blocks[0] > 8 and 0 < blocks[-1] < blocks[0]
    monkeypatch.setattr(igfem.assembly, "BLOCK_BYTES", 0)   # blocks of 8
    ref_arrays, ref_norms, ref_blocks = _element_pass_outputs(family, k, level, perturb)
    assert set(ref_blocks[:-1]) == {8}
    assert len(arrays) == len(ref_arrays)
    for got, ref in zip(arrays, ref_arrays):
        assert np.array_equal(got, ref)
    assert norms == ref_norms
