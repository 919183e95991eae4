import numpy as np
import pytest

from math import factorial

from bpoly import (REF, BPoly, TriGeom, bpoly_eval, bpoly_from_point_values, bpoly_grad,
                   bpoly_laplacian, domain_points, per_element, random_geom)
from igfem.assembly import (block_size, build_space, corner_ids, load_rule_degree,
                            norm_rule_degree, stiffness_rule_degree)
from igfem.elements import (BARYCENTER, block_gradients, block_values,
                            boundary_multi_indices, build_fs_bubble,
                            build_lagrange_basis, build_p2c_macro_basis,
                            build_p2nc_element, build_p3_basis, build_pk_basis,
                            gram_schmidt_pj, laplacian_operator, slot_layout)
from igfem.mesh import build_crisscross_mesh, triangle_gauss_points
from igfem.poly import (bernstein_values, make_quad_rule, multi_indices, num_coeffs,
                        MAX_QUAD_DEGREE, _collocation_inverse, _reduction_maps)


def perturbed_geoms(n=6):
    mesh = build_crisscross_mesh(3, perturb=0.25)
    rng = np.random.default_rng(42)
    ids = rng.choice(len(mesh.triangles), size=n, replace=False)
    return [TriGeom.from_vertices(mesh.vertices[mesh.triangles[t]]) for t in ids]


def gauss_barys(geom):
    return np.array([geom.to_barycentric(p)
                     for p in triangle_gauss_points(geom.vertices)])


# one-element slices of the stacked builders: basis (nb, parts, nc)

def fs_bubble(geom):
    return BPoly(2, build_fs_bubble(geom.vertices[None])[0], geom)


def p2nc_basis(geom, standard=False):
    return build_p2nc_element(geom.vertices[None], standard=standard)[0]


def p3_basis(geom):
    return build_p3_basis(geom.vertices[None])[0]


def pk_basis(geom, k):
    """The degree-k moment element's basis (nb, 1, nc) and p_j (d, nc_{k-3})."""
    return (build_pk_basis(geom.vertices[None], k)[0],
            gram_schmidt_pj(geom.vertices[None], k)[0])


def lagrange_basis(geom, k):
    return build_lagrange_basis(geom.vertices[None], k)[0]


def lap_operator(k, geom):
    return laplacian_operator(k, geom.grad_lambda[None])[0]


def basis_values(basis, k, bary, part=0):
    """Values (nb, P) of all basis functions of one element at barycentric points."""
    return block_values(basis[None, :, part], k, bary)[0]


# --- Fortin-Soulie bubble ---------------------------------------------------

def test_fs_bubble_reference_value():
    phi0 = fs_bubble(REF)
    assert bpoly_eval(phi0, BARYCENTER) == pytest.approx(1 / 24, abs=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fs_bubble_gauss_points_and_laplacian(seed):
    geom = random_geom(np.random.default_rng(seed))
    phi0 = fs_bubble(geom)
    vals = bpoly_eval(phi0, gauss_barys(geom))
    assert np.all(np.abs(vals) <= 1e-13)
    lap = bpoly_laplacian(phi0)
    assert lap.coeffs[0] == pytest.approx(-1.0, abs=1e-12)


# --- P2 nonconforming -------------------------------------------------------

def test_p2nc_harmonic_eta_is_unchanged():
    # x^2 - y^2 is harmonic: its bubble correction must vanish
    geom = random_geom(np.random.default_rng(3))
    basis = p2nc_basis(geom)
    pts = domain_points(2, geom)
    vals = pts[:, 0] ** 2 - pts[:, 1] ** 2
    eta = bpoly_from_point_values(2, vals, geom)
    # express through the nodal basis: coefficients are the nodal values
    combo = vals @ basis[:6, 0, :]
    assert np.allclose(combo, eta.coeffs, atol=1e-11)


@pytest.mark.parametrize("standard", [False, True])
def test_p2nc_structure(standard):
    geom = random_geom(np.random.default_rng(4))
    basis = p2nc_basis(geom, standard=standard)
    assert basis.shape == (7, 1, 6)
    nodes, n_interior = slot_layout("p2nc_std" if standard else "p2nc_interp", 2)
    assert len(nodes) == 6 and n_interior == 1
    lap_op = lap_operator(2, geom)
    for i in range(6):
        const_lap = (lap_op @ basis[i, 0])[0]
        if not standard:
            assert abs(const_lap) <= 1e-12   # harmonic by construction
    assert (lap_op @ basis[6, 0])[0] == pytest.approx(-1.0, abs=1e-12)


def test_p2nc_matches_lagrange_at_gauss_points():
    geom = random_geom(np.random.default_rng(5))
    gb = gauss_barys(geom)
    corrected = basis_values(p2nc_basis(geom), 2, gb)[:6]
    plain = basis_values(p2nc_basis(geom, standard=True), 2, gb)[:6]
    assert np.max(np.abs(corrected - plain)) <= 1e-13


# --- P3 ----------------------------------------------------------------------

def test_p3_reference_bubble_normalization():
    phi0 = BPoly(3, p3_basis(REF)[9, 0], REF)
    # b/36 on the reference triangle: single B-net coefficient 4.5/36
    expect = np.zeros(10)
    expect[list(multi_indices(3)).index((1, 1, 1))] = 4.5 / 36.0
    assert np.allclose(phi0.coeffs, expect, atol=1e-13)
    lap = bpoly_laplacian(phi0)
    assert bpoly_eval(lap, BARYCENTER) == pytest.approx(-1.0, abs=1e-13)


def test_p3_delta_property():
    geom = random_geom(np.random.default_rng(6))
    basis = p3_basis(geom)
    node_bary = np.array(boundary_multi_indices(3), dtype=float) / 3
    vals = basis_values(basis, 3, node_bary)[:9]
    assert np.allclose(vals, np.eye(9), atol=1e-12)
    for i in range(9):
        lap = bpoly_laplacian(BPoly(3, basis[i, 0], geom))
        assert abs(bpoly_eval(lap, BARYCENTER)) <= 1e-12


def test_p3_reproduces_linear_from_boundary_values():
    geom = random_geom(np.random.default_rng(7))
    basis = p3_basis(geom)
    balphas = boundary_multi_indices(3)
    pts = (np.array(balphas, dtype=float) / 3) @ geom.vertices
    vals = 0.3 * pts[:, 0] - 1.1 * pts[:, 1] + 0.5   # harmonic, Laplacian DOF 0
    combo = vals @ basis[:9, 0, :]
    target = bpoly_from_point_values(
        3, 0.3 * domain_points(3, geom)[:, 0] - 1.1 * domain_points(3, geom)[:, 1] + 0.5,
        geom)
    assert np.allclose(combo, target.coeffs, atol=1e-11)


# --- Gram-Schmidt moment basis ----------------------------------------------

def test_gram_schmidt_counts_and_reference_constant():
    pjs = gram_schmidt_pj(REF.vertices[None], 4)[0]
    assert len(pjs) == 3
    # (1,1)_G = int |grad b|^2 = 81/10 by symbolic integration, so the
    # normalized constant is 1/sqrt(8.1)
    assert np.allclose(pjs[0], 1.0 / np.sqrt(8.1), atol=1e-12)
    assert len(gram_schmidt_pj(REF.vertices[None], 5)[0]) == 6
    assert len(gram_schmidt_pj(REF.vertices[None], 6)[0]) == 10


@pytest.mark.parametrize("k", [4, 5, 6])
def test_gram_schmidt_orthonormal(k):
    geom = random_geom(np.random.default_rng(k))
    pjs = gram_schmidt_pj(geom.vertices[None], k)[0]
    bubble = BPoly(3, _bubble_coeffs(), geom)
    rule = make_quad_rule(2 * k)
    w = rule.weights * geom.area
    bv = bpoly_eval(bubble, rule.points)
    bg = bpoly_grad(bubble, rule.points)
    gbp = []
    for pj in pjs:
        pv = bpoly_eval(BPoly(k - 3, pj, geom), rule.points)
        pg = bpoly_grad(BPoly(k - 3, pj, geom), rule.points)
        gbp.append(pv[:, None] * bg + bv[:, None] * pg)
    gram = np.array([[w @ np.sum(gi * gj, axis=1) for gj in gbp] for gi in gbp])
    assert np.max(np.abs(gram - np.eye(len(pjs)))) <= 1e-11


def _bubble_coeffs():
    c = np.zeros(10)
    c[list(multi_indices(3)).index((1, 1, 1))] = 4.5
    return c


# --- Pk moment element ---------------------------------------------------------

def apply_functionals(pjs, geom, k, func_coeffs):
    """Evaluate the element's node and moment functionals, with moment
    polynomials pjs (d, nc_{k-3}), on a BPoly."""
    node_bary = np.array(boundary_multi_indices(k), dtype=float) / k
    nodes = bernstein_values(k, node_bary) @ func_coeffs
    rule = make_quad_rule(2 * k)
    w = rule.weights * geom.area
    bubble = BPoly(3, _bubble_coeffs(), geom)
    bv = bpoly_eval(bubble, rule.points)
    lap = lap_operator(k, geom) @ func_coeffs
    lapv = bernstein_values(k - 2, rule.points) @ lap
    moments = np.array([w @ (bpoly_eval(BPoly(k - 3, pj, geom), rule.points) * bv * lapv)
                        for pj in pjs])
    return nodes, moments


@pytest.mark.parametrize("k", [4, 5, 6])
def test_pk_duality_residuals(k):
    rng = np.random.default_rng(10 + k)
    for geom in (REF, random_geom(rng)):
        basis, pjs = pk_basis(geom, k)
        n_nodes = 3 * k
        assert len(slot_layout("pk_interp", k)[0]) == n_nodes
        eye = np.eye(len(basis))
        for i in range(len(basis)):
            nodes, moments = apply_functionals(pjs, geom, k, basis[i, 0])
            res = np.concatenate([nodes, moments]) - eye[i]
            assert np.max(np.abs(res)) <= 1e-9


@pytest.mark.parametrize("k", [4, 5, 6])
def test_pk_psi_equals_minus_b_pj(k):
    geom = random_geom(np.random.default_rng(20 + k))
    basis, pjs = pk_basis(geom, k)
    bubble = BPoly(3, _bubble_coeffs(), geom)
    lat = np.array(multi_indices(k), dtype=float) / k
    bv = bpoly_eval(bubble, lat)
    for j, pj in enumerate(pjs):
        psi = BPoly(k, basis[3 * k + j, 0], geom)
        target = -bv * bpoly_eval(BPoly(k - 3, pj, geom), lat)
        got = bpoly_eval(psi, lat)
        assert np.max(np.abs(got - target)) <= 1e-9


def test_pk_rejects_low_degree():
    with pytest.raises(ValueError):
        build_pk_basis(REF.vertices[None], 3)
    with pytest.raises(ValueError):
        gram_schmidt_pj(REF.vertices[None], 3)


# --- Lagrange -----------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_lagrange_delta_and_partition(k):
    geom = random_geom(np.random.default_rng(30 + k))
    basis = lagrange_basis(geom, k)
    assert len(basis) == num_coeffs(k)
    lat = np.array(multi_indices(k), dtype=float) / k
    vals = basis_values(basis, k, lat)
    assert np.allclose(vals, np.eye(len(basis)), atol=1e-12)
    assert np.allclose(basis.sum(axis=0)[0], 1.0, atol=1e-12)  # unity


def test_lagrange_reproduces_monomials():
    rng = np.random.default_rng(35)
    k = 4
    geom = random_geom(rng)
    basis = lagrange_basis(geom, k)
    pts = domain_points(k, geom)
    for a, b in ((1, 0), (2, 1), (0, 4), (2, 2)):
        vals = pts[:, 0] ** a * pts[:, 1] ** b
        combo = vals @ basis[:, 0, :]
        target = bpoly_from_point_values(k, vals, geom)
        assert np.allclose(combo, target.coeffs, atol=1e-11)


# --- P2 conforming macro element ------------------------------------------------

REF_MACRO_CORNERS = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
REF_MACRO_CENTER = np.array([0.0, 0.0])


def macro_from_mesh(level=2, m=0):
    mesh = build_crisscross_mesh(level)
    corners = mesh.vertices[mesh.macro_corners[m]]
    center = mesh.vertices[mesh.macro_centers[m]]
    return corners, center


def p2c_basis(corners, center):
    return build_p2c_macro_basis(corners[None], center[None])[0]


def macro_parts(corners, center):
    """The four parts (corner p, corner p+1, center) of a macro square."""
    return [TriGeom.from_vertices([corners[p], corners[(p + 1) % 4], center])
            for p in range(4)]


def extract_macro_dofs(basis, geoms, local_coeffs):
    """The 9 DOFs (8 nodal values + Laplacian at center) of a macro function."""
    vals = np.zeros(9)
    parts = [BPoly(2, local_coeffs @ basis[:, p, :], geoms[p]) for p in range(4)]
    for s in range(4):
        vals[s] = bpoly_eval(parts[s], (1, 0, 0))       # corner s = vertex 0 of part s
        vals[4 + s] = bpoly_eval(parts[s], (0.5, 0.5, 0))
    laps = [bpoly_laplacian(p).coeffs[0] for p in parts]
    assert np.allclose(laps, laps[0], atol=1e-10)
    vals[8] = -laps[0]   # Laplacian DOF under the -1 normalization
    return vals


def test_p2c_laplacian_column_on_reference_macro():
    # With the Laplacian DOF set to 1 the five interior B-net coefficients all
    # equal -(h^2)/8 = -1/2 on the side-2 macro; the center coefficient agrees
    # with the closed-form center coefficient, and the whole column satisfies the
    # C1-at-center constraints (2 c9 = c10 + c12 = c11 + c13).
    basis = p2c_basis(REF_MACRO_CORNERS, REF_MACRO_CENTER)
    geoms = macro_parts(REF_MACRO_CORNERS, REF_MACRO_CENTER)
    phi9 = basis[8]                        # normalized to Laplacian -1
    lap_col = -phi9                        # the Laplacian-DOF = +1 column
    # part 0 (bottom) B-net: [c1, c5, c10, c2, c11, c9]
    c = lap_col[0]
    assert c[0] == pytest.approx(0.0, abs=1e-14)         # nodal coefficients 0
    assert c[1] == pytest.approx(0.0, abs=1e-14)
    assert c[5] == pytest.approx(-0.5, abs=1e-13)        # c9 = -2*Delta/4
    assert c[2] == pytest.approx(-0.5, abs=1e-13)        # c10 (C1 constraint)
    assert c[4] == pytest.approx(-0.5, abs=1e-13)        # c11
    for p in range(4):
        lap = bpoly_laplacian(BPoly(2, basis[8, p], geoms[p]))
        assert lap.coeffs[0] == pytest.approx(-1.0, abs=1e-12)


def test_p2c_corner_column_closed_formulas():
    # first nodal DOF = 1, Laplacian 0: c5 = c8 = -1/2, c9 = 1/4, c10 = 1/2,
    # c11 = c13 = 1/4, c12 = 0 (arithmetic on the closed formulas)
    phi1 = p2c_basis(REF_MACRO_CORNERS, REF_MACRO_CENTER)[0]
    bottom = phi1[0]   # [c1, c5, c10, c2, c11, c9]
    right = phi1[1]    # [c2, c6, c11, c3, c12, c9]
    top = phi1[2]      # [c3, c7, c12, c4, c13, c9]
    left = phi1[3]     # [c4, c8, c13, c1, c10, c9]
    assert bottom[0] == pytest.approx(1.0)
    assert bottom[1] == pytest.approx(-0.5)   # c5
    assert left[1] == pytest.approx(-0.5)     # c8
    assert bottom[5] == pytest.approx(0.25)   # c9
    assert bottom[2] == pytest.approx(0.5)    # c10
    assert bottom[4] == pytest.approx(0.25)   # c11
    assert right[4] == pytest.approx(0.0)     # c12
    assert top[4] == pytest.approx(0.25)      # c13


def test_p2c_all_nodal_ones_is_constant():
    combo = p2c_basis(REF_MACRO_CORNERS, REF_MACRO_CENTER)[:8].sum(axis=0)
    assert np.allclose(combo, 1.0, atol=1e-13)


def test_p2c_rejects_non_square():
    with pytest.raises(ValueError):
        p2c_basis(np.array([(0, 0), (2, 0), (2, 1), (0, 1)]), np.array([1.0, 0.5]))


@pytest.mark.parametrize("level,m", [(1, 0), (2, 2), (3, 7)])
def test_p2c_unisolvence_round_trip(level, m):
    corners, center = macro_from_mesh(level, m)
    basis = p2c_basis(corners, center)
    rng = np.random.default_rng(level * 10 + m)
    dofs = rng.normal(size=9)
    assert np.allclose(extract_macro_dofs(basis, macro_parts(corners, center), dofs),
                       dofs, atol=1e-12)


def test_theorem1_alternating_laplacian_sum():
    # piecewise quadratics on the macro that are C0 overall and C1 at the
    # center have piecewise-constant Laplacians with alternating sum zero in
    # the cyclic order bottom, right, top, left
    rng = np.random.default_rng(77)
    for level, m in ((1, 0), (2, 1)):
        corners, center = macro_from_mesh(level, m)
        geoms = macro_parts(corners, center)
        for _ in range(20):
            c = rng.normal(size=13)
            c[11] = 2 * c[8] - c[9]    # c12 = 2 c9 - c10
            c[12] = 2 * c[8] - c[10]   # c13 = 2 c9 - c11
            layouts = ((0, 4, 9, 1, 10, 8), (1, 5, 10, 2, 11, 8),
                       (2, 6, 11, 3, 12, 8), (3, 7, 12, 0, 9, 8))
            laps = []
            for p, lay in enumerate(layouts):
                q = BPoly(2, c[list(lay)], geoms[p])
                laps.append(bpoly_laplacian(q).coeffs[0])
            alt = laps[0] - laps[1] + laps[2] - laps[3]
            assert abs(alt) <= 1e-11 * max(1.0, max(abs(l) for l in laps))


# --- unisolvence round trips on random/perturbed triangles ---------------------


@pytest.mark.parametrize("k", [4, 5, 6])
def test_pk_round_trip_random_and_perturbed(k):
    rng = np.random.default_rng(50 + k)
    geoms = [random_geom(rng), random_geom(rng, scale=3.0)] + perturbed_geoms(2)
    for geom in geoms:
        basis, pjs = pk_basis(geom, k)
        coeffs = rng.normal(size=num_coeffs(k))
        nodes, moments = apply_functionals(pjs, geom, k, coeffs)
        rebuilt = np.concatenate([nodes, moments]) @ basis[:, 0, :]
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(rebuilt - coeffs)) <= 1e-9 * max(1.0, scale)


def test_p3_round_trip():
    rng = np.random.default_rng(60)
    for geom in [random_geom(rng)] + perturbed_geoms(2):
        basis = p3_basis(geom)
        coeffs = rng.normal(size=10)
        f = BPoly(3, coeffs, geom)
        node_bary = np.array(boundary_multi_indices(3), dtype=float) / 3
        nodal = bpoly_eval(f, node_bary)
        lap_dof = -bpoly_eval(bpoly_laplacian(f), BARYCENTER)
        rebuilt = np.concatenate([nodal, [lap_dof]]) @ basis[:, 0, :]
        assert np.max(np.abs(rebuilt - coeffs)) <= 1e-11


def test_interior_and_boundary_functionals_are_disjoint():
    # interpolated (lap-kind) basis functions vanish at every boundary node,
    # and node-kind basis functions carry zero interior functional
    geom = random_geom(np.random.default_rng(70))
    for family, basis, k in (("p3_interp", p3_basis(geom), 3),
                             ("pk_interp", pk_basis(geom, 5)[0], 5)):
        n_nodes = len(slot_layout(family, k)[0])
        node_bary = np.array(boundary_multi_indices(k), dtype=float) / k
        for i in range(len(basis)):
            vals = bpoly_eval(BPoly(k, basis[i, 0], geom), node_bary)
            if i >= n_nodes:
                assert np.max(np.abs(vals)) <= 1e-9
        if k == 3:
            for i in range(len(basis)):
                lap = bpoly_eval(bpoly_laplacian(BPoly(k, basis[i, 0], geom)), BARYCENTER)
                if i < n_nodes:
                    assert abs(lap) <= 1e-9


# --- tabulation: bit identity with the loop and block-axis-first forms ---------

def _reference_bernstein_values(k, bary):
    """bernstein_values as a loop over the multi-indices."""
    bary = np.atleast_2d(np.asarray(bary, dtype=float))
    out = np.empty((bary.shape[0], num_coeffs(k)))
    pows = [np.vander(bary[:, i], k + 1, increasing=True) for i in range(3)]
    for idx, (a, b, c) in enumerate(multi_indices(k)):
        m = factorial(k) // (factorial(a) * factorial(b) * factorial(c))
        out[:, idx] = m * pows[0][:, a] * pows[1][:, b] * pows[2][:, c]
    return out


def _reference_block_gradients(coeffs, k, grad_lambda, bary):
    """block_gradients with the block axis first in its einsum."""
    maps = _reduction_maps(k)
    gcoef = np.zeros(coeffs.shape[:2] + (num_coeffs(k - 1), 2))
    for i in range(3):
        gcoef += coeffs[:, :, maps[i], None] * grad_lambda[:, None, None, i]
    return k * np.einsum("pc,bncd->bnpd", _reference_bernstein_values(k - 1, bary), gcoef)


def _rule_degrees(k):
    """Every rule a degree-k tabulation runs at: stiffness, load, norms, and
    the Gram matrix of the degree-k moment polynomials of P_{k+3}."""
    return sorted({stiffness_rule_degree(k), load_rule_degree(k), norm_rule_degree(k),
                   min(2 * (k + 3), MAX_QUAD_DEGREE)})


@pytest.mark.parametrize("k", range(0, MAX_QUAD_DEGREE + 1))
def test_bernstein_values_bit_identical_to_loop(k):
    rng = np.random.default_rng(k)
    point_sets = [make_quad_rule(d).points for d in range(0, MAX_QUAD_DEGREE + 1, 2)]
    point_sets += [rng.dirichlet([1.0, 1.0, 1.0], size=17), BARYCENTER,
                   np.array(multi_indices(max(k, 1)), dtype=float) / max(k, 1)]
    for bary in point_sets:
        got = bernstein_values(k, bary)
        assert np.array_equal(got, _reference_bernstein_values(k, bary))
        # BLAS products with the table round by its layout
        assert got.flags.c_contiguous


@pytest.mark.parametrize("k", range(1, 9))
def test_block_tabulation_bit_identical_to_reference(k):
    rng = np.random.default_rng(100 + k)
    nc = num_coeffs(k)
    for degree in _rule_degrees(k):
        bary = make_quad_rule(degree).points
        # the largest block the element passes give degree k: nb = nc, one part
        for B in (1, 7, 8, 64, block_size(k, nc, 1)):
            coeffs = rng.normal(size=(B, nc, nc))
            grad_lambda = rng.normal(size=(B, 3, 2))
            got = block_gradients(coeffs, k, grad_lambda, bary)
            assert np.array_equal(got, _reference_block_gradients(coeffs, k, grad_lambda, bary))
            assert got.flags.c_contiguous
            assert np.array_equal(block_values(coeffs, k, bary),
                                  coeffs @ _reference_bernstein_values(k, bary).T)


def _reference_pk_coefficients(geom, k):
    """build_pk_basis's coefficient matrix with every p_j evaluated by bpoly_eval."""
    rule = make_quad_rule(min(2 * k, MAX_QUAD_DEGREE))
    w = rule.weights * geom.area
    b_vals = bpoly_eval(BPoly(3, _bubble_coeffs(), geom), rule.points)
    lap_vals = bernstein_values(k - 2, rule.points) @ lap_operator(k, geom)
    moment_rows = np.array([((w * b_vals * bpoly_eval(BPoly(k - 3, pj, geom), rule.points))
                             @ lap_vals) for pj in gram_schmidt_pj(geom.vertices[None], k)[0]])
    node_rows = bernstein_values(k, np.array(boundary_multi_indices(k), dtype=float) / k)
    return np.linalg.inv(np.vstack([node_rows, moment_rows])).T


@pytest.mark.parametrize("k", range(4, 9))
def test_pk_basis_bit_identical_to_per_polynomial_evaluation(k):
    mesh = build_crisscross_mesh(2, perturb=0.2)
    for tri in mesh.triangles:
        geom = TriGeom.from_vertices(mesh.vertices[tri])
        assert np.array_equal(pk_basis(geom, k)[0][:, 0, :],
                              _reference_pk_coefficients(geom, k))


# --- stacked builders: bit identity with the per-element builders --------------
#
# The per-element builders below are the reference: each builds one element
# from its TriGeom, one matrix-vector product per row and one LAPACK call per
# matrix, as the element loop did.  The stacked builders must give the same
# bits on every element.

def _ref_laplacian_operator(k, geom):
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


def _ref_node_points(alphas, k, geom):
    return (np.array(alphas, dtype=float) / k) @ geom.vertices


def _ref_lagrange(geom, k):
    alphas = multi_indices(k)
    return (_collocation_inverse(k).T[:, None, :].copy(),
            _ref_node_points(alphas, k, geom), geom.barycenter, None)


def _ref_fs_bubble(geom):
    s = float(np.sum(geom.grad_lambda ** 2))
    q = np.array([-1.0, 2.0, 2.0, -1.0, 2.0, -1.0])
    return BPoly(2, q / (6.0 * s), geom)


def _ref_p2nc(geom, standard=False):
    phi0 = _ref_fs_bubble(geom)
    rows = _collocation_inverse(2).T.copy()
    if not standard:
        lap_op = _ref_laplacian_operator(2, geom)
        for i in range(6):
            const_lap = (lap_op @ rows[i])[0]
            rows[i] = rows[i] + const_lap * phi0.coeffs
    basis = np.vstack([rows, phi0.coeffs[None, :]])
    return (basis[:, None, :], _ref_node_points(multi_indices(2), 2, geom),
            geom.barycenter, None)


def _ref_p3(geom):
    b = BPoly(3, _bubble_coeffs(), geom)
    lap_b = bpoly_laplacian(b)
    phi0 = BPoly(3, b.coeffs / (-bpoly_eval(lap_b, BARYCENTER)), geom)
    lagr = _collocation_inverse(3).T
    lap_op = _ref_laplacian_operator(3, geom)
    lap_at_x0 = bernstein_values(1, BARYCENTER)[0] @ (lap_op @ lagr.T)
    rows, pts = [], []
    for i, alpha in enumerate(multi_indices(3)):
        if min(alpha) > 0:
            continue
        rows.append(lagr[i] + lap_at_x0[i] * phi0.coeffs)
        pts.append(_ref_node_points([alpha], 3, geom)[0])
    rows.append(phi0.coeffs)
    return np.array(rows)[:, None, :], np.array(pts), geom.barycenter, None


def _ref_gram_schmidt_pj(geom, k):
    deg = k - 3
    x0, y0 = geom.barycenter
    diam = geom.diameter
    pts = (np.array(multi_indices(deg), dtype=float) / deg) @ geom.vertices
    raws = []
    for total in range(deg + 1):
        for a in range(total, -1, -1):
            vals = (((pts[:, 0] - x0) / diam) ** a) * (((pts[:, 1] - y0) / diam) ** (total - a))
            raws.append(bpoly_from_point_values(deg, vals, geom).coeffs)
    raws = np.array(raws)
    bub = BPoly(3, _bubble_coeffs(), geom)
    rule = make_quad_rule(min(2 * k, MAX_QUAD_DEGREE))
    qb = rule.points
    w = rule.weights * geom.area
    b_vals = bpoly_eval(bub, qb)
    b_grads = bpoly_grad(bub, qb)
    vals_low = bernstein_values(deg, qb)

    def gram_of(rows):
        p_vals = vals_low @ rows.T
        p_grads = block_gradients(rows[None], deg, geom.grad_lambda[None], qb)[0]
        gbp = p_vals.T[:, :, None] * b_grads[None, :, :] + b_vals[None, :, None] * p_grads
        return np.einsum("npd,mpd,p->nm", gbp, gbp, w)

    coeffs = raws
    for _ in range(2):
        coeffs = np.linalg.solve(np.linalg.cholesky(gram_of(coeffs)), coeffs)
    return coeffs


def _ref_pk(geom, k):
    pjs = _ref_gram_schmidt_pj(geom, k)
    b_alphas = boundary_multi_indices(k)
    node_rows = bernstein_values(k, np.array(b_alphas, dtype=float) / k)
    rule = make_quad_rule(min(2 * k, MAX_QUAD_DEGREE))
    w = rule.weights * geom.area
    lap_vals = bernstein_values(k - 2, rule.points) @ _ref_laplacian_operator(k, geom)
    b_vals = bpoly_eval(BPoly(3, _bubble_coeffs(), geom), rule.points)
    low = bernstein_values(k - 3, rule.points)
    moment_rows = np.array([((w * b_vals * (low @ pj)) @ lap_vals) for pj in pjs])
    C = np.linalg.inv(np.vstack([node_rows, moment_rows]))
    return C.T[:, None, :].copy(), _ref_node_points(b_alphas, k, geom), geom.barycenter, pjs


def _ref_p2c(corners, center):
    h = np.linalg.norm(corners[1] - corners[0])
    mids = [0.5 * (corners[i] + corners[(i + 1) % 4]) for i in range(4)]

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

    layouts = ((0, 4, 9, 1, 10, 8), (1, 5, 10, 2, 11, 8),
               (2, 6, 11, 3, 12, 8), (3, 7, 12, 0, 9, 8))
    basis = np.zeros((9, 4, 6))
    for i in range(9):
        u = np.zeros(8)
        L = 0.0
        if i < 8:
            u[i] = 1.0
        else:
            L = -1.0
        c = bnet(u, L)
        for p, layout in enumerate(layouts):
            basis[i, p] = c[list(layout)]
    return basis, np.array(list(corners) + mids), center, None


def _reference_space_arrays(mesh, family, k):
    """The space arrays of the element loop: every element built on its own."""
    if family == "p2c_interp":
        out = []
        for corner_ids, center_id in zip(mesh.macro_corners, mesh.macro_centers):
            corners, center = mesh.vertices[corner_ids], mesh.vertices[center_id]
            geoms = [TriGeom.from_vertices([corners[i], corners[(i + 1) % 4], center])
                     for i in range(4)]
            out.append((geoms, *_ref_p2c(corners, center)))
    else:
        build = {"p2nc_interp": _ref_p2nc,
                 "p2nc_std": lambda g: _ref_p2nc(g, standard=True),
                 "p3_interp": _ref_p3,
                 "pk_interp": lambda g: _ref_pk(g, k),
                 "pk_lagrange": lambda g: _ref_lagrange(g, k)}[family]
        out = []
        for tri in mesh.triangles:
            geom = TriGeom.from_vertices(mesh.vertices[tri])
            out.append(([geom], *build(geom)))
    geoms, basis, node_xy, lap_xy, pj = zip(*out)
    return {"basis": np.array(basis), "node_xy": np.array(node_xy),
            "lap_xy": np.array(lap_xy),
            "pj": None if pj[0] is None else np.array(pj),
            "verts": np.array([[g.vertices for g in gs] for gs in geoms]),
            "grad_lambda": np.array([[g.grad_lambda for g in gs] for gs in geoms]),
            "area": np.array([[g.area for g in gs] for gs in geoms])}


_STACKED_CASES = [(fam, k, level, perturb)
                  for fam, k in (("p2nc_interp", 2), ("p2nc_std", 2), ("p3_interp", 3),
                                 ("pk_lagrange", 2), ("pk_lagrange", 5))
                  for level, perturb in ((2, 0.0), (3, 0.2))]
_STACKED_CASES += [("p2c_interp", 2, level, 0.0) for level in (2, 3)]
_STACKED_CASES += [("pk_interp", k, level, perturb) for k in range(4, 9)
                   for level, perturb in ((2, 0.0), (3, 0.2))]


@pytest.mark.parametrize("family,k,level,perturb", _STACKED_CASES, ids=[
    f"{fam}-{k}-{level}" + (f"-perturb{p}" if p else "") for fam, k, level, p in _STACKED_CASES])
def test_stacked_bases_bit_identical_to_element_builders(family, k, level, perturb):
    # the Space builds each class once; its rows, gathered to the elements,
    # equal every element's own build
    mesh = build_crisscross_mesh(level, perturb=perturb)
    space = build_space(mesh, family, k)
    ref = _reference_space_arrays(mesh, family, k)
    # the moment polynomials build_pk_basis builds its bases with
    pj = ref.pop("pj")
    if family == "pk_interp":
        got = gram_schmidt_pj(mesh.vertices[mesh.triangles], k)
        assert got.shape == pj.shape and np.array_equal(got, pj), "pj"
    else:
        assert pj is None
    # the vertices and node points come from the mesh, as the passes take them
    alphas = slot_layout(family, k)[0]
    from_mesh = {"verts": space.vertices(),
                 "node_xy": (np.array(alphas, dtype=float) / k)
                 @ mesh.vertices[corner_ids(mesh, family)]}
    for name, want in ref.items():
        got = from_mesh[name] if name in from_mesh else getattr(space, name)
        if name in ("basis", "grad_lambda", "area"):
            assert len(got) == space.shape.max() + 1, name
            got = per_element(space, name)
        assert got.shape == want.shape and np.array_equal(got, want), name
    # BLAS products with the basis round by its layout
    assert space.basis.flags.c_contiguous
