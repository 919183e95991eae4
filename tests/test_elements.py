import numpy as np
import pytest

from math import factorial

from igfem.assembly import load_rule_degree, norm_rule_degree, stiffness_rule_degree
from igfem.elements import (BARYCENTER, block_gradients, block_values,
                            boundary_multi_indices, build_fs_bubble,
                            build_lagrange_basis, build_p2c_macro_basis,
                            build_p2nc_element, build_p3_basis, build_pk_basis,
                            gram_schmidt_pj, laplacian_operator)
from igfem.mesh import build_crisscross_mesh, triangle_gauss_points
from igfem.poly import (BPoly, TriGeom, bernstein_values, bpoly_eval,
                        bpoly_grad, bpoly_laplacian, bpoly_from_point_values,
                        domain_points, make_quad_rule, multi_indices, num_coeffs,
                        MAX_QUAD_DEGREE, _reduction_maps)

REF = TriGeom.from_vertices([(0, 0), (1, 0), (0, 1)])


def random_geom(rng, scale=1.0):
    while True:
        v = rng.normal(size=(3, 2)) * scale
        det = (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - \
              (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
        if det < 0:
            v[[1, 2]] = v[[2, 1]]
            det = -det
        if det > 0.1 * scale * scale:
            return TriGeom.from_vertices(v)


def perturbed_geoms(n=6):
    mesh = build_crisscross_mesh(3, perturb=0.25)
    rng = np.random.default_rng(42)
    ids = rng.choice(mesh.num_triangles, size=n, replace=False)
    return [TriGeom.from_vertices(mesh.vertices[mesh.triangles[t]]) for t in ids]


def gauss_barys(geom):
    return np.array([geom.to_barycentric(p)
                     for p in triangle_gauss_points(geom.vertices)])


# --- Fortin-Soulie bubble ---------------------------------------------------

def test_fs_bubble_reference_value():
    phi0 = build_fs_bubble(REF)
    assert bpoly_eval(phi0, BARYCENTER) == pytest.approx(1 / 24, abs=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fs_bubble_gauss_points_and_laplacian(seed):
    geom = random_geom(np.random.default_rng(seed))
    phi0 = build_fs_bubble(geom)
    vals = bpoly_eval(phi0, gauss_barys(geom))
    assert np.all(np.abs(vals) <= 1e-13)
    lap = bpoly_laplacian(phi0)
    assert lap.coeffs[0] == pytest.approx(-1.0, abs=1e-12)


# --- P2 nonconforming -------------------------------------------------------

def test_p2nc_harmonic_eta_is_unchanged():
    # x^2 - y^2 is harmonic: its bubble correction must vanish
    geom = random_geom(np.random.default_rng(3))
    el = build_p2nc_element(geom)
    pts = domain_points(2, geom)
    vals = pts[:, 0] ** 2 - pts[:, 1] ** 2
    eta = bpoly_from_point_values(2, vals, geom)
    # express through the nodal basis: coefficients are the nodal values
    combo = vals @ el.basis[:6, 0, :]
    assert np.allclose(combo, eta.coeffs, atol=1e-11)


@pytest.mark.parametrize("standard", [False, True])
def test_p2nc_structure(standard):
    geom = random_geom(np.random.default_rng(4))
    el = build_p2nc_element(geom, standard=standard)
    assert el.n_basis == 7
    assert [d.kind for d in el.dofs].count("node") == 6
    assert el.dofs[6].kind == "lap_point"
    lap_op = laplacian_operator(2, geom)
    for i in range(6):
        const_lap = (lap_op @ el.basis[i, 0])[0]
        if not standard:
            assert abs(const_lap) <= 1e-12   # harmonic by construction
    assert (lap_op @ el.basis[6, 0])[0] == pytest.approx(-1.0, abs=1e-12)


def test_p2nc_matches_lagrange_at_gauss_points():
    geom = random_geom(np.random.default_rng(5))
    el = build_p2nc_element(geom)
    std = build_p2nc_element(geom, standard=True)
    gb = gauss_barys(geom)
    corrected = el.basis_values(gb)[:6]
    plain = std.basis_values(gb)[:6]
    assert np.max(np.abs(corrected - plain)) <= 1e-13


# --- P3 ----------------------------------------------------------------------

def test_p3_reference_bubble_normalization():
    el = build_p3_basis(REF)
    phi0 = el.function(9)
    # b/36 on the reference triangle: single B-net coefficient 4.5/36
    expect = np.zeros(10)
    expect[list(multi_indices(3)).index((1, 1, 1))] = 4.5 / 36.0
    assert np.allclose(phi0.coeffs, expect, atol=1e-13)
    lap = bpoly_laplacian(phi0)
    assert bpoly_eval(lap, BARYCENTER) == pytest.approx(-1.0, abs=1e-13)


def test_p3_delta_property():
    geom = random_geom(np.random.default_rng(6))
    el = build_p3_basis(geom)
    node_bary = np.array(boundary_multi_indices(3), dtype=float) / 3
    vals = el.basis_values(node_bary)[:9]
    assert np.allclose(vals, np.eye(9), atol=1e-12)
    for i in range(9):
        lap = bpoly_laplacian(el.function(i))
        assert abs(bpoly_eval(lap, BARYCENTER)) <= 1e-12


def test_p3_reproduces_linear_from_boundary_values():
    geom = random_geom(np.random.default_rng(7))
    el = build_p3_basis(geom)
    balphas = boundary_multi_indices(3)
    pts = (np.array(balphas, dtype=float) / 3) @ geom.vertices
    vals = 0.3 * pts[:, 0] - 1.1 * pts[:, 1] + 0.5   # harmonic, Laplacian DOF 0
    combo = vals @ el.basis[:9, 0, :]
    target = bpoly_from_point_values(
        3, 0.3 * domain_points(3, geom)[:, 0] - 1.1 * domain_points(3, geom)[:, 1] + 0.5,
        geom)
    assert np.allclose(combo, target.coeffs, atol=1e-11)


# --- Gram-Schmidt moment basis ----------------------------------------------

def test_gram_schmidt_counts_and_reference_constant():
    pjs = gram_schmidt_pj(REF, 4)
    assert len(pjs) == 3
    # (1,1)_G = int |grad b|^2 = 81/10 by symbolic integration, so the
    # normalized constant is 1/sqrt(8.1)
    assert np.allclose(pjs[0].coeffs, 1.0 / np.sqrt(8.1), atol=1e-12)
    assert len(gram_schmidt_pj(REF, 5)) == 6
    assert len(gram_schmidt_pj(REF, 6)) == 10


@pytest.mark.parametrize("k", [4, 5, 6])
def test_gram_schmidt_orthonormal(k):
    geom = random_geom(np.random.default_rng(k))
    pjs = gram_schmidt_pj(geom, k)
    bubble = BPoly(3, _bubble_coeffs(), geom)
    rule = make_quad_rule(2 * k)
    w = rule.weights * geom.area
    bv = bpoly_eval(bubble, rule.points)
    bg = bpoly_grad(bubble, rule.points)
    gbp = []
    for pj in pjs:
        pv = bpoly_eval(pj, rule.points)
        pg = bpoly_grad(pj, rule.points)
        gbp.append(pv[:, None] * bg + bv[:, None] * pg)
    gram = np.array([[w @ np.sum(gi * gj, axis=1) for gj in gbp] for gi in gbp])
    assert np.max(np.abs(gram - np.eye(len(pjs)))) <= 1e-11


def _bubble_coeffs():
    c = np.zeros(10)
    c[list(multi_indices(3)).index((1, 1, 1))] = 4.5
    return c


# --- Pk moment element ---------------------------------------------------------

def apply_functionals(el, geom, k, func_coeffs):
    """Evaluate the element's node and moment functionals on a BPoly."""
    node_bary = np.array(boundary_multi_indices(k), dtype=float) / k
    nodes = bernstein_values(k, node_bary) @ func_coeffs
    rule = make_quad_rule(2 * k)
    w = rule.weights * geom.area
    bubble = BPoly(3, _bubble_coeffs(), geom)
    bv = bpoly_eval(bubble, rule.points)
    lap = laplacian_operator(k, geom) @ func_coeffs
    lapv = bernstein_values(k - 2, rule.points) @ lap
    moments = np.array([w @ (bpoly_eval(pj, rule.points) * bv * lapv)
                        for pj in el.moment_basis])
    return nodes, moments


@pytest.mark.parametrize("k", [4, 5, 6])
def test_pk_duality_residuals(k):
    rng = np.random.default_rng(10 + k)
    for geom in (REF, random_geom(rng)):
        el = build_pk_basis(geom, k)
        n_nodes = 3 * k
        assert sum(1 for d in el.dofs if d.kind == "node") == n_nodes
        eye = np.eye(el.n_basis)
        for i in range(el.n_basis):
            nodes, moments = apply_functionals(el, geom, k, el.basis[i, 0])
            res = np.concatenate([nodes, moments]) - eye[i]
            assert np.max(np.abs(res)) <= 1e-9


@pytest.mark.parametrize("k", [4, 5, 6])
def test_pk_psi_equals_minus_b_pj(k):
    geom = random_geom(np.random.default_rng(20 + k))
    el = build_pk_basis(geom, k)
    bubble = BPoly(3, _bubble_coeffs(), geom)
    lat = np.array(multi_indices(k), dtype=float) / k
    bv = bpoly_eval(bubble, lat)
    for j, pj in enumerate(el.moment_basis):
        psi = el.function(3 * k + j)
        target = -bv * bpoly_eval(pj, lat)
        got = bpoly_eval(psi, lat)
        assert np.max(np.abs(got - target)) <= 1e-9


def test_pk_rejects_low_degree():
    with pytest.raises(ValueError):
        build_pk_basis(REF, 3)
    with pytest.raises(ValueError):
        gram_schmidt_pj(REF, 3)


# --- Lagrange -----------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_lagrange_delta_and_partition(k):
    geom = random_geom(np.random.default_rng(30 + k))
    el = build_lagrange_basis(geom, k)
    assert el.n_basis == num_coeffs(k)
    lat = np.array(multi_indices(k), dtype=float) / k
    vals = el.basis_values(lat)
    assert np.allclose(vals, np.eye(el.n_basis), atol=1e-12)
    assert np.allclose(el.basis.sum(axis=0)[0], 1.0, atol=1e-12)  # unity


def test_lagrange_reproduces_monomials():
    rng = np.random.default_rng(35)
    k = 4
    geom = random_geom(rng)
    el = build_lagrange_basis(geom, k)
    pts = domain_points(k, geom)
    for a, b in ((1, 0), (2, 1), (0, 4), (2, 2)):
        vals = pts[:, 0] ** a * pts[:, 1] ** b
        combo = vals @ el.basis[:, 0, :]
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


def extract_macro_dofs(el, local_coeffs):
    """The 9 DOFs (8 nodal values + Laplacian at center) of a macro function."""
    vals = np.zeros(9)
    parts = [BPoly(2, local_coeffs @ el.basis[:, p, :], el.geoms[p]) for p in range(4)]
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
    el = build_p2c_macro_basis(REF_MACRO_CORNERS, REF_MACRO_CENTER)
    phi9 = el.basis[8]                     # normalized to Laplacian -1
    lap_col = -phi9                        # the Laplacian-DOF = +1 column
    # part 0 (bottom) B-net: [c1, c5, c10, c2, c11, c9]
    c = lap_col[0]
    assert c[0] == pytest.approx(0.0, abs=1e-14)         # nodal coefficients 0
    assert c[1] == pytest.approx(0.0, abs=1e-14)
    assert c[5] == pytest.approx(-0.5, abs=1e-13)        # c9 = -2*Delta/4
    assert c[2] == pytest.approx(-0.5, abs=1e-13)        # c10 (C1 constraint)
    assert c[4] == pytest.approx(-0.5, abs=1e-13)        # c11
    for p in range(4):
        lap = bpoly_laplacian(el.function(8, p))
        assert lap.coeffs[0] == pytest.approx(-1.0, abs=1e-12)


def test_p2c_corner_column_closed_formulas():
    # first nodal DOF = 1, Laplacian 0: c5 = c8 = -1/2, c9 = 1/4, c10 = 1/2,
    # c11 = c13 = 1/4, c12 = 0 (arithmetic on the closed formulas)
    el = build_p2c_macro_basis(REF_MACRO_CORNERS, REF_MACRO_CENTER)
    phi1 = el.basis[0]
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
    el = build_p2c_macro_basis(REF_MACRO_CORNERS, REF_MACRO_CENTER)
    combo = el.basis[:8].sum(axis=0)
    assert np.allclose(combo, 1.0, atol=1e-13)


def test_p2c_rejects_non_square():
    with pytest.raises(ValueError):
        build_p2c_macro_basis(np.array([(0, 0), (2, 0), (2, 1), (0, 1)]),
                              np.array([1.0, 0.5]))


@pytest.mark.parametrize("level,m", [(1, 0), (2, 2), (3, 7)])
def test_p2c_unisolvence_round_trip(level, m):
    corners, center = macro_from_mesh(level, m)
    el = build_p2c_macro_basis(corners, center)
    rng = np.random.default_rng(level * 10 + m)
    dofs = rng.normal(size=9)
    assert np.allclose(extract_macro_dofs(el, dofs), dofs, atol=1e-12)


def test_theorem1_alternating_laplacian_sum():
    # piecewise quadratics on the macro that are C0 overall and C1 at the
    # center have piecewise-constant Laplacians with alternating sum zero in
    # the cyclic order bottom, right, top, left
    rng = np.random.default_rng(77)
    for level, m in ((1, 0), (2, 1)):
        corners, center = macro_from_mesh(level, m)
        el = build_p2c_macro_basis(corners, center)
        for _ in range(20):
            c = rng.normal(size=13)
            c[11] = 2 * c[8] - c[9]    # c12 = 2 c9 - c10
            c[12] = 2 * c[8] - c[10]   # c13 = 2 c9 - c11
            layouts = ((0, 4, 9, 1, 10, 8), (1, 5, 10, 2, 11, 8),
                       (2, 6, 11, 3, 12, 8), (3, 7, 12, 0, 9, 8))
            laps = []
            for p, lay in enumerate(layouts):
                q = BPoly(2, c[list(lay)], el.geoms[p])
                laps.append(bpoly_laplacian(q).coeffs[0])
            alt = laps[0] - laps[1] + laps[2] - laps[3]
            assert abs(alt) <= 1e-11 * max(1.0, max(abs(l) for l in laps))


# --- unisolvence round trips on random/perturbed triangles ---------------------


@pytest.mark.parametrize("k", [4, 5, 6])
def test_pk_round_trip_random_and_perturbed(k):
    rng = np.random.default_rng(50 + k)
    geoms = [random_geom(rng), random_geom(rng, scale=3.0)] + perturbed_geoms(2)
    for geom in geoms:
        el = build_pk_basis(geom, k)
        coeffs = rng.normal(size=num_coeffs(k))
        nodes, moments = apply_functionals(el, geom, k, coeffs)
        rebuilt = np.concatenate([nodes, moments]) @ el.basis[:, 0, :]
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(rebuilt - coeffs)) <= 1e-9 * max(1.0, scale)


def test_p3_round_trip():
    rng = np.random.default_rng(60)
    for geom in [random_geom(rng)] + perturbed_geoms(2):
        el = build_p3_basis(geom)
        coeffs = rng.normal(size=10)
        f = BPoly(3, coeffs, geom)
        node_bary = np.array(boundary_multi_indices(3), dtype=float) / 3
        nodal = bpoly_eval(f, node_bary)
        lap_dof = -bpoly_eval(bpoly_laplacian(f), BARYCENTER)
        rebuilt = np.concatenate([nodal, [lap_dof]]) @ el.basis[:, 0, :]
        assert np.max(np.abs(rebuilt - coeffs)) <= 1e-11


def test_interior_and_boundary_functionals_are_disjoint():
    # interpolated (lap-kind) basis functions vanish at every boundary node,
    # and node-kind basis functions carry zero interior functional
    geom = random_geom(np.random.default_rng(70))
    for el, k in ((build_p3_basis(geom), 3), (build_pk_basis(geom, 5), 5)):
        node_bary = np.array(boundary_multi_indices(k), dtype=float) / k
        for i, dof in enumerate(el.dofs):
            vals = bpoly_eval(el.function(i), node_bary)
            if dof.kind != "node":
                assert np.max(np.abs(vals)) <= 1e-9
        if k == 3:
            for i, dof in enumerate(el.dofs):
                lap = bpoly_eval(bpoly_laplacian(el.function(i)), BARYCENTER)
                if dof.kind == "node":
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
        for B in (1, 7, 8, 64):
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
    lap_vals = bernstein_values(k - 2, rule.points) @ laplacian_operator(k, geom)
    moment_rows = np.array([((w * b_vals * bpoly_eval(pj, rule.points)) @ lap_vals)
                            for pj in gram_schmidt_pj(geom, k)])
    node_rows = bernstein_values(k, np.array(boundary_multi_indices(k), dtype=float) / k)
    return np.linalg.inv(np.vstack([node_rows, moment_rows])).T


@pytest.mark.parametrize("k", range(4, 9))
def test_pk_basis_bit_identical_to_per_polynomial_evaluation(k):
    mesh = build_crisscross_mesh(2, perturb=0.2)
    for tri in mesh.triangles:
        geom = TriGeom.from_vertices(mesh.vertices[tri])
        assert np.array_equal(build_pk_basis(geom, k).basis[:, 0, :],
                              _reference_pk_coefficients(geom, k))
