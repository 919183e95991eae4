import numpy as np
import pytest

from bpoly import (REF, BPoly, bpoly_eval, bpoly_from_point_values, bpoly_grad,
                   bpoly_laplacian, domain_points, random_geom)
from igfem.elements import block_gradients, laplacian_operator
from igfem.poly import (bernstein_values, make_quad_rule, multi_indices, num_coeffs,
                        triangle_geometry)


def random_bary(rng, n=1):
    w = rng.uniform(0.05, 1.0, size=(n, 3))
    return w / w.sum(axis=1, keepdims=True)


def test_trigeom_invariants():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = random_geom(rng)
        assert g.area > 0
        assert np.allclose(g.grad_lambda.sum(axis=0), 0.0, atol=1e-12)
        for i in range(3):
            lam = g.to_barycentric(g.vertices[i])
            assert np.allclose(lam, np.eye(3)[i], atol=1e-10)


def test_trigeom_rejects_degenerate():
    with pytest.raises(ValueError):
        triangle_geometry([(0, 0), (1, 0), (2, 0)])


def test_partition_of_unity():
    rng = np.random.default_rng(1)
    for k in (1, 2, 3, 5, 8):
        p = BPoly(k, np.ones(num_coeffs(k)), REF)
        vals = bpoly_eval(p, random_bary(rng, 20))
        assert np.allclose(vals, 1.0, atol=1e-13)


def test_cubic_bubble_value_at_barycenter():
    # 27*l1*l2*l3 has a single B-net coefficient 27/6 at (1,1,1)
    coeffs = np.zeros(10)
    coeffs[list(multi_indices(3)).index((1, 1, 1))] = 27.0 / 6.0
    b = BPoly(3, coeffs, REF)
    assert bpoly_eval(b, (1 / 3, 1 / 3, 1 / 3)) == pytest.approx(1.0, abs=1e-14)


def test_gradient_of_lambda2_is_e1():
    p = BPoly(1, np.array([0.0, 1.0, 0.0]), REF)  # lambda_2 = x on REF
    g = bpoly_grad(p, (1 / 3, 1 / 3, 1 / 3))
    assert np.allclose(g, [1.0, 0.0], atol=1e-14)


def test_laplacian_fs_numerator():
    # q = 2 - 3*sum(l_i^2) has constant Laplacian -24 on the reference triangle
    q = BPoly(2, np.array([-1.0, 2.0, 2.0, -1.0, 2.0, -1.0]), REF)
    lap = bpoly_laplacian(q)
    assert lap.degree == 0
    assert lap.coeffs[0] == pytest.approx(-24.0, abs=1e-12)


def test_laplacian_cubic_bubble_at_barycenter():
    coeffs = np.zeros(10)
    coeffs[list(multi_indices(3)).index((1, 1, 1))] = 27.0 / 6.0
    b = BPoly(3, coeffs, REF)
    lap = bpoly_laplacian(b)          # -54*(x + y) on REF
    val = bpoly_eval(lap, (1 / 3, 1 / 3, 1 / 3))
    assert val == pytest.approx(-36.0, abs=1e-11)


def test_laplacian_of_elevated_linear_is_zero():
    rng = np.random.default_rng(2)
    g = random_geom(rng)
    for k in (2, 3, 4):
        pts = domain_points(k, g)
        vals = 0.7 * pts[:, 0] - 1.3 * pts[:, 1] + 0.25
        p = bpoly_from_point_values(k, vals, g)
        lap = bpoly_laplacian(p)
        assert np.allclose(lap.coeffs, 0.0, atol=1e-10)


def test_laplacian_rejects_low_degree():
    with pytest.raises(ValueError):
        bpoly_laplacian(BPoly(1, np.zeros(3), REF))
    with pytest.raises(ValueError):
        laplacian_operator(1, REF.grad_lambda[None])


def test_from_point_values_constant():
    p = bpoly_from_point_values(3, np.ones(10), REF)
    assert np.allclose(p.coeffs, 1.0, atol=1e-13)


def test_from_point_values_bernstein_member():
    # values of l1^2 at the degree-2 domain points give coefficients e_1
    pts = np.array(multi_indices(2), dtype=float) / 2
    vals = pts[:, 0] ** 2
    p = bpoly_from_point_values(2, vals, REF)
    assert np.allclose(p.coeffs, [1, 0, 0, 0, 0, 0], atol=1e-13)


def test_from_point_values_round_trip():
    rng = np.random.default_rng(3)
    for k in (1, 2, 4, 7):
        g = random_geom(rng)
        vals = rng.normal(size=num_coeffs(k))
        p = bpoly_from_point_values(k, vals, g)
        lat = np.array(multi_indices(k), dtype=float) / k
        assert np.allclose(bpoly_eval(p, lat), vals, atol=1e-12)


def test_from_point_values_wrong_count():
    with pytest.raises(ValueError):
        bpoly_from_point_values(2, np.ones(5), REF)


def test_quad_rule_area_and_first_moment():
    r = make_quad_rule(2)
    xy = r.points @ REF.vertices
    assert REF.area * r.weights.sum() == pytest.approx(0.5, abs=1e-14)
    assert REF.area * (r.weights @ xy[:, 0]) == pytest.approx(1 / 6, abs=1e-14)


def test_quad_rule_rejects_unsupported():
    with pytest.raises(ValueError):
        make_quad_rule(17)
    with pytest.raises(ValueError):
        make_quad_rule(-1)


@pytest.mark.parametrize("k", list(range(0, 17)))
def test_quadrature_bernstein_exactness(k):
    # closed form: integral of any degree-k Bernstein basis function equals
    # area * 2 / ((k+1)(k+2))
    rule = make_quad_rule(k)
    vals = bernstein_values(k, rule.points)
    got = REF.area * (rule.weights @ vals)
    exact = REF.area * 2.0 / ((k + 1) * (k + 2))
    assert np.all(np.abs(got - exact) <= 1e-12 * exact)


def test_quad_rule_exactness_degree_covers_request():
    for d in (0, 1, 5, 8, 16):
        assert make_quad_rule(d).exactness_degree >= d


def _batched_grad(p: BPoly, bary) -> np.ndarray:
    """bpoly_grad at one point through the element pass's block_gradients."""
    return block_gradients(p.coeffs[None, None], p.degree, p.geom.grad_lambda[None],
                           bary[None])[0, 0, 0]


def _batched_laplacian(p: BPoly) -> BPoly:
    """bpoly_laplacian through the element pass's laplacian_operator."""
    op = laplacian_operator(p.degree, p.geom.grad_lambda[None])[0]
    return BPoly(p.degree - 2, op @ p.coeffs, p.geom)


@pytest.mark.parametrize("gradient", [bpoly_grad, _batched_grad], ids=["reference", "batched"])
def test_gradient_matches_finite_differences(gradient):
    rng = np.random.default_rng(4)
    for k in (1, 2, 4, 6, 8):
        g = random_geom(rng)
        p = BPoly(k, rng.normal(size=num_coeffs(k)), g)
        for bary in random_bary(rng, 4):
            x0 = bary @ g.vertices
            grad = gradient(p, bary)
            eps = 1e-6 * g.diameter
            fd = np.zeros(2)
            for d in range(2):
                xp, xm = x0.copy(), x0.copy()
                xp[d] += eps
                xm[d] -= eps
                fd[d] = (bpoly_eval(p, g.to_barycentric(xp))
                         - bpoly_eval(p, g.to_barycentric(xm))) / (2 * eps)
            scale = max(1.0, np.linalg.norm(grad))
            assert np.allclose(grad, fd, rtol=0.0, atol=1e-6 * scale)


@pytest.mark.parametrize("laplacian", [bpoly_laplacian, _batched_laplacian],
                         ids=["reference", "batched"])
def test_laplacian_matches_finite_differences(laplacian):
    rng = np.random.default_rng(5)
    for k in (2, 3, 5, 8):
        g = random_geom(rng)
        p = BPoly(k, rng.normal(size=num_coeffs(k)), g)
        lap = laplacian(p)
        for bary in random_bary(rng, 3):
            x0 = bary @ g.vertices
            eps = 1e-4 * g.diameter
            acc = -4.0 * bpoly_eval(p, g.to_barycentric(x0))
            for dx, dy in ((eps, 0), (-eps, 0), (0, eps), (0, -eps)):
                acc += bpoly_eval(p, g.to_barycentric(x0 + [dx, dy]))
            fd = acc / eps ** 2
            got = bpoly_eval(lap, bary)
            scale = max(1.0, abs(got))
            assert abs(got - fd) <= 1e-5 * scale


def test_affine_invariance_of_values():
    rng = np.random.default_rng(6)
    k = 4
    coeffs = rng.normal(size=num_coeffs(k))
    bary = random_bary(rng, 10)
    vals = [bpoly_eval(BPoly(k, coeffs, random_geom(rng)), bary) for _ in range(3)]
    assert np.allclose(vals[0], vals[1], atol=1e-13)
    assert np.allclose(vals[0], vals[2], atol=1e-13)
