import io

import numpy as np
import pytest
import scipy.sparse as sp

from igfem.assembly import assemble_system, build_space
from igfem.cli import PROBLEMS
from igfem.mesh import build_crisscross_mesh
from igfem.solver import SolverError, cg_solve, estimate_condition


def random_spd(rng, n, cond=100.0):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.geomspace(1.0, cond, n)
    return sp.csr_array(q @ np.diag(w) @ q.T), q, w


def test_diagonal_system():
    A = sp.csr_array(np.diag([2.0, 8.0]))
    x, stats = cg_solve(A, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)
    assert stats.iterations <= 2


def test_identity_one_iteration():
    A = sp.csr_array(np.eye(9))
    F = np.arange(9.0)
    x, stats = cg_solve(A, F)
    assert np.allclose(x, F, atol=1e-13)
    assert stats.iterations == 1


def test_against_dense_oracle():
    rng = np.random.default_rng(0)
    A, _, _ = random_spd(rng, 50, cond=500.0)
    F = rng.normal(size=50)
    x, stats = cg_solve(A, F, rel_tol=1e-13)
    dense = np.linalg.solve(A.toarray(), F)
    assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)
    assert stats.relative_residual <= 1e-13


def test_zero_rhs_and_empty_system():
    A = sp.csr_array(np.eye(3))
    x, stats = cg_solve(A, np.zeros(3))
    assert np.array_equal(x, np.zeros(3))
    assert stats.iterations == 0
    empty = sp.csr_array((0, 0))
    x, stats = cg_solve(empty, np.zeros(0))
    assert x.shape == (0,)


def test_max_iter_failure_carries_stats():
    rng = np.random.default_rng(1)
    A, _, _ = random_spd(rng, 40, cond=1e6)
    F = rng.normal(size=40)
    with pytest.raises(SolverError) as err:
        cg_solve(A, F, rel_tol=1e-14, max_iter=3, jacobi_precondition=False)
    assert err.value.stats.iterations == 3
    assert err.value.stats.relative_residual > 1e-14
    assert err.value.x.shape == (40,)


def test_energy_error_monotone():
    rng = np.random.default_rng(2)
    A, _, _ = random_spd(rng, 30, cond=1e4)
    F = rng.normal(size=30)
    dense = np.linalg.solve(A.toarray(), F)
    Ad = A.toarray()
    history = []
    cg_solve(A, F, rel_tol=1e-12, callback=lambda xk: history.append(xk))
    energies = [float((dense - xk) @ Ad @ (dense - xk)) for xk in history]
    for prev, cur in zip(energies, energies[1:]):
        assert cur <= prev * (1.0 + 1e-10) + 1e-300


def test_jacobi_changes_iterations_not_solution():
    rng = np.random.default_rng(3)
    n = 60
    # strongly varying diagonal makes Jacobi matter
    d = np.geomspace(1.0, 1e4, n)
    B = rng.normal(size=(n, n)) * 0.05
    M = np.diag(d) + B @ B.T
    A = sp.csr_array(M)
    F = rng.normal(size=n)
    tol = 1e-12
    x1, s1 = cg_solve(A, F, rel_tol=tol, jacobi_precondition=True)
    x2, s2 = cg_solve(A, F, rel_tol=tol, jacobi_precondition=False)
    assert s1.iterations != s2.iterations
    scale = np.linalg.norm(x1)
    assert np.linalg.norm(x1 - x2) <= 10 * tol * max(scale, 1.0)


def test_singular_consistent_system():
    rng = np.random.default_rng(4)
    n = 25
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.concatenate([[0.0], np.geomspace(1.0, 100.0, n - 1)])
    A = sp.csr_array(q @ np.diag(w) @ q.T)
    x_true = q[:, 1:] @ rng.normal(size=n - 1)   # in range(A)
    F = A @ x_true
    x, stats = cg_solve(A, F, rel_tol=1e-12)
    assert np.linalg.norm(A @ x - F) <= 1e-11 * np.linalg.norm(F)


def test_condition_diag():
    A = sp.csr_array(np.diag([2.0, 8.0]))
    est = estimate_condition(A)
    assert est.condition == pytest.approx(4.0, rel=0.01)


def test_condition_identity():
    A = sp.csr_array(np.eye(12))
    est = estimate_condition(A)
    assert est.condition == pytest.approx(1.0, rel=0.01)


def test_condition_against_dense_oracle():
    rng = np.random.default_rng(5)
    A, _, w = random_spd(rng, 30, cond=300.0)
    est = estimate_condition(A)
    ew = np.linalg.eigvalsh(A.toarray())
    assert est.lambda_max == pytest.approx(ew[-1], rel=0.02)
    assert est.lambda_min_nonzero == pytest.approx(ew[0], rel=0.02)
    assert est.condition == pytest.approx(ew[-1] / ew[0], rel=0.04)


def test_condition_skips_null_space():
    rng = np.random.default_rng(6)
    n = 20
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.concatenate([[0.0], np.geomspace(0.5, 50.0, n - 1)])
    A = sp.csr_array(q @ np.diag(w) @ q.T)
    est = estimate_condition(A)
    # the zero eigenvalue must not be reported as lambda_min: the iteration
    # starts in range(A), and unpreconditioned CG keeps its iterates there
    assert est.lambda_min_nonzero == pytest.approx(0.5, rel=0.02)
    assert est.null_dim <= 1


def _sine_matrix(family, k, level):
    return assemble_system(build_space(build_crisscross_mesh(level), family, k),
                           PROBLEMS["sine"].f).A


def test_condition_nearly_singular_p2nc_std():
    # no eigenvalue of the standard nonconforming baseline is zero, but the
    # smallest one falls by about 60x per level (8.0e-9 at level 4)
    A = _sine_matrix("p2nc_std", None, 4)
    est = estimate_condition(A)
    ew = np.linalg.eigvalsh(A.toarray())
    assert est.converged
    assert est.lambda_min_nonzero == pytest.approx(ew[0], rel=0.02)
    assert est.lambda_max == pytest.approx(ew[-1], rel=0.02)
    # dense eigvalsh gives kappa = 8.38e10 at level 5
    est = estimate_condition(_sine_matrix("p2nc_std", None, 5))
    assert est.converged
    assert 5e10 < est.condition < 2e11


def test_interpolated_family_better_conditioned():
    # the abstract's claim: interpolating the interior values gives a better
    # condition number than the Lagrange element of the same degree
    pairs = [(("p2c_interp", None), ("pk_lagrange", 2)),
             (("p3_interp", None), ("pk_lagrange", 3)),
             (("pk_interp", 4), ("pk_lagrange", 4)),
             (("pk_interp", 5), ("pk_lagrange", 5))]
    for interp, lagrange in pairs:
        kappa = []
        for family, k in (interp, lagrange):
            A = _sine_matrix(family, k, 2)
            est = estimate_condition(A)
            ew = np.linalg.eigvalsh(A.toarray())
            assert est.converged, (family, k)
            assert est.lambda_max == pytest.approx(ew[-1], rel=0.02), (family, k)
            assert est.lambda_min_nonzero == pytest.approx(ew[0], rel=0.02), (family, k)
            assert est.condition == pytest.approx(ew[-1] / ew[0], rel=0.02), (family, k)
            kappa.append(est.condition)
        assert kappa[0] < kappa[1], (interp, lagrange, kappa)


def test_csr_from_coo_sums_duplicates():
    # assemble_system builds A this way from COO entries with repeated
    # (row, col) pairs, and relies on tocsr() to sum them and sort indices
    A = sp.coo_array(([2.0, 3.0, 4.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2)).tocsr()
    dense = A.toarray()
    assert dense[0, 1] == 5.0 and dense[1, 0] == 4.0
    assert A.nnz == 2
    assert A.has_canonical_format
