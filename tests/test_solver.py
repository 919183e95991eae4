import functools
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import igfem.solver
from igfem.assembly import assemble_system, build_space
from igfem.cli import PROBLEMS, ExperimentConfig, run_experiment
from igfem.mesh import build_crisscross_mesh
from igfem.solver import (SolveStats, SolverError, _lanczos_max, _top_ritz, cg_solve,
                          estimate_condition)


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
    # the reported residual is the true one, not CG's recursively updated one
    assert stats.relative_residual == np.linalg.norm(F - A @ x) / np.linalg.norm(F)
    assert stats.relative_residual <= 1e-13


def test_zero_rhs_and_empty_system():
    A = sp.csr_array(np.eye(3))
    x, stats = cg_solve(A, np.zeros(3))
    assert np.array_equal(x, np.zeros(3))
    assert stats.iterations == 0
    empty = sp.csr_array((0, 0))
    x, stats = cg_solve(empty, np.zeros(0))
    assert x.shape == (0,)
    assert stats == SolveStats(0, 0.0)


def test_max_iter_failure_carries_stats():
    rng = np.random.default_rng(1)
    A, _, _ = random_spd(rng, 40, cond=1e6)
    F = rng.normal(size=40)
    with pytest.raises(SolverError) as err:
        cg_solve(A, F, rel_tol=1e-14, max_iter=3)
    assert err.value.stats.iterations == 3
    assert err.value.stats.relative_residual > 1e-14


def test_energy_error_monotone():
    rng = np.random.default_rng(2)
    A, _, _ = random_spd(rng, 30, cond=1e4)
    F = rng.normal(size=30)
    dense = np.linalg.solve(A.toarray(), F)
    Ad = A.toarray()
    # CG from zero takes the same steps at every tolerance, so tightening
    # rel_tol, four steps per decade, walks along one sequence of iterates
    runs = [cg_solve(A, F, rel_tol=tol) for tol in np.geomspace(1e-1, 1e-12, 45)]
    iters = [stats.iterations for _, stats in runs]
    assert iters == sorted(iters) and len(set(iters)) >= 15
    energies = [float((dense - xk) @ Ad @ (dense - xk)) for xk, _ in runs]
    for prev, cur in zip(energies, energies[1:]):
        assert cur <= prev * (1.0 + 1e-10) + 1e-300


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


@pytest.mark.parametrize("seed", range(6, 12))
@pytest.mark.parametrize("null_dim", [1, 2])
def test_singular_matrix_not_reported_converged(seed, null_dim):
    # estimate_condition is for SPD matrices: preconditioned CG does not keep
    # its iterates in range(A), so a null direction is amplified, the next
    # solve fails, and the estimate must say so rather than print a number
    rng = np.random.default_rng(seed)
    n = 20
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = np.concatenate([np.zeros(null_dim), np.geomspace(0.5, 50.0, n - null_dim)])
    A = sp.csr_array(q @ np.diag(w) @ q.T)
    est = estimate_condition(A)
    assert not est.converged
    assert np.isnan(est.lambda_min_nonzero) and np.isnan(est.condition)
    assert est.lambda_max == pytest.approx(50.0, rel=1e-6)


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


def test_condition_cost_and_accuracy_p2nc_std(monkeypatch):
    # the inverse-iteration solves are Jacobi-scaled: the diagonal of this
    # matrix spans 6.4e-7..5.3, and unpreconditioned CG took 10,518 iterations.
    # They run on the Schur complement of the bubbles: 349 iterations, where
    # CG on A itself took 946
    A = _sine_matrix("p2nc_std", None, 4)
    calls = []

    def counting_cg(*args, **kwargs):
        x, stats = cg_solve(*args, **kwargs)
        calls.append(stats.iterations)
        return x, stats

    monkeypatch.setattr(igfem.solver, "cg_solve", counting_cg)
    est = estimate_condition(A)
    assert est.converged
    assert 0 < sum(calls) < 500, calls
    ew = np.linalg.eigvalsh(A.toarray())
    assert est.lambda_min_nonzero == pytest.approx(ew[0], rel=1e-5)
    assert est.lambda_max == pytest.approx(ew[-1], rel=1e-5)


@functools.cache
def _dense_eigenvalues(family, k, level):
    return np.linalg.eigvalsh(_sine_matrix(family, k, level).toarray())


@pytest.mark.parametrize("problem", ["sine", "poly4"])
@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("family,k", [("p2nc_interp", None), ("p2nc_std", None),
                                      ("p3_interp", None), ("pk_lagrange", 3),
                                      ("p2c_interp", None)])
def test_condition_started_at_the_cg_solution(monkeypatch, family, k, level, problem):
    # the CLI starts inverse iteration at its CG solution x = A^-1 F, which
    # lies mostly along the lowest eigenvector: the estimate keeps the dense
    # eigenvalues and takes no more inner CG iterations than the random start
    system = assemble_system(build_space(build_crisscross_mesh(level), family, k),
                             PROBLEMS[problem].f)
    A = system.A
    x, _ = cg_solve(A, system.F)
    calls = []

    def counting_cg(*args, **kwargs):
        x, stats = cg_solve(*args, **kwargs)
        calls.append(stats.iterations)
        return x, stats

    monkeypatch.setattr(igfem.solver, "cg_solve", counting_cg)
    est = estimate_condition(A, x)
    from_x = sum(calls)
    calls.clear()
    estimate_condition(A)
    assert est.converged
    assert from_x <= sum(calls)
    ew = _dense_eigenvalues(family, k, level)
    rel = 1e-5 if (family, level) == ("p2nc_std", 4) else 1e-6
    assert est.lambda_min_nonzero == pytest.approx(ew[0], rel=rel)
    assert est.lambda_max == pytest.approx(ew[-1], rel=rel)


def test_condition_zero_start_is_the_random_start():
    # a zero load gives x = 0; the estimate then starts as if given no vector,
    # while another start moves the digits past the 1e-7 stop
    A = _sine_matrix("p2nc_std", None, 3)
    random = estimate_condition(A)
    assert estimate_condition(A, np.zeros(A.shape[0])) == random
    assert estimate_condition(A, np.ones(A.shape[0])) != random


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


class _CountingMatrix:
    def __init__(self, A):
        self.A, self.shape, self.matvecs = A, A.shape, 0

    def __matmul__(self, v):
        self.matvecs += 1
        return self.A @ v


@pytest.mark.parametrize("coupling", [1e-6, 1e-3, 1.0, 10.0])
def test_top_ritz_matches_dense_eigh(coupling):
    # weak couplings give top eigenvectors whose first or last components
    # underflow, where back substitution from one end alone goes wrong
    rng = np.random.default_rng(13)
    for j in [1, 2, 3] + list(rng.integers(4, 120, size=40)):
        alpha = list(3.0 * rng.normal(size=j))
        beta = list(coupling * rng.random(j - 1) + 1e-12)
        theta, u_last = _top_ritz(alpha, beta)
        ew, ev = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        assert abs(theta - ew[-1]) <= 1e-14 * np.abs(ew).max()
        if j == 1 or ew[-1] - ew[-2] > 1e-8:      # else the eigenvector is ill-posed
            assert abs(u_last - abs(ev[-1, -1])) <= 1e-9, (j, u_last, ev[-1, -1])


@pytest.mark.parametrize("family,level", [(f, lv) for f in ("p2nc_interp", "p2nc_std")
                                          for lv in (2, 3, 4)] + [("p3_interp", 3)])
def test_lanczos_finds_lambda_max_in_few_products(family, level):
    # 15-140 products suffice here; the bound guards the cost of the stop test
    A = _sine_matrix(family, None, level)
    counting = _CountingMatrix(A)
    lam, ok = _lanczos_max(counting, np.random.default_rng(0).standard_normal(A.shape[0]))
    assert ok
    assert abs(lam - np.linalg.eigvalsh(A.toarray())[-1]) <= 1e-12 * lam
    assert counting.matvecs <= 150


@pytest.mark.parametrize("family", ["p2nc_std", "p2nc_interp"])
def test_condition_ends_on_a_tight_solve(monkeypatch, family):
    # the early inverse-iteration solves are loose; the estimate must report
    # A's Rayleigh quotient at the iterate of a solve at the final 1e-9, also
    # where CG runs on the Schur complement of p2nc_std's bubbles, not on A
    A = _sine_matrix(family, None, 4)
    tols, iterates = [], []
    inverse = igfem.solver._inverse

    def recording_cg(M, v, rel_tol, **kwargs):
        tols.append(rel_tol)
        return cg_solve(M, v, rel_tol=rel_tol, **kwargs)

    def recording_inverse(M):
        solve = inverse(M)

        def recording_solve(v, rel_tol):
            iterates.append(solve(v, rel_tol))
            return iterates[-1]
        return recording_solve

    monkeypatch.setattr(igfem.solver, "cg_solve", recording_cg)
    monkeypatch.setattr(igfem.solver, "_inverse", recording_inverse)
    est = estimate_condition(A)
    assert est.converged
    assert len(tols) == len(iterates)
    assert tols[0] > 1e-9          # the first solve is loose
    assert tols[-1] == 1e-9
    assert all(tol >= later for tol, later in zip(tols, tols[1:]))
    y = iterates[-1] / np.linalg.norm(iterates[-1])
    assert est.lambda_min_nonzero == y @ (A @ y)


@pytest.mark.parametrize("family,k,condensed", [
    ("p2nc_std", None, True), ("pk_lagrange", 3, True),
    ("p2nc_interp", None, False), ("p3_interp", None, False), ("pk_interp", 4, False),
    ("pk_lagrange", 2, False), ("pk_lagrange", 4, False)])
def test_condition_solves_on_the_schur_complement_of_the_diagonal_block(
        monkeypatch, family, k, condensed):
    # p2nc_std's bubbles and pk_lagrange k=3's centroid nodes are one
    # uncoupled unknown per triangle, numbered last; every other family's
    # trailing diagonal block is a single row, and CG runs on A itself
    mesh = build_crisscross_mesh(3)
    A = assemble_system(build_space(mesh, family, k), PROBLEMS["sine"].f).A
    matrices = []

    def recording_cg(M, v, **kwargs):
        matrices.append(M)
        return cg_solve(M, v, **kwargs)

    monkeypatch.setattr(igfem.solver, "cg_solve", recording_cg)
    est = estimate_condition(A)
    assert est.converged and matrices
    if condensed:
        m = A.shape[0] - len(mesh.triangles)
        assert all(M.shape == (m, m) for M in matrices)
    else:
        assert all(M is A for M in matrices)
    assert est.lambda_min_nonzero == pytest.approx(np.linalg.eigvalsh(A.toarray())[0],
                                                   rel=1e-6)


@pytest.mark.parametrize("family,k,levels,compare", [
    ("p2nc_interp", None, (2, 3, 4, 5), True), ("pk_lagrange", 3, (2, 3, 4), False)])
def test_condition_solves_finish_well_inside_the_default_budget(monkeypatch, family, k,
                                                                 levels, compare):
    # the inverse iteration's solves, on A or on its Schur complement, share
    # the level solve's budget max(20 n, 50); each takes a small part of it
    shares = []

    def recording_cg(M, v, **kwargs):
        x, stats = cg_solve(M, v, **kwargs)
        shares.append(stats.iterations / max(20 * M.shape[0], 50))
        return x, stats

    monkeypatch.setattr(igfem.solver, "cg_solve", recording_cg)
    report = run_experiment(ExperimentConfig(family=family, degree=k, levels=levels,
                                             compare=compare, condition=True))
    assert not report.failures and shares
    assert all(math.isfinite(r["cond_est"])
               for r in report.rows + (report.baseline_rows or []))
    assert max(shares) <= 0.1


def test_condition_nonpositive_trailing_diagonal_not_converged():
    # diag([0, 1, 2]) is its own trailing diagonal block; its zero means A is
    # not SPD, and the estimate ends as a failed CG solve does, with no divide
    A = sp.csr_array(np.diag([0.0, 1.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_condition(A)
    assert not est.converged
    assert np.isnan(est.lambda_min_nonzero) and np.isnan(est.condition)
    assert est.lambda_max == pytest.approx(2.0, rel=1e-12)


def test_csr_from_coo_sums_duplicates():
    # tocsr() sums repeated (row, col) pairs and sorts the indices; the
    # assembly tests keep it as the reference for A.  assemble_system lays
    # out the unsummed CSR rows itself and sums them with sum_duplicates(), a
    # block of rows at a time, and int32 indices stay int32.
    for dtype in (np.int64, np.int32):
        rows, cols = np.array([0, 0, 1], dtype=dtype), np.array([1, 1, 0], dtype=dtype)
        A = sp.coo_array(([2.0, 3.0, 4.0], (rows, cols)), shape=(2, 2)).tocsr()
        dense = A.toarray()
        assert dense[0, 1] == 5.0 and dense[1, 0] == 4.0
        assert A.nnz == 2
        assert A.has_canonical_format
        if dtype == np.int32:
            assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32
        B = sp.csr_array(([2.0, 3.0, 4.0], cols, np.array([0, 2, 3], dtype=dtype)),
                         shape=(2, 2))
        B.sum_duplicates()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(B, name), getattr(A, name))
            assert getattr(B, name).dtype == getattr(A, name).dtype
