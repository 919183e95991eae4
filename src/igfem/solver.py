"""Symmetric sparse linear algebra: preconditioned CG and extreme-eigenvalue
estimation for condition reporting.

The assembled systems are symmetric positive semidefinite with consistent
right-hand sides; CG handles the (nullity <= 1) semidefinite case of the
standard nonconforming baseline without modification, and the eigenvalue
estimator deflates a detected null vector before inverse iteration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SolveStats",
    "SolverError",
    "ConditionEstimate",
    "cg_solve",
    "estimate_condition",
]


@dataclass
class SolveStats:
    iterations: int
    relative_residual: float
    wall_time: float


class SolverError(RuntimeError):
    """CG failed to reach the requested tolerance; carries stats and iterate."""

    def __init__(self, message, stats: SolveStats, x: np.ndarray, residual: np.ndarray):
        super().__init__(message)
        self.stats = stats
        self.x = x
        self.residual = residual


def cg_solve(A: sp.csr_array, F: np.ndarray, rel_tol: float = 1e-13,
             max_iter: int | None = None, jacobi_precondition: bool = True,
             callback=None) -> tuple[np.ndarray, SolveStats]:
    """Conjugate gradients from a zero initial guess.

    Stops when ||A x - F|| <= rel_tol * ||F||.  Raises SolverError when
    max_iter (default 20 n) is exhausted first.
    """
    t0 = time.perf_counter()
    n = A.shape[0]
    F = np.asarray(F, dtype=float)
    if n == 0:
        return np.zeros(0), SolveStats(0, 0.0, time.perf_counter() - t0)
    if max_iter is None:
        max_iter = max(20 * n, 50)

    norm_f = np.linalg.norm(F)
    if norm_f == 0.0:
        return np.zeros(n), SolveStats(0, 0.0, time.perf_counter() - t0)

    if jacobi_precondition:
        d = A.diagonal().copy()
        d[d <= 0.0] = 1.0
        inv_d = 1.0 / d
    else:
        inv_d = None

    x = np.zeros(n)
    r = F.copy()
    z = r * inv_d if inv_d is not None else r
    p = z.copy()
    rz = r @ z
    best_res, best_x, best_r, best_it = np.inf, x.copy(), r.copy(), 0
    stall_window = max(200, n // 4)

    def fail(it, why):
        stats = SolveStats(it, best_res, time.perf_counter() - t0)
        raise SolverError(
            f"CG did not reach rel_tol={rel_tol:g} in {it} iterations "
            f"({why}, best residual {best_res:.3e})", stats, best_x, best_r)

    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            # numerically null search direction of a semidefinite matrix
            fail(it, "nonpositive curvature")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if callback is not None:
            callback(x.copy())
        res = np.linalg.norm(r) / norm_f
        if res <= rel_tol:
            return x, SolveStats(it, res, time.perf_counter() - t0)
        if res < best_res:
            best_res, best_it = res, it
            best_x, best_r = x.copy(), r.copy()
        elif res > 1e4 * max(best_res, rel_tol):
            fail(it, "divergence")   # inconsistent RHS blows CG up
        elif it - best_it >= stall_window:
            fail(it, "stagnation")   # residual floored above the tolerance
        z = r * inv_d if inv_d is not None else r
        rz_new = r @ z
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    fail(max_iter, "iteration limit")


@dataclass
class ConditionEstimate:
    lambda_max: float
    lambda_min_nonzero: float
    condition: float
    converged: bool
    null_dim: int = 0


def _power_iteration(A: sp.csr_array, rng, tol=1e-8, max_iter=20000):
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    rho = 0.0
    converged = False
    for _ in range(max_iter):
        w = A @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, v, True
        v_new = w / nw
        rho_new = v_new @ (A @ v_new)
        if abs(rho_new - rho) <= tol * max(abs(rho_new), 1e-300):
            rho = rho_new
            v = v_new
            converged = True
            break
        rho, v = rho_new, v_new
    return rho, v, converged


def estimate_condition(A: sp.csr_array, seed: int = 0) -> ConditionEstimate:
    """Extreme-eigenvalue estimates of a symmetric PSD matrix.

    Power iteration for the largest eigenvalue; CG-based inverse iteration
    for the smallest nonzero one, deflating a null vector if CG stagnation
    reveals one.  Targets about 1% relative accuracy.
    """
    if A.shape[0] == 0:
        raise ValueError("cannot estimate the condition of an empty matrix")
    rng = np.random.default_rng(seed)
    lam_max, _, ok_max = _power_iteration(A, rng)
    if A.shape[0] == 1:
        lam = float(A.toarray()[0, 0])
        return ConditionEstimate(lam, lam, 1.0, True)

    null_vecs: list[np.ndarray] = []

    def deflate(v):
        for q in null_vecs:
            v = v - (q @ v) * q
        return v

    def range_start():
        # A @ random lies in range(A), so inverse iteration never needs the
        # (possibly absent) null-space component solved
        v = deflate(A @ rng.standard_normal(A.shape[0]))
        nv = np.linalg.norm(v)
        return v / nv if nv > 0 else None

    def found_null(cand) -> bool:
        if not np.all(np.isfinite(cand)):
            return False
        cand = deflate(cand)
        nc = np.linalg.norm(cand)
        if nc == 0.0 or len(null_vecs) >= 3:
            return False
        cand = cand / nc
        if np.linalg.norm(A @ cand) <= 1e-6 * max(lam_max, 1.0):
            null_vecs.append(cand)
            return True
        return False

    v = range_start()
    lam_min = np.nan
    ok_min = False
    strikes = 0
    for _ in range(400):
        if v is None or strikes > 5:
            break
        try:
            # unpreconditioned: Krylov iterates then stay in range(A), so a
            # singular matrix cannot leak null content into the iteration
            y, _ = cg_solve(A, v, rel_tol=1e-9, max_iter=max(30 * A.shape[0], 300),
                            jacobi_precondition=False)
        except SolverError as err:
            if err.stats.relative_residual <= 1e-5 and np.all(np.isfinite(err.x)):
                # mild floor stall: the partial iterate is still a usable
                # inexact inverse application
                y = err.x
            else:
                # divergence: the residual of an inconsistent solve points
                # along the null component, so try to harvest it
                if not (found_null(err.residual) or found_null(err.x)):
                    strikes += 1
                v = range_start()
                lam_min = np.nan
                continue
        y = deflate(y)
        ny = np.linalg.norm(y)
        if ny == 0.0 or not np.isfinite(ny):
            strikes += 1
            v = range_start()
            lam_min = np.nan
            continue
        v_new = y / ny
        lam_new = v_new @ (A @ v_new)
        if lam_new <= 1e-9 * lam_max:
            # iterate collapsed into the (noisy) null space
            if not found_null(v_new):
                strikes += 1
            v = range_start()
            lam_min = np.nan
            continue
        if np.isfinite(lam_min) and abs(lam_new - lam_min) <= 1e-7 * lam_new:
            lam_min = lam_new
            ok_min = True
            break
        lam_min, v = lam_new, v_new
    cond = lam_max / lam_min if lam_min and np.isfinite(lam_min) else np.nan
    return ConditionEstimate(lambda_max=float(lam_max),
                             lambda_min_nonzero=float(lam_min),
                             condition=float(cond),
                             converged=bool(ok_max and ok_min),
                             null_dim=len(null_vecs))
