"""Symmetric sparse linear algebra: preconditioned CG and extreme-eigenvalue
estimation for condition reporting.

The assembled systems are symmetric positive definite; the standard
nonconforming baseline is nearly singular (smallest eigenvalue about 1e-10
at level 5), which plain inverse iteration resolves.
"""

from __future__ import annotations

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


class SolverError(RuntimeError):
    """CG failed to reach the requested tolerance; carries stats and the best iterate."""

    def __init__(self, message, stats: SolveStats, x: np.ndarray):
        super().__init__(message)
        self.stats = stats
        self.x = x


def cg_solve(A: sp.csr_array, F: np.ndarray, rel_tol: float = 1e-13,
             max_iter: int | None = None, jacobi_precondition: bool = True,
             callback=None) -> tuple[np.ndarray, SolveStats]:
    """Conjugate gradients from a zero initial guess.

    Stops when ||A x - F|| <= rel_tol * ||F||.  Raises SolverError when
    max_iter (default 20 n) is exhausted first.
    """
    n = A.shape[0]
    F = np.asarray(F, dtype=float)
    if n == 0:
        return np.zeros(0), SolveStats(0, 0.0)
    if max_iter is None:
        max_iter = max(20 * n, 50)

    norm_f = np.linalg.norm(F)
    if norm_f == 0.0:
        return np.zeros(n), SolveStats(0, 0.0)

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
    min_res, best_x, best_it = np.inf, x.copy(), 0
    stall_window = max(200, n // 4)

    def fail(it, why):
        stats = SolveStats(it, min_res)
        raise SolverError(
            f"CG did not reach rel_tol={rel_tol:g} in {it} iterations "
            f"({why}, best residual {min_res:.3e})", stats, best_x)

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
            return x, SolveStats(it, res)
        if res < min_res:
            min_res, best_it = res, it
            best_x = x.copy()
        elif res > 1e4 * max(min_res, rel_tol):
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
    # never set; kept only because perfbench/sweep.py reads it
    null_dim: int = 0


def _power_iteration(A: sp.csr_array, rng, tol=1e-8, max_iter=20000):
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(max_iter):
        w = A @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, True
        v = w / nw
        rho_new = v @ (A @ v)
        if abs(rho_new - rho) <= tol * max(abs(rho_new), 1e-300):
            return rho_new, True
        rho = rho_new
    return rho, False


def estimate_condition(A: sp.csr_array, seed: int = 0) -> ConditionEstimate:
    """Extreme-eigenvalue estimates of a symmetric positive definite matrix.

    Power iteration for the largest eigenvalue; inverse iteration, with CG
    applying A^-1, for the smallest.  Each stops when its Rayleigh quotient
    settles; a smallest eigenvalue that does not settle in 400 steps is
    reported as NaN.
    """
    if A.shape[0] == 0:
        raise ValueError("cannot estimate the condition of an empty matrix")
    rng = np.random.default_rng(seed)
    lam_max, ok_max = _power_iteration(A, rng)
    # A @ random lies in range(A), and unpreconditioned CG keeps its Krylov
    # iterates there, so a null direction of a singular A is never amplified
    v = A @ rng.standard_normal(A.shape[0])
    v = v / np.linalg.norm(v)
    lam_min = rho = np.nan
    for _ in range(400):
        try:
            y, _ = cg_solve(A, v, rel_tol=1e-9, max_iter=max(30 * A.shape[0], 300),
                            jacobi_precondition=False)
        except SolverError as err:
            # the best iterate is still an inexact application of A^-1
            y = err.x
        v = y / np.linalg.norm(y)
        rho_new = v @ (A @ v)
        if abs(rho_new - rho) <= 1e-7 * rho_new:
            lam_min = rho_new
            break
        rho = rho_new
    return ConditionEstimate(lambda_max=float(lam_max),
                             lambda_min_nonzero=float(lam_min),
                             condition=float(lam_max / lam_min),
                             converged=bool(ok_max and np.isfinite(lam_min)))
