"""Symmetric sparse linear algebra: preconditioned CG and extreme-eigenvalue
estimation for condition reporting.

The assembled systems are symmetric positive definite; the standard
nonconforming baseline is nearly singular (smallest eigenvalue about 1e-10
at level 5, diagonal from 4e-8 to 5), which inverse iteration with
Jacobi-preconditioned CG resolves.  The largest eigenvalue comes from a
plain Lanczos run (Kuczynski and Wozniakowski, SIAM J. Matrix Anal. Appl.
13, 1992), the smallest from inexact inverse iteration whose solves tighten
as the Rayleigh quotient settles (Golub and Ye, BIT 40, 2000).
"""

from __future__ import annotations

import math
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
    """CG failed to reach the requested tolerance; carries its stats."""

    def __init__(self, message, stats: SolveStats):
        super().__init__(message)
        self.stats = stats


def cg_solve(A: sp.csr_array, F: np.ndarray, rel_tol: float = 1e-13,
             max_iter: int | None = None) -> tuple[np.ndarray, SolveStats]:
    """Jacobi-preconditioned conjugate gradients from a zero initial guess.

    Stops when the recursively updated residual r satisfies ||r|| <= rel_tol
    * ||F||, and then reports the true relative residual ||F - A x|| / ||F||,
    at the cost of one more matrix-vector product; near the rounding floor
    the two differ.  Raises SolverError, whose stats carry the smallest
    recursive residual, when max_iter (default max(20 n, 50)) is exhausted
    first, on a nonpositive curvature p.Ap <= 0, or on stagnation: no new
    least residual in max(200, n // 4) iterations.
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

    d = A.diagonal().copy()
    d[d <= 0.0] = 1.0
    inv_d = 1.0 / d

    x = np.zeros(n)
    r = F.copy()
    z = r * inv_d
    p = z.copy()
    rz = r @ z
    min_res, best_it = np.inf, 0
    stall_window = max(200, n // 4)

    def fail(it, why):
        stats = SolveStats(it, min_res)
        raise SolverError(
            f"CG did not reach rel_tol={rel_tol:g} in {it} iterations "
            f"({why}, best residual {min_res:.3e})", stats)

    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            # numerically null search direction of a semidefinite matrix
            fail(it, "nonpositive curvature")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r) / norm_f
        if res <= rel_tol:
            return x, SolveStats(it, np.linalg.norm(F - A @ x) / norm_f)
        if res < min_res:
            min_res, best_it = res, it
        elif it - best_it >= stall_window:
            fail(it, "stagnation")   # residual floored above the tolerance
        z = r * inv_d
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


def _top_ritz(alpha: list, beta: list) -> tuple[float, float]:
    """Largest eigenvalue theta of the symmetric tridiagonal T with diagonal
    alpha and positive off-diagonal beta, and |u_last| of its unit eigenvector.

    theta comes from Sturm-count bisection, u from a twisted factorization of
    T - theta I (Parlett and Dhillon, Linear Algebra Appl. 267, 1997), both in
    O(j) memory: a dense eigh of a 200 x 200 T raises a sweep's peak RSS by
    about 1.5 MB.
    """
    j, tiny = len(alpha), 1e-300
    b2 = [0.0] + [b * b for b in beta] + [0.0]
    r = 2.0 * max(beta, default=0.0)
    lo, hi = min(alpha) - r, max(alpha) + r          # Gershgorin bounds
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        d, below = 1.0, 0
        for a, c in zip(alpha, b2):
            d = a - mid - c / (d or tiny)
            below += d < 0.0
        if below == j:
            hi = mid
        else:
            lo = mid
    theta = hi
    # pivots of T - theta I = L D L^T from the top and U D U^T from the bottom
    top, d = [], 1.0
    for a, c in zip(alpha, b2):
        d = a - theta - c / (d or tiny)
        top.append(d or tiny)
    bottom, d = [0.0] * j, 1.0
    for i in range(j - 1, -1, -1):
        d = alpha[i] - theta - b2[i + 1] / (d or tiny)
        bottom[i] = d or tiny
    # twist where |gamma_k| = |top_k + bottom_k - (alpha_k - theta)| is least
    k = min(range(j), key=lambda i: abs(top[i] + bottom[i] - alpha[i] + theta))
    u = [0.0] * j
    u[k] = 1.0
    for i in range(k - 1, -1, -1):
        u[i] = -beta[i] * u[i + 1] / top[i]
    for i in range(k + 1, j):
        u[i] = -beta[i - 1] * u[i - 1] / bottom[i]
    return theta, abs(u[-1]) / math.sqrt(sum(x * x for x in u))


def _lanczos_max(A: sp.csr_array, v: np.ndarray, tol: float = 1e-10) -> tuple[float, bool]:
    """Largest eigenvalue of a symmetric A by three-term Lanczos from v.

    No reorthogonalization: lost orthogonality only repeats Ritz values that
    have already converged.  The top Ritz pair of the tridiagonal T_j is
    checked every few steps, at gaps that grow with j so that the checks stay
    a fixed share of the run, and on beta = 0 or at step n; the run stops
    when its residual norm beta_j |u_j| is at most tol * theta.
    """
    n = A.shape[0]
    q = v / np.linalg.norm(v)
    q_prev = np.zeros(n)
    alpha, beta = [], []
    b, check = 0.0, 5
    for j in range(1, n + 1):
        w = A @ q
        a = float(q @ w)
        w -= a * q
        w -= b * q_prev
        alpha.append(a)
        b = float(np.linalg.norm(w))
        if b == 0.0 or j == n or j == check:
            check = j + max(5, j // 4)
            theta, u_last = _top_ritz(alpha, beta)
            ok = b * u_last <= tol * abs(theta)
            if ok or j == n:
                return theta, ok
        beta.append(b)
        q_prev, q = q, w / b


def estimate_condition(A: sp.csr_array) -> ConditionEstimate:
    """Extreme-eigenvalue estimates of a symmetric positive definite matrix.

    Lanczos for the largest eigenvalue; inverse iteration, with
    Jacobi-preconditioned CG applying A^-1, for the smallest.  The first
    solves are loose (rel_tol 1e-3) and tighten to max(1e-9, 1e-2 |drho|/rho)
    as the Rayleigh quotient rho settles; the iteration stops when rho
    changes by at most 1e-7 relative on a step solved at 1e-9.  The smallest
    eigenvalue is reported as NaN (and the estimate as not converged) when it
    does not settle in 400 steps, or when a CG solve fails: such a step does
    not apply A^-1.  A singular A ends that way, since preconditioned CG does
    not keep its iterates in range(A) and the system of the next step is
    inconsistent.
    """
    n = A.shape[0]
    if n == 0:
        raise ValueError("cannot estimate the condition of an empty matrix")
    rng = np.random.default_rng(0)
    lam_max, ok_max = _lanczos_max(A, rng.standard_normal(n))
    v = A @ rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    lam_min, rho, rel_tol = np.nan, np.inf, 1e-3
    for _ in range(400):
        try:
            y, _ = cg_solve(A, v, rel_tol=rel_tol, max_iter=max(30 * n, 300))
        except SolverError:
            break
        v = y / np.linalg.norm(y)
        rho_new = v @ (A @ v)
        change = abs(rho_new - rho)
        if rel_tol == 1e-9 and change <= 1e-7 * rho_new:
            lam_min = rho_new
            break
        rel_tol = max(1e-9, min(rel_tol, 1e-2 * change / rho_new))
        rho = rho_new
    return ConditionEstimate(lambda_max=float(lam_max),
                             lambda_min_nonzero=float(lam_min),
                             condition=float(lam_max / lam_min),
                             converged=bool(ok_max and np.isfinite(lam_min)))
