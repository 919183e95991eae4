"""Symmetric sparse linear algebra: preconditioned CG and extreme-eigenvalue
estimation for condition reporting.

The assembled systems are symmetric positive definite; the standard
nonconforming baseline is nearly singular (smallest eigenvalue about 1e-10
at level 5, diagonal from 4e-8 to 5).  Its bubbles are one uncoupled unknown
per triangle, numbered last, so inverse iteration eliminates them and runs
Jacobi-preconditioned CG on the Schur complement, which is the interpolated
family's matrix, with its condition (852 against 8.4e10 at level 5).  The
largest eigenvalue comes from a plain Lanczos run (Kuczynski and
Wozniakowski, SIAM J. Matrix Anal. Appl. 13, 1992), the smallest from
inexact inverse iteration whose solves tighten as the Rayleigh quotient
settles (Golub and Ye, BIT 40, 2000).  Inverse iteration gains a factor
lambda_1 / lambda_2 per step from wherever it starts, so the caller may
start it at a vector close to the lowest eigenvector: the CLI passes the
level's CG solution A^-1 F, one inverse-iteration step past a smooth,
positive load, whose lowest-mode share |<e_1, x>| / ||x|| reads 0.86-1.00
on every family and problem.  The start must not be orthogonal to e_1, or
the iteration converges to a higher eigenvalue.
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


def _trailing_diagonal(A: sp.csr_array) -> int:
    """Least m with A[m:, m:] diagonal: one more than the largest min(i, j)
    over A's stored off-diagonal entries (i, j)."""
    rows = np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))
    low = np.minimum(rows, A.indices)[rows != A.indices]
    return int(low.max(initial=-1)) + 1


def _inverse(A: sp.csr_array):
    """A function (v, rel_tol) -> A^-1 v by Jacobi-preconditioned CG, or None
    when A's trailing diagonal block has an entry <= 0, so A is not SPD.

    When the trailing diagonal block D = A[m:, m:] has more than one row, CG
    runs on the Schur complement S = A[:m, :m] - C^T D^-1 C, C = A[m:, :m],
    with right-hand side v_n - C^T D^-1 v_b, and the trailing unknowns follow
    as y_b = (v_b - C y_n) / D.  Otherwise CG runs on A itself.
    """
    n = A.shape[0]
    m = _trailing_diagonal(A)
    if n - m <= 1:
        return lambda v, rel_tol: cg_solve(A, v, rel_tol=rel_tol)[0]
    d = A.diagonal()[m:]
    if not (d > 0.0).all():
        return None
    C = A[m:, :m]
    # S = [I, -C^T D^-1] A[:, :m] as one product: a difference A[:m, :m] - P
    # holds both operands and room for their summed entries at once
    S = sp.hstack([sp.eye_array(m), C.T @ sp.diags_array(-1.0 / d)], format="csr") @ A[:, :m]

    def solve(v, rel_tol):
        v_b = v[m:] / d
        y_n, _ = cg_solve(S, v[:m] - C.T @ v_b, rel_tol=rel_tol)
        return np.concatenate([y_n, v_b - (C @ y_n) / d])
    return solve


def estimate_condition(A: sp.csr_array, start: np.ndarray | None = None) -> ConditionEstimate:
    """Extreme-eigenvalue estimates of a symmetric positive definite matrix.

    Lanczos from a seeded random vector for the largest eigenvalue; inverse
    iteration for the smallest, with Jacobi-preconditioned CG applying A^-1.
    Inverse iteration starts at start / ||start||, or at a second seeded
    random vector when start is None or zero.  A start with no component
    along the lowest eigenvector converges to a higher eigenvalue, so it must
    not be orthogonal to it; the CLI passes the CG solution A^-1 F of a
    smooth load, which lies mostly along it.  Where A's trailing unknowns are
    uncoupled from each other, as the element-interior bubbles of p2nc_std
    and the centroid nodes of pk_lagrange k=3 are, CG runs on the Schur
    complement of that diagonal block (`_inverse`), whose condition is the
    interpolated family's.  The
    first solves are loose (rel_tol 1e-3) and tighten to max(1e-9, 1e-2
    |drho|/rho) as the Rayleigh quotient rho on A settles; the iteration stops
    when rho changes by at most 1e-7 relative on a step solved at 1e-9.  The
    smallest eigenvalue is reported as NaN (and the estimate as not converged)
    when it does not settle in 400 steps, when a CG solve fails, since such a
    step does not apply A^-1, or when the diagonal block has an entry <= 0.  A
    singular A ends that way, since preconditioned CG does not keep its
    iterates in range(A) and the system of the next step is inconsistent.
    The digits past the 1e-7 stop depend on the start.
    """
    n = A.shape[0]
    if n == 0:
        raise ValueError("cannot estimate the condition of an empty matrix")
    rng = np.random.default_rng(0)
    lam_max, ok_max = _lanczos_max(A, rng.standard_normal(n))
    solve = _inverse(A)
    if start is None or not np.any(start):
        start = rng.standard_normal(n)
    v = start / np.linalg.norm(start)
    lam_min, rho, rel_tol = np.nan, np.inf, 1e-3
    for _ in range(400 if solve is not None else 0):
        try:
            y = solve(v, rel_tol)
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
