"""Print one sha256 per case over the bits a refactor must not move.

A change that claims to keep every bit runs this on its tree and on its
parent's, with one BLAS thread, and compares the output:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/bits.py

The cases cover every family, plain and perturbed (p2c_interp needs the
unperturbed mesh), with the sine and poly4 problems.  Each hash covers, in
this order:
  - A's data, indices and indptr, each with its dtype;
  - F and `interp_coeffs`;
  - the Space's class tables (basis, grad_lambda, area, shape) and the
    assembly's element tables (stiffness node rows, loads, coefficients);
  - the DOF table;
  - the coefficient tables of u_h and of I_h u;
  - the four error norms and the CG iteration count.
pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from igfem.analysis import FeFunction, error_norms, interpolate_exact
from igfem.assembly import _element_tables, assemble_system, build_space
from igfem.cli import PROBLEMS
from igfem.mesh import build_crisscross_mesh
from igfem.solver import cg_solve

# (family, degree, level, perturb)
CASES = (
    ("p2c_interp", None, 3, 0.0),
    ("p2nc_interp", None, 4, 0.0),
    ("p2nc_interp", None, 4, 0.2),
    ("p2nc_std", None, 4, 0.0),
    ("p2nc_std", None, 4, 0.2),
    ("p3_interp", None, 4, 0.0),
    ("p3_interp", None, 4, 0.2),
    ("pk_interp", 5, 2, 0.0),
    ("pk_interp", 5, 2, 0.2),
    ("pk_interp", 8, 2, 0.0),
    ("pk_interp", 8, 2, 0.2),
    ("pk_lagrange", 3, 3, 0.0),
    ("pk_lagrange", 3, 3, 0.2),
    ("pk_lagrange", 8, 2, 0.0),
)


def case_digest(family, k, level, perturb, problem) -> str:
    space = build_space(build_crisscross_mesh(level, perturb), family, k)
    system = assemble_system(space, problem.f)
    x, stats = cg_solve(system.A, system.F)
    c = system.interp_coeffs
    u_h = FeFunction.from_dofs(space, x, c)
    i_h = interpolate_exact(problem.u, problem.f, space, c)
    norms = np.array(error_norms(u_h, i_h, problem))
    h = hashlib.sha256()
    for a in (system.A.data, system.A.indices, system.A.indptr, system.F, c,
              space.basis, space.grad_lambda, space.area, space.shape,
              *_element_tables(space, problem.f), space.dof_map.dofs,
              u_h.coeffs, i_h.coeffs, norms, np.array([stats.iterations])):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def main() -> int:
    for family, k, level, perturb in CASES:
        for name in ("sine", "poly4"):
            digest = case_digest(family, k, level, perturb, PROBLEMS[name])
            print(f"{family:<12s} k={k!s:<4s} L{level} perturb={perturb:<4} "
                  f"{name:<5s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
