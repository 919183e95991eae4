"""Print one sha256 per case, and one per sweep, over the bits a refactor
must not move.

A change that claims to keep every bit runs this on its tree and on its
parent's, with one BLAS thread, and compares the output:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python tests/bits.py

First one hash covers every quadrature rule, `make_quad_rule(d)` for d =
0..MAX_QUAD_DEGREE, with its points, weights and exactness degree.  The
cases cover every family, plain and perturbed (p2c_interp needs the
unperturbed mesh), with the sine and poly4 problems.  Per case one hash
covers every array of the mesh (vertices, vertex_boundary, edges,
edge_boundary, triangles, triangle_edges, macro_corners and macro_centers),
and then per problem one hash covers, in this order:
  - A's data, indices and indptr, each with its dtype;
  - F and `interp_coeffs`;
  - the Space's class tables (basis, grad_lambda, area, shape) and the
    assembly's element tables (stiffness node rows, loads, coefficients);
  - the DOF table;
  - the coefficient tables of u_h and of I_h u;
  - the four error norms and the CG iteration count.
Then each sweep of SWEEPS runs in-process through `run_experiment`, and its
hash covers the text, CSV and JSON reports of `emit_report`, with the
timings removed from every row and the JSON `env` block emptied, so runs
that differ only in where they ran (library versions, OMP_NUM_THREADS)
hash alike.  The sweeps are the three benchmark
workloads and three more: p3_interp with poly4, p2c_interp with condition
estimates, and p3_interp with condition estimates, whose pk_lagrange k=3
baseline runs the inverse iteration on the Schur complement of its centroid
block.
pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from igfem.analysis import FeFunction, error_norms, interpolate_exact
from igfem.assembly import _element_tables, assemble_system, build_space
from igfem.cli import PROBLEMS, ExperimentConfig, emit_report, run_experiment
from igfem.mesh import build_crisscross_mesh
from igfem.poly import MAX_QUAD_DEGREE, make_quad_rule
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

# ExperimentConfig keyword arguments
SWEEPS = (
    {"family": "p2nc_interp", "levels": (3, 4, 5, 6), "compare": True},
    {"family": "pk_interp", "degree": 8, "levels": (1, 2, 3, 4), "compare": True},
    {"family": "p2nc_interp", "levels": (2, 3, 4, 5), "compare": True, "condition": True},
    {"family": "p3_interp", "levels": (2, 3, 4, 5), "compare": True, "problem": "poly4"},
    {"family": "p2c_interp", "levels": (1, 2, 3, 4, 5), "compare": True, "condition": True},
    {"family": "p3_interp", "levels": (2, 3, 4), "compare": True, "condition": True},
)


def digest(arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, in turn."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def quad_digest() -> str:
    rules = [make_quad_rule(d) for d in range(MAX_QUAD_DEGREE + 1)]
    return digest(a for r in rules for a in (r.points, r.weights, np.array([r.exactness_degree])))


def mesh_digest(level, perturb) -> str:
    m = build_crisscross_mesh(level, perturb)
    return digest((m.vertices, m.vertex_boundary, m.edges, m.edge_boundary, m.triangles,
                   m.triangle_edges, m.macro_corners, m.macro_centers))


def case_digest(family, k, level, perturb, problem) -> str:
    space = build_space(build_crisscross_mesh(level, perturb), family, k)
    system = assemble_system(space, problem.f)
    x, stats = cg_solve(system.A, system.F)
    c = system.interp_coeffs
    u_h = FeFunction.from_dofs(space, x, c)
    i_h = interpolate_exact(problem.u, problem.f, space, c)
    norms = np.array(error_norms(u_h, i_h, problem))
    return digest((system.A.data, system.A.indices, system.A.indptr, system.F, c,
                   space.basis, space.grad_lambda, space.area, space.shape,
                   *_element_tables(space, problem.f), space.dof_map.dofs,
                   u_h.coeffs, i_h.coeffs, norms, np.array([stats.iterations])))


def sweep_digest(kwargs) -> str:
    report = run_experiment(ExperimentConfig(**kwargs))
    for row in report.rows + (report.baseline_rows or []):
        del row["timings"]
    report.env = {}
    h = hashlib.sha256()
    for output_format in ("text", "csv", "json"):
        h.update(emit_report(report, output_format).encode())
    return h.hexdigest()


def main() -> int:
    print(f"quad rules 0..{MAX_QUAD_DEGREE} {quad_digest()}")
    for family, k, level, perturb in CASES:
        case = f"{family:<12s} k={k!s:<4s} L{level} perturb={perturb:<4}"
        print(f"{case} mesh  {mesh_digest(level, perturb)}")
        for name in ("sine", "poly4"):
            print(f"{case} {name:<5s} {case_digest(family, k, level, perturb, PROBLEMS[name])}")
    for kwargs in SWEEPS:
        args = " ".join(f"{key}={value}" for key, value in kwargs.items())
        print(f"sweep {args} {sweep_digest(kwargs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
