"""Interpolated Galerkin finite elements for the 2D Poisson problem.

Element-interior degrees of freedom are interpolated directly from the
forcing function f (using the Laplacian of the exact solution), so the
Galerkin system is solved only for the inter-element boundary unknowns.
"""

from .mesh import Mesh, build_crisscross_mesh
from .poly import QuadRule, make_quad_rule
from .elements import build_fs_bubble, build_lagrange_basis, \
    build_p2c_macro_basis, build_p2nc_element, build_p3_basis, build_pk_basis, \
    gram_schmidt_pj
from .assembly import DofMap, FAMILIES, SparseSystem, Space, assemble_system, \
    build_dof_map, build_space
from .solver import ConditionEstimate, SolveStats, SolverError, cg_solve, \
    estimate_condition
from .analysis import FeFunction, convergence_orders, error_norms, interpolate_exact

__version__ = "0.1.0"


def __getattr__(name):
    # igfem.cli is imported on first use, so `python -m igfem.cli` does not find it imported
    if name in ("ConvergenceReport", "ExperimentConfig", "PROBLEMS", "Problem",
                "emit_report", "run_experiment"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
