"""Each interpolated triangle family is its baseline's static condensation.

The interior functionals of pk_interp, p3_interp and p2nc_interp are Laplacian
moments against bubble-weighted polynomials (a point value of a linear or
constant Laplacian for p3 and p2nc).  Integration by parts turns each into
a(v, b p_j), so node functions with zero moments are a-orthogonal to the
interior bubbles: they are the discrete-harmonic extensions of the baseline's
node functions.  Hence A is the Schur complement of the baseline's A over its
element-interior DOFs, F's node part is the condensed baseline load (the
node-interior stiffness vanishes), and the node solutions agree.  This is
classical static condensation (Guyan, AIAA J. 3 (1965); Wilson, IJNME 8
(1974)); only the interior coefficients differ between a family and its
baseline.
"""

import numpy as np
import pytest

from igfem import elements as el
from igfem.assembly import assemble_system, build_space
from igfem.cli import PROBLEMS, ExperimentConfig
from igfem.mesh import build_crisscross_mesh

SINE = PROBLEMS["sine"]

# (family, k, level, perturbation, bounds on the relative differences of A,
# F and the node solution).  Each bound is 10x the difference measured with
# dense numpy at one BLAS thread, rounded up.
_CASES = [
    ("pk_interp", 4, 2, 0.0, (1.8e-14, 2.9e-14, 6.7e-14)),
    ("pk_interp", 4, 3, 0.0, (2.2e-14, 3.9e-14, 4.3e-13)),
    ("pk_interp", 6, 2, 0.0, (9.4e-14, 7.3e-13, 6.0e-13)),
    ("pk_interp", 8, 2, 0.0, (1.5e-12, 1.8e-11, 4.9e-11)),
    ("p3_interp", None, 3, 0.0, (5.3e-15, 2.0e-14, 3.6e-13)),
    ("p3_interp", None, 4, 0.0, (5.3e-15, 2.1e-14, 1.6e-12)),
    ("p2nc_interp", None, 3, 0.0, (3.4e-15, 6.9e-15, 4.0e-14)),
    ("p2nc_interp", None, 4, 0.0, (3.4e-15, 8.2e-15, 1.7e-13)),
    ("p3_interp", None, 3, 0.2, (1.1e-14, 1.7e-14, 3.4e-14)),
    ("p2nc_interp", None, 3, 0.2, (4.3e-15, 9.5e-15, 2.6e-14)),
    ("pk_interp", 5, 3, 0.2, (6.4e-14, 1.3e-13, 9.6e-13)),
    ("pk_interp", 8, 3, 0.2, (1.4e-12, 1.5e-11, 4.8e-11)),
]


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("family,k,level,perturb,bounds", _CASES, ids=[
    f"{fam}-{k}-{level}" + (f"-perturb{p}" if p else "") for fam, k, level, p, _ in _CASES])
def test_interpolated_family_is_static_condensation_of_baseline(family, k, level,
                                                                  perturb, bounds):
    mesh = build_crisscross_mesh(level, perturb=perturb)
    space = build_space(mesh, family, k)
    base_family, base_k = ExperimentConfig(family, degree=space.k).baseline()
    base = build_space(mesh, base_family, base_k)
    # the family's node slots carry the baseline's first n DOFs, in the same
    # numbering; the baseline's other DOFs are its element-interior slots
    nodes, _ = el.slot_layout(family, space.k)
    base_slots, _ = el.slot_layout(base_family, base_k)
    columns = [base_slots.index(alpha) for alpha in nodes]
    n = space.dof_map.n_free
    assert np.array_equal(base.dof_map.dofs[:, columns], space.dof_map.dofs[:, :len(nodes)])
    assert base.dof_map.n_free > n

    system = assemble_system(space, SINE.f)
    base_system = assemble_system(base, SINE.f)
    A = base_system.A.toarray()
    A_bi, A_ii = A[:n, n:], A[n:, n:]
    schur = A[:n, :n] - A_bi @ np.linalg.solve(A_ii, A[n:, :n])
    load = base_system.F[:n] - A_bi @ np.linalg.solve(A_ii, base_system.F[n:])
    x = np.linalg.solve(system.A.toarray(), system.F)
    x_base = np.linalg.solve(A, base_system.F)[:n]

    bound_A, bound_F, bound_x = bounds
    assert _rel(system.A.toarray(), schur) <= bound_A
    assert _rel(system.F, load) <= bound_F
    assert _rel(x, x_base) <= bound_x
