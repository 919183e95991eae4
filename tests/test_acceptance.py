"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 compare the convergence tables produced by the CLI driver
against embedded reference values at their stated tolerances.  The
remaining criteria check the patch test, DOF accounting, the property
suite, and the condition estimator.

The reference values of criteria 1-3 come from the independent solver in
tests/oracle.py (`PYTHONPATH=src python tests/oracle.py` prints them), except
the P6 Lagrange column, which is kept from the original reference table.
Criteria 1-3 also guard every H1 reference value with the bound
|I_h u - u_h|_1 <= |u - I_h u|_1 and recompute the lowest reference level of
each oracle-derived column with the oracle.
"""

import time

import numpy as np

import oracle
from bpoly import BPoly, TriGeom, bpoly_eval, bpoly_grad, bpoly_laplacian, per_element
from igfem.analysis import error_norms, FeFunction, interpolate_exact
from igfem.assembly import assemble_system, build_dof_map, build_space
from igfem.cli import ExperimentConfig, PROBLEMS, fixed_sci, run_experiment
from igfem.elements import (BARYCENTER, BUBBLE, block_gradients, block_values,
                            boundary_multi_indices, build_fs_bubble,
                            build_p2c_macro_basis, build_p3_basis, build_pk_basis,
                            gram_schmidt_pj, laplacian_operator)
from igfem.mesh import build_crisscross_mesh, triangle_gauss_points
from igfem.poly import bernstein_values, make_quad_rule, multi_indices, num_coeffs
from igfem.solver import cg_solve, estimate_condition

_SWEEPS = {}


def sweep(family, k, levels):
    key = (family, k, tuple(levels))
    if key not in _SWEEPS:
        cfg = ExperimentConfig(family=family, degree=k, levels=tuple(levels),
                               problem="sine")
        _SWEEPS[key] = {r["level"]: r for r in run_experiment(cfg).rows}
    return _SWEEPS[key]


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def compare_rows(rows, reference, rel_err, order_tol, abs_slack=0.0):
    """Diff computed rows against (level -> (l2, o2, h1, o1)) reference."""
    problems = []
    for level, (l2, o2, h1, o1) in reference.items():
        row = rows.get(level)
        if row is None:
            problems.append(f"level {level}: no computed row")
            continue
        for name, got, want in (("L2", row["l2_ih"], l2), ("H1", row["h1_ih"], h1)):
            tol = max(rel_err * want, abs_slack)
            if abs(got - want) > tol:
                problems.append(
                    f"level {level} {name}: computed {fixed_sci(got)} vs "
                    f"reference {fixed_sci(want)} (off {got / want:.2f}x)")
        for name, got, want in (("order_L2", row["order_l2"], o2),
                                ("order_H1", row["order_h1"], o1)):
            if got is None or abs(got - want) > order_tol:
                problems.append(f"level {level} {name}: computed "
                                f"{got if got is None else round(got, 2)} vs {want}")
    return problems


_INTERP_H1 = {}


def interpolation_h1(family, k, level):
    """|u - I_h u|_1 for the sine problem, by the library's interpolant and norms."""
    key = (family, k, level)
    if key not in _INTERP_H1:
        problem = PROBLEMS["sine"]
        space = build_space(build_crisscross_mesh(level), family, k)
        _, _INTERP_H1[key] = error_norms(
            problem, interpolate_exact(problem.u, problem.f, space,
                                       assemble_system(space, problem.f).interp_coeffs))
    return _INTERP_H1[key]


def reference_guard(rows, reference, family, k):
    """Check a reference column against Galerkin orthogonality.

    I_h u and u_h have the same f-derived interior values, so
    |u - I_h u|_1^2 = |u - u_h|_1^2 + |I_h u - u_h|_1^2.  No H1 reference may
    exceed |u - I_h u|_1, and every computed row must meet the identity.
    """
    problems = []
    for level, (_, _, h1, _) in reference.items():
        bound = interpolation_h1(family, k, level)
        if h1 > bound:
            problems.append(f"level {level} H1: reference {fixed_sci(h1)} exceeds "
                            f"|u - I_h u|_1 = {fixed_sci(bound)}")
        row = rows.get(level)
        if row is not None:
            gap = abs(row["h1_ih"] ** 2 + row["h1_true"] ** 2 - bound ** 2) / bound ** 2
            if gap > 1e-3:
                problems.append(f"level {level}: h1_ih^2 + h1_true^2 misses "
                                f"|u - I_h u|_1^2 by {gap:.1e} relative")
    return problems


def oracle_check(reference, family, k):
    """Recompute the lowest reference level of a column with tests/oracle.py."""
    level = min(reference)
    got = oracle.rounded(oracle.table(family, k, [level])[level])
    if got != reference[level]:
        return [f"level {level}: oracle gives {got}, reference is {reference[level]}"]
    return []


def column_checks(label, rows, reference, family, k, from_oracle=True):
    problems = reference_guard(rows, reference, family, k)
    if from_oracle:
        problems += oracle_check(reference, family, k)
    return [f"{label}{p}" for p in problems]


# --- criterion 1: P2 conforming table, levels 4-7 ---------------------------

T1_P2C = {4: (1.06e-5, 3.8, 1.06e-3, 2.7), 5: (6.99e-7, 3.9, 1.39e-4, 2.9),
          6: (4.43e-8, 4.0, 1.76e-5, 3.0), 7: (2.78e-9, 4.0, 2.21e-6, 3.0)}
T1_P2L = {4: (7.86e-5, 2.9, 5.00e-3, 2.0), 5: (9.94e-6, 3.0, 1.24e-3, 2.0),
          6: (1.25e-6, 3.0, 3.09e-4, 2.0), 7: (1.56e-7, 3.0, 7.73e-5, 2.0)}


def test_criterion_1_p2_conforming_table():
    t0 = time.time()
    problems = compare_rows(sweep("p2c_interp", 2, range(3, 8)), T1_P2C, 0.02, 0.1)
    problems += [f"baseline {p}" for p in
                 compare_rows(sweep("pk_lagrange", 2, range(3, 8)), T1_P2L, 0.02, 0.1)]
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 1 minute")
    problems += column_checks("", sweep("p2c_interp", 2, range(3, 8)), T1_P2C,
                              "p2c_interp", 2)
    problems += column_checks("baseline ", sweep("pk_lagrange", 2, range(3, 8)), T1_P2L,
                              "pk_lagrange", 2)
    report(1, not problems, "P2 conforming + P2 Lagrange, levels 4-7, 2%")
    assert not problems, "\n".join(problems)


# --- criterion 2: P3 table, levels 4-6 ---------------------------------------

T3_P3I = {4: (1.84e-6, 4.0, 2.14e-4, 3.0), 5: (1.15e-7, 4.0, 2.69e-5, 3.0),
          6: (7.19e-9, 4.0, 3.37e-6, 3.0)}
T3_P3L = {4: (2.48e-6, 4.0, 2.36e-4, 3.0), 5: (1.55e-7, 4.0, 2.97e-5, 3.0),
          6: (9.68e-9, 4.0, 3.71e-6, 3.0)}


def test_criterion_2_p3_table():
    problems = compare_rows(sweep("p3_interp", 3, range(3, 7)), T3_P3I, 0.02, 0.1)
    problems += [f"baseline {p}" for p in
                 compare_rows(sweep("pk_lagrange", 3, range(3, 7)), T3_P3L, 0.02, 0.1)]
    problems += column_checks("", sweep("p3_interp", 3, range(3, 7)), T3_P3I,
                              "p3_interp", 3)
    problems += column_checks("baseline ", sweep("pk_lagrange", 3, range(3, 7)), T3_P3L,
                              "pk_lagrange", 3)
    report(2, not problems, "P3 interpolated + P3 Lagrange, levels 4-6, 2%")
    assert not problems, "\n".join(problems)


# --- criterion 3: P4/P5/P6 tables --------------------------------------------

T4 = {
    ("pk_interp", 4): {4: (3.37e-8, 5.0, 4.82e-6, 4.0), 5: (1.05e-9, 5.0, 3.00e-7, 4.0),
                       6: (3.29e-11, 5.0, 1.88e-8, 4.0)},
    ("pk_lagrange", 4): {4: (6.53e-8, 5.0, 6.98e-6, 4.0), 5: (2.04e-9, 5.0, 4.36e-7, 4.0),
                         6: (6.39e-11, 5.0, 2.73e-8, 4.0)},
    ("pk_interp", 5): {3: (3.54e-8, 6.0, 3.38e-6, 4.9), 4: (5.55e-10, 6.0, 1.07e-7, 5.0),
                       5: (8.66e-12, 6.0, 3.35e-9, 5.0)},
    ("pk_lagrange", 5): {3: (8.16e-8, 6.0, 6.02e-6, 5.0), 4: (1.28e-9, 6.0, 1.89e-7, 5.0),
                         5: (1.99e-11, 6.0, 5.93e-9, 5.0)},
    ("pk_interp", 6): {2: (1.32e-7, 7.4, 7.36e-6, 6.2), 3: (1.04e-9, 7.0, 1.14e-7, 6.0),
                       4: (8.14e-12, 7.0, 1.77e-9, 6.0)},
    ("pk_lagrange", 6): {2: (3.36e-7, 7.4, 1.64e-5, 6.3), 3: (2.76e-9, 6.9, 2.59e-7, 6.0),
                         4: (2.18e-11, 7.0, 4.06e-9, 6.0)},
}
# columns kept from the original reference table, not derived from the oracle
T4_KEPT = {("pk_lagrange", 6)}


def test_criterion_3_p4_p5_p6_tables():
    problems = []
    for (family, k), ref in T4.items():
        lo, hi = min(ref), max(ref)
        rows = sweep(family, k, range(lo - 1, hi + 1))
        problems += [f"P{k} {family}: {p}"
                     for p in compare_rows(rows, ref, 0.05, 0.15, abs_slack=1e-10)]
        problems += column_checks(f"P{k} {family}: ", rows, ref, family, k,
                                  from_oracle=(family, k) not in T4_KEPT)
    report(3, not problems, "P4-P6 interpolated + Lagrange, 5% or 1e-10")
    assert not problems, "\n".join(problems)


# --- criterion 4: P2 nonconforming table, levels 4-7 --------------------------

T2_NCI = {4: (1.81e-4, 2.7, 1.11e-2, 1.7), 5: (2.44e-5, 2.9, 2.98e-3, 1.9),
          6: (3.16e-6, 3.0, 7.67e-4, 2.0), 7: (4.06e-7, 3.0, 1.94e-4, 2.0)}
T2_NCS = {4: (2.08e-4, 3.0, 1.26e-2, 2.0), 5: (2.60e-5, 3.0, 3.15e-3, 2.0),
          6: (3.25e-6, 3.0, 7.89e-4, 2.0), 7: (4.07e-7, 3.0, 1.97e-4, 2.0)}


def test_criterion_4_p2_nonconforming_table():
    problems = compare_rows(sweep("p2nc_interp", 2, range(3, 8)), T2_NCI, 0.10, 0.1)
    problems += [f"baseline {p}" for p in
                 compare_rows(sweep("p2nc_std", 2, range(3, 8)), T2_NCS, 0.10, 0.1)]
    report(4, not problems, "P2 nonconforming pair, levels 4-7, 10%")
    assert not problems, "\n".join(problems)


# --- criterion 5: patch test ----------------------------------------------------

def test_criterion_5_patch_test():
    patch = PROBLEMS["poly4"]
    worst = 0.0
    for level in (1, 2, 3):
        space = build_space(build_crisscross_mesh(level), "pk_interp", 4)
        system = assemble_system(space, patch.f)
        x, _ = cg_solve(system.A, system.F, rel_tol=1e-14)
        u_h = FeFunction.from_dofs(space, x, system.interp_coeffs)
        l2, _ = error_norms(patch, u_h)
        worst = max(worst, l2)
    ok = worst <= 1e-9
    report(5, ok, f"k=4 in-space solution, worst L2 {worst:.2e}")
    assert ok


# --- criterion 6: DOF accounting -------------------------------------------------

def test_criterion_6_dof_reduction():
    mesh = build_crisscross_mesh(2)

    def local_free_slots(family, k):
        """Non-interpolated local slots per element."""
        return build_dof_map(mesh, family, k).n_node

    problems = []
    if local_free_slots("pk_interp", 6) != 18:
        problems.append("k=6 interpolated local slots != 18")
    if local_free_slots("pk_lagrange", 6) != 28:
        problems.append("k=6 Lagrange local slots != 28")
    for k in (4, 5, 6, 7, 8):
        if local_free_slots("pk_interp", k) != 3 * k:
            problems.append(f"k={k} interpolated local slots != 3k")
    if build_dof_map(mesh, "p2c_interp").n_free != 5:
        problems.append("level-2 P2C free count != 5")
    if build_dof_map(mesh, "p3_interp").n_free != 45:
        problems.append("level-2 P3 free count != 45")
    report(6, not problems, "3k local slots; level-2 global counts 5 and 45")
    assert not problems, "\n".join(problems)


# --- criterion 7: property suite ---------------------------------------------------

def _random_geoms(rng, n):
    out = []
    while len(out) < n:
        v = rng.normal(size=(3, 2))
        det = (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - \
              (v[1, 1] - v[0, 1]) * (v[2, 0] - v[0, 0])
        if det < 0:
            v[[1, 2]] = v[[2, 1]]
            det = -det
        if det > 0.2:
            out.append(TriGeom.from_vertices(v))
    return out


def _perturbed_geoms(n):
    mesh = build_crisscross_mesh(3, perturb=0.25)
    rng = np.random.default_rng(3)
    ids = rng.choice(len(mesh.triangles), size=n, replace=False)
    return [TriGeom.from_vertices(mesh.vertices[mesh.triangles[t]]) for t in ids]


def _macro_parts(corners, center):
    """The four parts (corner p, corner p+1, center) of a macro square."""
    return [TriGeom.from_vertices([corners[p], corners[(p + 1) % 4], center])
            for p in range(4)]


def _theorem1_check(problems):
    mesh = build_crisscross_mesh(2)
    geoms = _macro_parts(mesh.vertices[mesh.macro_corners[0]],
                         mesh.vertices[mesh.macro_centers[0]])
    rng = np.random.default_rng(4)
    layouts = ((0, 4, 9, 1, 10, 8), (1, 5, 10, 2, 11, 8),
               (2, 6, 11, 3, 12, 8), (3, 7, 12, 0, 9, 8))
    for _ in range(30):
        c = rng.normal(size=13)
        c[11] = 2 * c[8] - c[9]
        c[12] = 2 * c[8] - c[10]
        laps = [bpoly_laplacian(BPoly(2, c[list(lay)], geoms[p])).coeffs[0]
                for p, lay in enumerate(layouts)]
        if abs(laps[0] - laps[1] + laps[2] - laps[3]) > 1e-11 * max(
                1.0, max(abs(l) for l in laps)):
            problems.append("alternating Laplacian sum exceeded 1e-11")
            return


def _unisolvence_checks(problems):
    rng = np.random.default_rng(5)
    # P2C round trip
    mesh = build_crisscross_mesh(2)
    corners = mesh.vertices[mesh.macro_corners[1]]
    center = mesh.vertices[mesh.macro_centers[1]]
    basis = build_p2c_macro_basis(corners[None], center[None])[0]
    geoms = _macro_parts(corners, center)
    dofs = rng.normal(size=9)
    parts = [BPoly(2, dofs @ basis[:, p, :], geoms[p]) for p in range(4)]
    got = np.zeros(9)
    for s in range(4):
        got[s] = bpoly_eval(parts[s], (1, 0, 0))
        got[4 + s] = bpoly_eval(parts[s], (0.5, 0.5, 0))
    got[8] = -bpoly_laplacian(parts[0]).coeffs[0]
    if np.max(np.abs(got - dofs)) > 1e-12:
        problems.append("P2C unisolvence round trip exceeded 1e-12")

    # P3 round trip
    for geom in _random_geoms(rng, 2) + _perturbed_geoms(1):
        basis3 = build_p3_basis(geom.vertices[None])[0]
        coeffs = rng.normal(size=10)
        f = BPoly(3, coeffs, geom)
        node_bary = np.array(boundary_multi_indices(3), dtype=float) / 3
        dofs3 = np.concatenate([bpoly_eval(f, node_bary),
                                [-bpoly_eval(bpoly_laplacian(f), BARYCENTER)]])
        rebuilt = dofs3 @ basis3[:, 0, :]
        if np.max(np.abs(rebuilt - coeffs)) > 1e-11:
            problems.append("P3 unisolvence round trip exceeded tolerance")
            break

    # Pk round trips and dual residuals
    for k in (4, 5, 6):
        for geom in _random_geoms(rng, 2) + _perturbed_geoms(1):
            basis = build_pk_basis(geom.vertices[None], k)[0]
            pjs = [BPoly(k - 3, pj, geom) for pj in gram_schmidt_pj(geom.vertices[None], k)[0]]
            node_bary = np.array(boundary_multi_indices(k), dtype=float) / k
            rule = make_quad_rule(2 * k)
            w = rule.weights * geom.area
            bub = BPoly(3, BUBBLE, geom)
            bv = bpoly_eval(bub, rule.points)
            lap_op = laplacian_operator(k, geom.grad_lambda[None])[0]

            def functionals(coeffs):
                nodes = bernstein_values(k, node_bary) @ coeffs
                lapv = bernstein_values(k - 2, rule.points) @ (lap_op @ coeffs)
                moms = np.array([w @ (bpoly_eval(pj, rule.points) * bv * lapv)
                                 for pj in pjs])
                return np.concatenate([nodes, moms])

            eye = np.eye(len(basis))
            for i in range(len(basis)):
                if np.max(np.abs(functionals(basis[i, 0]) - eye[i])) > 1e-9:
                    problems.append(f"P{k} dual-basis residual exceeded 1e-9")
                    break
            coeffs = rng.normal(size=num_coeffs(k))
            rebuilt = functionals(coeffs) @ basis[:, 0, :]
            if np.max(np.abs(rebuilt - coeffs)) > 1e-9 * max(
                    1.0, np.max(np.abs(coeffs))):
                problems.append(f"P{k} unisolvence round trip exceeded 1e-9")
            # psi_j = -b p_j in coefficients
            lat = np.array(multi_indices(k), dtype=float) / k
            for j, pj in enumerate(pjs):
                target = -bpoly_eval(bub, lat) * bpoly_eval(pj, lat)
                if np.max(np.abs(bpoly_eval(BPoly(k, basis[3 * k + j, 0], geom), lat)
                                 - target)) > 1e-9:
                    problems.append(f"P{k} psi_j != -b p_j at 1e-9")
                    break


def _bubble_and_quadrature_checks(problems):
    rng = np.random.default_rng(6)
    for geom in _random_geoms(rng, 3):
        phi0 = BPoly(2, build_fs_bubble(geom.vertices[None])[0], geom)
        gp = triangle_gauss_points(geom.vertices)
        vals = [bpoly_eval(phi0, geom.to_barycentric(p)) for p in gp]
        if np.max(np.abs(vals)) > 1e-13:
            problems.append("FS bubble nonzero at an edge Gauss point")
        if abs(bpoly_laplacian(phi0).coeffs[0] + 1.0) > 1e-12:
            problems.append("FS bubble Laplacian != -1")
    ref = TriGeom.from_vertices([(0, 0), (1, 0), (0, 1)])
    for k in range(0, 17):
        rule = make_quad_rule(k)
        got = ref.area * (rule.weights @ bernstein_values(k, rule.points))
        exact = ref.area * 2.0 / ((k + 1) * (k + 2))
        if np.max(np.abs(got - exact)) > 1e-12 * exact:
            problems.append(f"quadrature exactness failed at degree {k}")


def _derivative_checks(problems):
    rng = np.random.default_rng(7)
    for k in (3, 6, 8):
        geom = _random_geoms(rng, 1)[0]
        p = BPoly(k, rng.normal(size=num_coeffs(k)), geom)
        bary = np.array([0.31, 0.44, 0.25])
        x0 = bary @ geom.vertices
        eps = 1e-6 * geom.diameter
        grad = bpoly_grad(p, bary)
        for d in range(2):
            xp, xm = x0.copy(), x0.copy()
            xp[d] += eps
            xm[d] -= eps
            fd = (bpoly_eval(p, geom.to_barycentric(xp))
                  - bpoly_eval(p, geom.to_barycentric(xm))) / (2 * eps)
            if abs(grad[d] - fd) > 1e-6 * max(1.0, abs(grad[d])):
                problems.append("gradient finite-difference check failed")
        eps = 1e-4 * geom.diameter
        acc = -4.0 * bpoly_eval(p, geom.to_barycentric(x0))
        for dx, dy in ((eps, 0), (-eps, 0), (0, eps), (0, -eps)):
            acc += bpoly_eval(p, geom.to_barycentric(x0 + [dx, dy]))
        lap = bpoly_eval(bpoly_laplacian(p), bary)
        if abs(acc / eps ** 2 - lap) > 1e-5 * max(1.0, abs(lap)):
            problems.append("Laplacian finite-difference check failed")


def _interior_orthogonality_check(problems):
    patch = PROBLEMS["poly4"]
    space = build_space(build_crisscross_mesh(2), "pk_interp", 4)
    system = assemble_system(space, patch.f)
    x, _ = cg_solve(system.A, system.F, rel_tol=1e-14)
    u_h = FeFunction.from_dofs(space, x, system.interp_coeffs)
    rule = make_quad_rule(12)
    for eid in range(space.n_elements):
        basis = per_element(space, "basis", eid)[None, :, 0]
        local = u_h.coeffs[eid]
        vals = block_values(basis, 4, rule.points)[0]
        grads = block_gradients(basis, 4, per_element(space, "grad_lambda", eid), rule.points)[0]
        uh_grad = np.einsum("n,npd->pd", local, grads)
        xy = rule.points @ space.vertices(eid)[0]
        w = rule.weights * per_element(space, "area", eid)[0]
        fv = patch.f(xy[:, 0], xy[:, 1])
        for slot in range(space.dof_map.n_node, space.basis.shape[1]):
            resid = w @ np.sum(uh_grad * grads[slot], axis=1) - w @ (fv * vals[slot])
            if abs(resid) > 1e-9:
                problems.append("interior test-function orthogonality "
                                f"residual {resid:.2e} exceeds 1e-9")
                return


def test_criterion_7_property_suite():
    problems = []
    _theorem1_check(problems)
    _unisolvence_checks(problems)
    _bubble_and_quadrature_checks(problems)
    _derivative_checks(problems)
    _interior_orthogonality_check(problems)
    report(7, not problems, "element/quadrature/orthogonality properties")
    assert not problems, "\n".join(problems)


# --- criterion 8: condition estimates vs dense oracle ----------------------------

def test_criterion_8_condition_estimates():
    problems = []
    cases = [("pk_lagrange", 2, 2), ("p2c_interp", 2, 3), ("p2nc_std", 2, 2),
             ("p3_interp", 3, 2)]
    for family, k, level in cases:
        system = assemble_system(build_space(build_crisscross_mesh(level), family, k),
                                 PROBLEMS["sine"].f)
        if not (0 < system.A.shape[0] <= 200):
            problems.append(f"{family} level {level}: size {system.A.shape[0]} not <= 200")
            continue
        est = estimate_condition(system.A)
        ew = np.linalg.eigvalsh(system.A.toarray())
        nz = ew[ew > 1e-10 * ew[-1]]
        if abs(est.lambda_max - ew[-1]) > 0.02 * ew[-1]:
            problems.append(f"{family}: lambda_max off by more than 2%")
        if abs(est.lambda_min_nonzero - nz[0]) > 0.02 * nz[0]:
            problems.append(f"{family}: lambda_min off by more than 2%")
    # the CLI surface emits the estimates
    rep = run_experiment(ExperimentConfig(family="p3_interp", levels=(2,),
                                          condition=True))
    if "cond_est" not in rep.rows[0]:
        problems.append("--condition did not add estimates to the report")
    report(8, not problems, "power/inverse iteration vs dense eigensolve, 2%")
    assert not problems, "\n".join(problems)
