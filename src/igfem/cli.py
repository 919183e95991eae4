"""Convergence-study driver: run level sweeps for an element family, compare
against the matching baseline, and emit text/csv/json reports.

Errors are printed in fixed-point exponent style (0.614E-03) and observed
orders to one decimal, so text reports diff directly against reference
tables.  Runs with the same BLAS thread count are byte-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from .analysis import FeFunction, convergence_orders, error_norms, interpolate_exact
from .assembly import FAMILIES, assemble_system, build_space, resolve_degree
from .mesh import build_crisscross_mesh
from .solver import SolverError, cg_solve, estimate_condition

__all__ = [
    "Problem",
    "PROBLEMS",
    "ExperimentConfig",
    "ConvergenceReport",
    "run_experiment",
    "emit_report",
    "fixed_sci",
    "main",
]

MAX_LEVEL = 9

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


@dataclass(frozen=True)
class Problem:
    """Analytic manufactured solution with exact forcing f = -Lap u.

    u(x, y) gives u alone; u_grad(x, y) gives u and its gradient (..., 2)
    from one evaluation, with u's bits.
    """

    u: callable
    u_grad: callable
    f: callable


def _sine_u(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _sine_u_grad(x, y):
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    return sx * sy, np.stack([np.pi * np.cos(np.pi * x) * sy,
                              np.pi * sx * np.cos(np.pi * y)], axis=-1)


def _sine_f(x, y):
    return 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def _poly4_u(x, y):
    return x * (1.0 - x) * y * (1.0 - y)


def _poly4_u_grad(x, y):
    # the closed forms' operation order: sharing y * (1 - y) moves u's bits
    px = x * (1.0 - x)
    return px * y * (1.0 - y), np.stack([(1.0 - 2.0 * x) * y * (1.0 - y),
                                         px * (1.0 - 2.0 * y)], axis=-1)


def _poly4_f(x, y):
    return 2.0 * (y * (1.0 - y) + x * (1.0 - x))


PROBLEMS = {
    "sine": Problem(_sine_u, _sine_u_grad, _sine_f),
    "poly4": Problem(_poly4_u, _poly4_u_grad, _poly4_f),
}

# every baseline runs at its family's degree
_BASELINE = {"p2c_interp": "pk_lagrange", "p2nc_interp": "p2nc_std",
             "p3_interp": "pk_lagrange", "pk_interp": "pk_lagrange"}


@dataclass
class ExperimentConfig:
    family: str
    degree: int | None = None
    levels: tuple = (2, 3, 4)
    problem: str = "sine"
    tol: float = 1e-13
    compare: bool = False
    condition: bool = False

    def validate(self) -> None:
        self.degree = resolve_degree(self.family, self.degree)
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; "
                             f"registry has {sorted(PROBLEMS)}")
        if not self.levels:
            raise ValueError("level range is empty")
        lv = list(self.levels)
        if lv != sorted(set(lv)):
            raise ValueError("levels must be strictly increasing")
        if lv[0] < 1 or lv[-1] > MAX_LEVEL:
            raise ValueError(f"levels must lie in 1..{MAX_LEVEL}, got {lv}")
        if not (0 < self.tol < 1e-2):
            raise ValueError(f"tol must be in (0, 1e-2), got {self.tol}")
        if self.compare and self.family not in _BASELINE:
            raise ValueError(f"family {self.family} has no matching baseline")

    def baseline(self) -> tuple[str, int]:
        return _BASELINE[self.family], self.degree     # as validate() resolved it


_ROW_KEYS = ("level", "h", "free_dofs", "interp_dofs", "l2_ih", "h1_ih",
             "l2_true", "h1_true", "order_l2", "order_h1", "cg_iters")


def _environment() -> dict:
    """Library versions and BLAS threading of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS",
                                                    "OMP_NUM_THREADS")}}


@dataclass
class ConvergenceReport:
    config: ExperimentConfig
    rows: list = field(default_factory=list)           # dicts, _ROW_KEYS (+cond_est, timings...)
    baseline_rows: list | None = None
    failures: list = field(default_factory=list)       # (level, message)
    env: dict = field(default_factory=_environment)    # where the numbers were made

    def to_dict(self) -> dict:
        out = {"config": asdict(self.config), "env": self.env, "rows": self.rows}
        if self.baseline_rows is not None:
            out["baseline_rows"] = self.baseline_rows
        if self.failures:
            out["failures"] = [list(fl) for fl in self.failures]
        return out


@contextlib.contextmanager
def _timed(timings: dict, phase: str):
    """Record the wall time of the block in timings[phase]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[phase] = time.perf_counter() - start


def _run_family(family: str, k: int, levels, problem: Problem, tol: float,
                condition: bool, failures: list) -> list[dict]:
    rows = []
    for level in levels:
        # a level's mesh, space and system are gone before the next is built
        row = _run_level(family, k, level, problem, tol, condition, failures)
        if row is not None:
            rows.append(row)
    done = [r["level"] for r in rows]
    for key, okey in (("l2_ih", "order_l2"), ("h1_ih", "order_h1")):
        for r, o in zip(rows, convergence_orders(done, [r[key] for r in rows])):
            r[okey] = o
    return rows


def _run_level(family: str, k: int, level: int, problem: Problem, tol: float,
               condition: bool, failures: list) -> dict | None:
    """One level's row, or None (and an entry in failures) if CG fails."""
    timings: dict = {}
    with _timed(timings, "mesh"):
        mesh = build_crisscross_mesh(level)
    with _timed(timings, "space"):
        space = build_space(mesh, family, k)
    with _timed(timings, "assemble"):
        system = assemble_system(space, problem.f)
    dm = space.dof_map
    try:
        with _timed(timings, "cg"):
            x, stats = cg_solve(system.A, system.F, rel_tol=tol)
    except SolverError as err:
        failures.append((level, f"{family} level {level}: {err}"))
        logging.getLogger(__name__).warning(
            "solver failure: %s level %s: %s", family, level, err)
        return None
    est = None
    if condition and dm.n_free:
        with _timed(timings, "condition"):
            est = estimate_condition(system.A)
    # the interpolant and the norms need only x and the interior coefficients
    c = system.interp_coeffs
    del system
    u_h = FeFunction.from_dofs(space, x, c)
    with _timed(timings, "interpolate"):
        i_h = interpolate_exact(problem.u, problem.f, space, c)
    with _timed(timings, "norms"):
        l2_ih, h1_ih, l2_true, h1_true = error_norms(u_h, i_h, problem)
    # order_* hold their JSON key position until every level is done
    row = {"level": level, "h": mesh.h, "free_dofs": dm.n_free,
           "interp_dofs": dm.n_interp, "l2_ih": l2_ih, "h1_ih": h1_ih,
           "l2_true": l2_true, "h1_true": h1_true, "order_l2": None,
           "order_h1": None, "cg_iters": stats.iterations,
           "cg_residual": stats.relative_residual}
    if est is not None:
        row["cond_est"] = est.condition
        row["lambda_max"] = est.lambda_max
        row["lambda_min"] = est.lambda_min_nonzero
        row["cond_converged"] = est.converged
    # seconds per phase, for the JSON report; CSV and text leave them out
    row["timings"] = timings
    return row


def run_experiment(config: ExperimentConfig) -> ConvergenceReport:
    """Run a level sweep (and optional baseline) per the configuration."""
    config.validate()
    problem = PROBLEMS[config.problem]
    failures: list = []
    rows = _run_family(config.family, config.degree, config.levels, problem,
                       config.tol, config.condition, failures)
    baseline_rows = None
    if config.compare:
        bfam, bk = config.baseline()
        baseline_rows = _run_family(bfam, bk, config.levels, problem,
                                    config.tol, config.condition, failures)
    return ConvergenceReport(config=config, rows=rows,
                             baseline_rows=baseline_rows, failures=failures)


def fixed_sci(v: float) -> str:
    """Fixed-point scientific notation with 3 digits: 6.14e-4 -> 0.614E-03.

    NaN and infinities print right-aligned in the same 9 columns, so an
    unconverged estimate keeps the table layout.
    """
    if not math.isfinite(v):
        return f"{'NaN' if math.isnan(v) else '-Inf' if v < 0 else 'Inf':>9s}"
    if v == 0.0:
        return "0.000E+00"
    sign = "-" if v < 0 else ""
    a = abs(v)
    e = math.floor(math.log10(a)) + 1
    mant = a / 10.0 ** e
    digits = round(mant * 1000.0)
    if digits >= 1000:
        digits = 100
        e += 1
    return f"{sign}0.{digits:03d}E{e:+03d}"


def _fmt_order(o) -> str:
    return f"{o:4.1f}" if o is not None else "  - "


def _family_label(family: str, k: int) -> str:
    names = {
        "p2c_interp": "P2 interpolated conforming",
        "p2nc_interp": "P2 interpolated nonconforming",
        "p2nc_std": "P2 nonconforming",
        "p3_interp": "P3 interpolated",
        "pk_interp": f"P{k} interpolated",
        "pk_lagrange": f"P{k} Lagrange",
    }
    return names[family]


def _text_report(report: ConvergenceReport) -> str:
    cfg = report.config
    out = io.StringIO()
    groups = [(_family_label(cfg.family, cfg.degree), report.rows)]
    if report.baseline_rows is not None:
        bfam, bk = cfg.baseline()
        groups.append((_family_label(bfam, bk), report.baseline_rows))
    head = "grid  " + " | ".join(
        f"{label:^38s}" for label, _ in groups)
    sub = "      " + " | ".join(
        f"{'||e_h||_0    h^n   |e_h|_1      h^n':38s}" for _ in groups)
    print(f"# problem={cfg.problem} family={cfg.family} k={cfg.degree}", file=out)
    print(head, file=out)
    print(sub, file=out)
    by_level = {}
    for label, rows in groups:
        for r in rows:
            by_level.setdefault(r["level"], {})[label] = r
    for level in cfg.levels:
        cells = []
        for label, _ in groups:
            r = by_level.get(level, {}).get(label)
            if r is None:
                cell = "(solver failure)"
            else:
                cell = (f"{fixed_sci(r['l2_ih'])}  {_fmt_order(r['order_l2'])}"
                        f"  {fixed_sci(r['h1_ih'])}  {_fmt_order(r['order_h1'])}")
            cells.append(f"{cell:<38s}")
        print(f"{level:4d}  " + " | ".join(cells), file=out)
    if cfg.condition:
        print("# condition estimates (lambda_max / lambda_min_nonzero / cond):", file=out)
        for label, rows in groups:
            for r in rows:
                if "cond_est" in r:
                    print(f"#   {label} level {r['level']}: "
                          f"{fixed_sci(r['lambda_max'])} / {fixed_sci(r['lambda_min'])}"
                          f" / {fixed_sci(r['cond_est'])}", file=out)
    return out.getvalue()


def _csv_report(report: ConvergenceReport) -> str:
    out = io.StringIO()
    extra = ["cond_est"] if report.config.condition else []
    fields = ["family"] + list(_ROW_KEYS) + extra
    w = csv.DictWriter(out, fieldnames=fields, extrasaction="ignore", lineterminator="\n")
    w.writeheader()
    groups = [(report.config.family, report.rows)]
    if report.baseline_rows is not None:
        groups.append((report.config.baseline()[0], report.baseline_rows))
    for fam, rows in groups:
        for r in rows:
            w.writerow({"family": fam, **r})
    return out.getvalue()


def emit_report(report: ConvergenceReport, output_format: str) -> str:
    """Render the report as text, csv or json."""
    if output_format == "text":
        return _text_report(report)
    if output_format == "csv":
        return _csv_report(report)
    if output_format == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    raise ValueError(f"unknown format {output_format!r}")


def _parse_levels(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return (int(text),)


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="igfem",
        description="Poisson convergence studies with interpolated Galerkin elements")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--degree", type=int, default=None,
                   help="polynomial degree (pk families only)")
    p.add_argument("--levels", default="2..4", metavar="A..B",
                   help="inclusive level range, e.g. 4..7")
    p.add_argument("--problem", default="sine", help="problem registry name")
    p.add_argument("--format", dest="output_format", default="text",
                   choices=("text", "csv", "json"))
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    p.add_argument("--compare", action="store_true",
                   help="run the matching baseline family side by side")
    p.add_argument("--condition", action="store_true",
                   help="estimate extreme eigenvalues of each system")
    p.add_argument("--tol", type=float, default=1e-13,
                   help="CG stops when its recursively updated residual is below "
                        "TOL * ||F||; the true residual (cg_residual) may read higher")
    return p


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        levels = _parse_levels(args.levels)
        config = ExperimentConfig(
            family=args.family, degree=args.degree, levels=levels,
            problem=args.problem, tol=args.tol, compare=args.compare,
            condition=args.condition)
        config.validate()
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = run_experiment(config)
    payload = emit_report(report, args.output_format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(payload)
    return EXIT_SOLVER if report.failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
