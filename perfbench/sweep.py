"""One sample of the igfem sweep benchmark, in a process of its own.

    sweep.py --mode env                    import igfem; report the environment
    sweep.py --mode setup  --workload W    level-1 sweep of W, checked (the caller
                                           times the whole process)
    sweep.py --mode sweep  --workload W    time one sweep and check its outputs;
             [--trace] [--smoke]           --trace records layer spans
    sweep.py --mode record --workload W    print W's table for reference.json

A sweep is what one CLI invocation does: `igfem.cli.run_experiment`, then
`emit_report` in text and in json. The result is one JSON object on the
last line of stdout. `run.py` starts this script with the BLAS thread count
pinned and the checkout's `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import PINNED_ENV, config_kwargs, reference_key

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
DENSE_MAX_N = 1000       # dense eigensolve check only up to this size
DENSE_REL_TOL = 0.02     # acceptance criterion 8's bound
NULL_REL = 1e-9          # estimate_condition's null threshold, relative to lambda_max


def import_cli():
    import igfem
    import igfem.cli
    if not Path(igfem.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"igfem was imported from {igfem.__file__}, not from {SRC}")
    return igfem.cli


def environment() -> dict:
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:                          # numpy < 1.26 only prints
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            numpy.show_config()
        blas = buf.getvalue()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "threads": {k: os.environ.get(k) for k in PINNED_ENV}}


def warm_blas() -> None:
    """Start the BLAS and LAPACK paths a sweep uses before any timed region."""
    import numpy as np
    import scipy.sparse as sp
    a = np.random.default_rng(0).standard_normal((120, 120))
    s = a @ a.T + 120.0 * np.eye(120)
    np.linalg.solve(s, np.ones(120))
    np.linalg.eigvalsh(s)
    np.linalg.lstsq(a[:, :6], np.ones(120), rcond=None)
    sp.csr_matrix(s) @ np.ones(120)


def make_config(cli, workload: str, smoke: bool = False, levels=None):
    return cli.ExperimentConfig(**config_kwargs(workload, smoke, levels))


def run_sweep(cli, config, tracer=None):
    """The timed region. Returns the report (None if the run raised) and
    the exceptions raised, keyed by operation."""
    if tracer is None:
        def call(_name, fn, *args):
            return fn(*args)
    else:
        call = tracer.call
    errors = {}
    try:
        report = call("cli.run_experiment", cli.run_experiment, config)
    except Exception as exc:
        return None, {"run_experiment": exc}
    for fmt in ("text", "json"):
        try:
            call("cli.emit", cli.emit_report, report, fmt)
        except Exception as exc:
            errors[f"emit_{fmt}"] = exc
    return report, errors


# The system matrix is igfem's CsrMatrix today; these two also accept a
# scipy sparse array, which may replace it.
def _size(A) -> int:
    return A.shape[0] if hasattr(A, "shape") else A.n


def _dense(A):
    return A.toarray() if hasattr(A, "toarray") else A.to_dense()


@contextlib.contextmanager
def captured_estimates(into: list):
    """Keep each condition estimate, with its matrix when small enough for
    the dense check, in call order."""
    def make(fn):
        def capture(A, *args, **kwargs):
            est = fn(A, *args, **kwargs)
            into.append((A if _size(A) <= DENSE_MAX_N else None, est))
            return est
        return capture
    with tracing.patched("igfem.solver", "estimate_condition", make):
        yield


def _order_text(o) -> str:
    # as igfem.cli prints observed orders
    return f"{o:4.1f}" if o is not None else "  - "


def families(config) -> list[str]:
    """The families a sweep of `config` runs, in report order."""
    return [config.family] + [config.baseline()[0]] * bool(config.compare)


def family_rows(config, report) -> list[tuple[str, list]]:
    rows = [report.rows, report.baseline_rows or []]
    return list(zip(families(config), rows))


def table(cli, config, report) -> dict:
    """The checked outputs, per family and level, as the text report prints them."""
    out = {}
    for family, rows in family_rows(config, report):
        out[family] = {str(r["level"]): {
            "l2_ih": cli.fixed_sci(r["l2_ih"]), "order_l2": _order_text(r["order_l2"]),
            "h1_ih": cli.fixed_sci(r["h1_ih"]), "order_h1": _order_text(r["order_h1"]),
            "free_dofs": r["free_dofs"], "interp_dofs": r["interp_dofs"],
            "cg_iters": r["cg_iters"]} for r in rows}
    return out


# The fields of a row checked against the record, by the operation charged
# with a mismatch.
_CHECKED = {"space": ("free_dofs", "interp_dofs"), "cg": ("cg_iters",),
            "norms": ("l2_ih", "order_l2", "h1_ih", "order_h1")}


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def score(cli, config, report, errors, estimates, reference) -> dict:
    """Count operations and failures of one sweep.

    One operation is one layer call per level and family: mesh, space,
    assembly, CG solve, interpolant, the two error norms, and the condition
    estimate when asked for; plus the two report emissions. A call fails
    when it raises, when CG does not converge, when a condition estimate is
    unconverged or non-finite, or when its output differs from the record.
    """
    n_families = 2 if config.compare else 1
    failures, mismatches = [], []
    attempted = failed = 0
    for name, exc in errors.items():
        failures.append(f"{name}: " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip())
    if report is None:
        attempted = failed = (7 + config.condition) * len(config.levels) * n_families + 2
        mismatches += [f"{family} level {level}: no row, run_experiment raised"
                       for family in families(config) for level in config.levels]
        return {"attempted": attempted, "failed": failed, "failures": failures,
                "mismatches": mismatches}
    failures += [message for _, message in report.failures]
    got = table(cli, config, report)
    estimates = iter(estimates)
    for family, rows in family_rows(config, report):
        by_level = {r["level"]: r for r in rows}
        for level in config.levels:
            row = by_level.get(level)
            if row is None:
                # the CLI drops a level whose CG solve raised SolverError;
                # the interpolant, norms and estimate were not attempted
                attempted += 4
                failed += 1
                mismatches.append(f"{family} level {level}: no row in the report")
                continue
            attempted += 7 + ("cond_est" in row)
            expected = reference[family][str(level)]
            for op, fields in _CHECKED.items():
                diff = [f"{f}={got[family][str(level)][f]!r} (record {expected[f]!r})"
                        for f in fields if got[family][str(level)][f] != expected[f]]
                if diff:
                    failed += 1
                    mismatches.append(f"{family} level {level} {op}: " + ", ".join(diff))
            if "cond_est" in row:
                _, est = next(estimates)
                if not (est.converged and _finite(est.lambda_max,
                                                  est.lambda_min_nonzero,
                                                  est.condition)):
                    failed += 1
                    failures.append(
                        f"{family} level {level}: condition estimate "
                        f"converged={est.converged} lambda_max={est.lambda_max!r} "
                        f"lambda_min_nonzero={est.lambda_min_nonzero!r} "
                        f"null_dim={est.null_dim}")
    attempted += 2
    failed += sum(name.startswith("emit_") for name in errors)
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "mismatches": mismatches}


def dense_check(config, report, estimates) -> list[dict]:
    """Compare each estimate of a small matrix with a dense eigensolve."""
    import numpy as np
    if report is None:
        return []
    cases = [(family, r["level"]) for family, rows in family_rows(config, report)
             for r in rows if "cond_est" in r]
    findings = []
    for (family, level), (A, est) in zip(cases, estimates):
        if A is None:
            continue
        ew = np.linalg.eigvalsh(_dense(A))
        null = ew <= NULL_REL * ew[-1]
        lam_min = float(ew[~null][0])
        err_max = abs(est.lambda_max - ew[-1]) / ew[-1]
        err_min = abs(est.lambda_min_nonzero - lam_min) / lam_min
        findings.append({
            "family": family, "level": level, "n": _size(A),
            "lambda_max": est.lambda_max, "dense_lambda_max": float(ew[-1]),
            "lambda_min_nonzero": est.lambda_min_nonzero,
            "dense_lambda_min_nonzero": lam_min,
            "null_dim": est.null_dim, "dense_null_dim": int(null.sum()),
            "rel_err_max": err_max, "rel_err_min": err_min,
            "within_bound": bool(err_max <= DENSE_REL_TOL and err_min <= DENSE_REL_TOL)})
    return findings


def row_counts(config, report) -> dict:
    free = interp = 0
    if report is not None:
        for _, rows in family_rows(config, report):
            free += sum(r["free_dofs"] for r in rows)
            interp += sum(r["interp_dofs"] for r in rows)
    return {"assembly.free_dofs": free, "assembly.interp_dofs": interp,
            "assembly.interp_share": interp / (free + interp) if free + interp else 0.0}


def load_reference(workload: str, smoke: bool) -> dict:
    return json.loads(REFERENCE.read_text())["workloads"][reference_key(workload, smoke)]


def sweep_sample(cli, args) -> dict:
    reference = load_reference(args.workload, args.smoke)
    config = make_config(cli, args.workload, args.smoke)
    warm_blas()
    estimates: list = []
    tracer = tracing.Tracer(args.sweep_id) if args.trace else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing.installed(tracer))
        stack.enter_context(captured_estimates(estimates))
        t0 = time.perf_counter()
        report, errors = run_sweep(cli, config, tracer)
        sweep_s = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux; read it before the dense check allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"sweep_s": sweep_s, "peak_rss_mb": peak_rss_mb,
              **score(cli, config, report, errors, estimates, reference),
              "dense_check": dense_check(config, report, estimates)}
    if tracer is not None:
        spans = tracer.as_dicts()
        result["layers"] = {**tracing.layer_metrics(spans), **row_counts(config, report)}
        result["spans"] = spans
        # what the wrappers cost: a no-op's traced call, once per span
        result["call_cost_s"] = tracing.call_cost()
        result["overhead_s"] = result["call_cost_s"] * len(spans)
    return result


def setup_sample(cli, args) -> dict:
    """A level-1 sweep of the workload, checked against level 1 of the
    smoke record (the caller times the whole process)."""
    config = make_config(cli, args.workload, levels=(1,))
    estimates: list = []
    with captured_estimates(estimates):
        report, errors = run_sweep(cli, config)
    return score(cli, config, report, errors, estimates,
                 load_reference(args.workload, smoke=True))


def record_sample(cli, args) -> dict:
    config = make_config(cli, args.workload, args.smoke)
    warm_blas()
    report, errors = run_sweep(cli, config)
    if report is None:
        raise SystemExit(f"cannot record: {errors['run_experiment']!r}")
    return table(cli, config, report)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", required=True, choices=("env", "setup", "sweep", "record"))
    p.add_argument("--workload")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--sweep-id", type=int, default=0, help="span id of the sweep")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    wrong = {k: os.environ.get(k) for k, v in PINNED_ENV.items() if os.environ.get(k) != v}
    if wrong:
        raise SystemExit(f"thread settings must be {PINNED_ENV}, got {wrong}")
    cli = import_cli()
    if args.mode == "env":
        result = environment()
    elif args.mode == "setup":
        result = setup_sample(cli, args)
    elif args.mode == "sweep":
        result = sweep_sample(cli, args)
    else:
        result = record_sample(cli, args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
