import json
import logging
import os
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy

import igfem.cli
from igfem.cli import (ConvergenceReport, ExperimentConfig, PROBLEMS, emit_report,
                       main, fixed_sci, run_experiment, _parse_levels)
from igfem.solver import SolveStats, SolverError


@pytest.mark.parametrize("value,expected", [
    (6.14e-4, "0.614E-03"),
    (0.499e-1, "0.499E-01"),
    (1.0, "0.100E+01"),
    (0.118e-9, "0.118E-09"),
    (123.4, "0.123E+03"),
    (0.0, "0.000E+00"),
    (-6.14e-4, "-0.614E-03"),
    (9.999e-5, "0.100E-03"),   # mantissa rounding carries into the exponent
    (0.1, "0.100E+00"),
    # non-finite values keep the 9-column width of a finite one
    pytest.param(float("nan"), "      NaN", id="nan"),
    pytest.param(float("inf"), "      Inf", id="inf"),
    pytest.param(float("-inf"), "     -Inf", id="-inf"),
])
def test_fixed_sci(value, expected):
    assert fixed_sci(value) == expected


def test_text_report_with_unconverged_estimate():
    cfg = ExperimentConfig(family="p2nc_interp", levels=(2,), condition=True)
    cfg.validate()
    row = {"level": 2, "h": 0.5, "free_dofs": 9, "interp_dofs": 16,
           "l2_ih": 1e-3, "h1_ih": 1e-2, "l2_true": 1e-3, "h1_true": 1e-2,
           "order_l2": None, "order_h1": None, "cg_iters": 5,
           "cond_est": float("nan"), "lambda_max": 2.5, "lambda_min": float("nan"),
           "cond_converged": False}
    text = emit_report(ConvergenceReport(config=cfg, rows=[row]), "text")
    assert "level 2: 0.250E+01 /       NaN /       NaN" in text


def test_fixed_sci_round_trip_magnitude():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = 10.0 ** rng.uniform(-12, 3)
        s = fixed_sci(v)
        assert abs(float(s) - v) <= 5.2e-3 * v   # 3 significant digits
        mant = float(s.split("E")[0])
        assert 0.1 <= abs(mant) < 1.0


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_problem_consistency(name):
    # f must equal -Lap u, and u_grad's gradient the gradient of its u;
    # check by finite differences
    pr = PROBLEMS[name]
    rng = np.random.default_rng(1)
    for x, y in rng.uniform(0.1, 0.9, size=(10, 2)):
        h = 1e-5
        lap = (pr.u(x + h, y) + pr.u(x - h, y) + pr.u(x, y + h) + pr.u(x, y - h)
               - 4 * pr.u(x, y)) / h ** 2
        assert -lap == pytest.approx(pr.f(x, y), rel=1e-5)
        u, g = pr.u_grad(x, y)
        assert u == pr.u(x, y)
        gx = (pr.u(x + h, y) - pr.u(x - h, y)) / (2 * h)
        gy = (pr.u(x, y + h) - pr.u(x, y - h)) / (2 * h)
        assert g[0] == pytest.approx(gx, rel=1e-7, abs=1e-9)
        assert g[1] == pytest.approx(gy, rel=1e-7, abs=1e-9)
    # u's own closed form has u_grad's bits on arrays too
    x, y = rng.uniform(0.0, 1.0, size=(2, 3, 1000))
    assert np.array_equal(pr.u(x, y), pr.u_grad(x, y)[0])


def test_parse_levels():
    assert _parse_levels("4..7") == (4, 5, 6, 7)
    assert _parse_levels("3") == (3,)


def test_config_validation():
    cfg = ExperimentConfig(family="p2c_interp", levels=(1, 2))
    cfg.validate()
    assert cfg.degree == 2
    with pytest.raises(ValueError):
        ExperimentConfig(family="p2c_interp", levels=()).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(family="p2c_interp", levels=(3, 2)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(family="p2c_interp", levels=(1, 10)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(family="pk_interp", degree=3, levels=(1,)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(family="p2c_interp", levels=(1,), problem="bogus").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(family="p2nc_std", levels=(1,), compare=True).validate()
    with pytest.raises(ValueError):
        emit_report(ConvergenceReport(config=cfg), "xml")


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(family="p3_interp", levels=(1, 2, 3), compare=True)
    return run_experiment(cfg)


def test_report_rows_and_orders(small_report):
    rows = small_report.rows
    assert [r["level"] for r in rows] == [1, 2, 3]
    assert rows[0]["order_l2"] is None
    assert rows[1]["order_l2"] is not None
    assert rows[1]["h"] == 0.5
    assert rows[2]["l2_ih"] < rows[1]["l2_ih"] < rows[0]["l2_ih"]
    # P3 converges at fourth order in L2
    assert rows[2]["order_l2"] == pytest.approx(4.0, abs=0.6)
    assert small_report.baseline_rows is not None


def _config_json(cfg):
    """The JSON form of a configuration: its fields in order, levels as a list."""
    return {"family": cfg.family, "degree": cfg.degree, "levels": list(cfg.levels),
            "problem": cfg.problem, "tol": cfg.tol, "compare": cfg.compare,
            "condition": cfg.condition}


def test_json_round_trip(small_report):
    data = json.loads(emit_report(small_report, "json"))
    assert data == {"config": _config_json(small_report.config),
                    "env": small_report.env, "rows": small_report.rows,
                    "baseline_rows": small_report.baseline_rows}
    assert list(data) == ["config", "env", "rows", "baseline_rows"]
    assert list(data["config"]) == list(_config_json(small_report.config))
    assert all("timings" in r for r in data["rows"] + data["baseline_rows"])


def test_csv_shape(small_report):
    payload = emit_report(small_report, "csv")
    lines = payload.strip().split("\n")
    assert len(lines) == 1 + 2 * 3  # header + (primary + baseline) * levels
    assert lines[0].startswith("family,level,h,")


def test_text_report_shape(small_report):
    text = emit_report(small_report, "text")
    assert "0." in text and "E-0" in text
    lines = [l for l in text.split("\n") if l.strip().startswith(("1", "2", "3"))]
    assert len(lines) == 3


def test_empty_rows_report_is_valid():
    cfg = ExperimentConfig(family="p3_interp", levels=(1,))
    cfg.validate()
    rep = ConvergenceReport(config=cfg, rows=[])
    for fmt in ("text", "csv", "json"):
        payload = emit_report(rep, fmt)
        assert isinstance(payload, str) and payload


def without_timings(rows):
    """Report rows without their wall times, the one field that varies run to run."""
    return [{key: v for key, v in r.items() if key != "timings"} for r in rows]


def test_reports_byte_identical_across_runs():
    cfg1 = ExperimentConfig(family="p2nc_interp", levels=(1, 2))
    cfg2 = ExperimentConfig(family="p2nc_interp", levels=(1, 2))
    rep1, rep2 = run_experiment(cfg1), run_experiment(cfg2)
    for fmt in ("text", "csv"):
        assert emit_report(rep1, fmt) == emit_report(rep2, fmt)
    # JSON rows also carry wall times; everything else is byte-identical
    r1, r2 = (json.loads(emit_report(rep, "json")) for rep in (rep1, rep2))
    r1["rows"], r2["rows"] = without_timings(r1["rows"]), without_timings(r2["rows"])
    assert json.dumps(r1, indent=2) == json.dumps(r2, indent=2)


def test_compare_does_not_change_primary_rows():
    base = run_experiment(ExperimentConfig(family="p3_interp", levels=(1, 2)))
    both = run_experiment(ExperimentConfig(family="p3_interp", levels=(1, 2),
                                           compare=True))
    assert without_timings(base.rows) == without_timings(both.rows)


def test_condition_flag_adds_estimates():
    rep = run_experiment(ExperimentConfig(family="p3_interp", levels=(2,),
                                          condition=True))
    row = rep.rows[0]
    assert "cond_est" in row and row["cond_est"] > 1.0
    assert row["lambda_max"] > row["lambda_min"] > 0.0
    assert row["cond_converged"] is True
    # lambda_min is the smallest eigenvalue; no null space is split off
    for fmt in ("json", "csv", "text"):
        assert "null_dim" not in emit_report(rep, fmt)
    # the JSON report carries the estimate's status; CSV and text do not
    data = json.loads(emit_report(rep, "json"))
    assert data["rows"][0]["cond_converged"] is True
    assert "cond_converged" not in emit_report(rep, "csv")
    # so does the CG residual, which is 0.0 where there is nothing to solve
    assert 0.0 < row["cg_residual"] <= 1e-13
    assert data["rows"][0]["cg_residual"] == row["cg_residual"]
    for fmt in ("csv", "text"):
        assert "cg_residual" not in emit_report(rep, fmt)
    empty = run_experiment(ExperimentConfig(family="p2c_interp", levels=(1,)))
    assert empty.rows[0]["free_dofs"] == 0 and empty.rows[0]["cg_residual"] == 0.0
    # JSON rows time every phase of their level, the condition estimate only
    # where one was made; CSV and text leave the timings out
    phases = {"mesh", "space", "assemble", "cg", "interpolate", "norms"}
    for r, want in ((data["rows"][0], phases | {"condition"}),
                    (json.loads(emit_report(empty, "json"))["rows"][0], phases)):
        assert set(r["timings"]) == want
        assert all(isinstance(v, float) and v >= 0.0 for v in r["timings"].values())
    for report in (rep, empty):
        for fmt in ("csv", "text"):
            assert "timings" not in emit_report(report, fmt)


@pytest.mark.parametrize("condition", [False, True])
def test_one_level_held_at_a_time(monkeypatch, condition):
    # a level's system is gone when the next level is assembled, and A is
    # gone before the level's interpolant: the condition estimate comes first
    systems = []      # weak references to each level's A
    assemble, interpolate = igfem.cli.assemble_system, igfem.cli.interpolate_exact

    def recording_assemble(space, f):
        assert all(ref() is None for ref in systems)
        system = assemble(space, f)
        systems.append(weakref.ref(system.A))
        return system

    def checking_interpolate(*args):
        assert systems[-1]() is None
        return interpolate(*args)

    monkeypatch.setattr(igfem.cli, "assemble_system", recording_assemble)
    monkeypatch.setattr(igfem.cli, "interpolate_exact", checking_interpolate)
    report = run_experiment(ExperimentConfig(family="p3_interp", levels=(1, 2, 3),
                                             compare=True, condition=condition))
    assert len(systems) == 6 and all(ref() is None for ref in systems)
    # the rows keep their key order, and the timings their phase order
    estimate = ["cond_est", "lambda_max", "lambda_min", "cond_converged"] * condition
    for row in report.rows + report.baseline_rows:
        assert list(row) == ["level", "h", "free_dofs", "interp_dofs", "l2_ih", "h1_ih",
                             "l2_true", "h1_true", "order_l2", "order_h1", "cg_iters",
                             "cg_residual", *estimate, "timings"]
        assert list(row["timings"]) == ["mesh", "space", "assemble", "cg",
                                        *["condition"] * condition, "interpolate", "norms"]


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--family", "p3_interp", "--levels", "1..2",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["family"] == "p3_interp"
    assert len(data["rows"]) == 2
    assert capsys.readouterr().out == ""

    # without --out the report goes to stdout
    assert main(["--family", "p3_interp", "--levels", "1..2", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("family,level,")

    assert main(["--family", "pk_interp", "--levels", "1..2"]) == 2  # no degree
    assert main(["--family", "p3_interp", "--levels", "7..5"]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing-dir" / "report.txt"
    assert main(["--family", "p3_interp", "--levels", "1..2", "--out", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report to {missing}: ")


def test_solver_failure_is_logged(monkeypatch, caplog, capsys):
    def failing_cg(A, F, rel_tol):
        stats = SolveStats(iterations=7, relative_residual=1e-3)
        raise SolverError("no convergence", stats)

    monkeypatch.setattr(igfem.cli, "cg_solve", failing_cg)
    with caplog.at_level(logging.WARNING, logger="igfem.cli"):
        code = main(["--family", "p3_interp", "--levels", "1..2"])
    assert code == 3
    # a level that failed in every family still gets its line
    assert capsys.readouterr().out.split("\n")[3:] == [
        f"{level:4d}  {'(solver failure)':<38s}" for level in (1, 2)] + [""]
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("igfem.cli", logging.WARNING, f"solver failure: p3_interp level {level}: "
                                        "no convergence") for level in (1, 2)]
    report = run_experiment(ExperimentConfig(family="p3_interp", levels=(1, 2)))
    assert report.rows == []
    assert report.failures == [(1, "p3_interp level 1: no convergence"),
                               (2, "p3_interp level 2: no convergence")]
    assert json.loads(emit_report(report, "json"))["failures"] == [
        [1, "p3_interp level 1: no convergence"], [2, "p3_interp level 2: no convergence"]]


def test_json_report_records_environment(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    report = run_experiment(ExperimentConfig(family="p2c_interp", levels=(1,)))
    data = json.loads(emit_report(report, "json"))
    env = data["env"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "blas_version",
                        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert isinstance(env["blas"], str) and env["blas"]
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] is None
    # no baseline and no failures: the report leaves both keys out
    assert data == {"config": _config_json(report.config), "env": report.env,
                    "rows": report.rows}
    for fmt in ("csv", "text"):
        assert "OPENBLAS" not in emit_report(report, fmt)


def _src_env():
    """The environment with igfem's source directory on PYTHONPATH."""
    src = str(Path(igfem.cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_leaves_scipy_solver_modules_unloaded():
    # scipy.linalg and scipy.sparse.linalg add to the resident memory of
    # every run; igfem needs neither
    code = ("import sys, igfem; print(sorted(m for m in sys.modules "
            "if m in ('scipy.linalg', 'scipy.sparse.linalg')))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_module_run_warns_nothing():
    # runpy warns when the package imports igfem.cli before it runs as __main__
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "igfem.cli",
                          "--family", "p2c_interp", "--levels", "1..1"],
                         env=_src_env(), capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == ""
    assert "P2 interpolated conforming" in out.stdout


def test_package_reexports_cli_names():
    import igfem
    assert igfem.PROBLEMS is PROBLEMS and igfem.run_experiment is run_experiment
    with pytest.raises(AttributeError):
        igfem.no_such_name
