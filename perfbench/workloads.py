"""Workloads of the igfem sweep benchmark.

Each workload is one level sweep of an element family against its baseline
(the CLI's `--compare`), on the `sine` problem at the default CG tolerance.
A run is a closed loop: one sweep at a time, each in its own process.

- p2nc-fine: many small elements (4,096 triangles at level 6), so the
  per-element Python loops and the per-triangle p2nc least-squares
  interpolant dominate.
- pk8-coarse: few elements with large local bases (45 functions, degree-16
  quadrature), so space construction and the nb^2 assembly scatter dominate,
  and CG runs hundreds of iterations.
- conditioning: the p2nc-fine pair with `--condition`; unpreconditioned
  inverse-iteration solves take most of the time.

`smoke_levels` replaces the level range in the fast smoke mode.
"""

# Child processes run with one BLAS thread: `cg_iters` depends on the BLAS
# thread count, and the reference record was made with one.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

WORKLOADS = {
    "p2nc-fine": {
        "config": {"family": "p2nc_interp", "levels": (3, 4, 5, 6),
                   "compare": True},
        "smoke_levels": (1, 2),
    },
    "pk8-coarse": {
        "config": {"family": "pk_interp", "degree": 8, "levels": (1, 2, 3, 4),
                   "compare": True},
        "smoke_levels": (1, 2),
    },
    "conditioning": {
        "config": {"family": "p2nc_interp", "levels": (2, 3, 4, 5),
                   "compare": True, "condition": True},
        "smoke_levels": (1, 2),
    },
}


def config_kwargs(workload: str, smoke: bool = False, levels=None) -> dict:
    """Keyword arguments of `igfem.cli.ExperimentConfig` for a workload."""
    kwargs = dict(WORKLOADS[workload]["config"])
    if smoke:
        kwargs["levels"] = WORKLOADS[workload]["smoke_levels"]
    if levels is not None:
        kwargs["levels"] = tuple(levels)
    return kwargs


def reference_key(workload: str, smoke: bool) -> str:
    """Key of a workload's rows in reference.json."""
    return f"{workload}@smoke" if smoke else workload
