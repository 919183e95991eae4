"""In-memory spans around igfem's layer entry points.

The benchmark wraps, from its own files, the functions that `igfem.cli`
calls, plus `igfem.assembly.build_dof_map` (called by `build_space`) and
`igfem.solver.cg_solve` (also called by `estimate_condition`), so nested
calls become child spans. Each wrapper replaces the name both in the module
that defines it and in `igfem.cli`. Nothing in the package itself changes.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    sweep: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per wrapped call; spans of one sweep share `sweep`."""

    def __init__(self, sweep: int):
        self.sweep = sweep
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def call(self, name, fn, *args, counts=None, **kwargs):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), self.sweep, name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            stats = getattr(exc, "stats", None)     # SolverError carries its stats
            if stats is not None:
                span.counts = {"iters": stats.iterations}
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            span.counts = counts(out)
        return out

    def as_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# (span name, defining module, function name, counts taken from the result)
LAYER_ENTRY_POINTS = (
    ("mesh.build", "igfem.mesh", "build_crisscross_mesh",
     lambda mesh: {"triangles": len(mesh.triangles)}),
    ("elements.build_space", "igfem.assembly", "build_space", None),
    ("assembly.build_dof_map", "igfem.assembly", "build_dof_map", None),
    ("assembly.assemble", "igfem.assembly", "assemble_system",
     lambda system: {"nnz": int(system.A.nnz)}),
    ("solver.cg", "igfem.solver", "cg_solve",
     lambda out: {"iters": out[1].iterations}),
    ("solver.condition", "igfem.solver", "estimate_condition",
     lambda est: {"converged": bool(est.converged)}),
    ("analysis.interpolate", "igfem.analysis", "interpolate_exact", None),
    ("analysis.norms", "igfem.analysis", "error_norms", None),
)


def _wrap(tracer: Tracer, name: str, fn, counts):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, counts=counts, **kwargs)
    return traced


@contextlib.contextmanager
def patched(module_name: str, attr: str, make_wrapper):
    """Replace `attr` in its module and in `igfem.cli` with one wrapper."""
    module = importlib.import_module(module_name)
    cli = importlib.import_module("igfem.cli")
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    targets = [m for m in (module, cli) if getattr(m, attr, None) is original]
    for m in targets:
        setattr(m, attr, wrapper)
    try:
        yield wrapper
    finally:
        for m in targets:
            setattr(m, attr, original)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every layer entry point for the duration of the block."""
    with contextlib.ExitStack() as stack:
        for name, module, attr, counts in LAYER_ENTRY_POINTS:
            stack.enter_context(patched(
                module, attr,
                lambda fn, name=name, counts=counts: _wrap(tracer, name, fn, counts)))
        yield tracer


def call_cost(calls: int = 2000, repeats: int = 7) -> float:
    """Seconds a traced call adds to a bare one, the median of `repeats`
    loops of `calls` no-op calls through the same wrapper as a layer."""
    def noop():
        return None

    def loop(fn) -> float:
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t

    costs = []
    for _ in range(repeats):
        wrapped = _wrap(Tracer(-1), "noop", noop, lambda out: {})
        costs.append((loop(wrapped) - loop(noop)) / calls)
    return statistics.median(costs)


# Per-layer seconds, keyed by span name. Nested CG solves of the condition
# estimator are charged to `solver.condition_s`, so that every span's self
# time lands in exactly one metric.
_TIME_METRIC = {
    "mesh.build": "mesh.build_s",
    "assembly.build_dof_map": "assembly.build_dof_map_s",
    "elements.build_space": "elements.build_s",
    "assembly.assemble": "assembly.assemble_s",
    "analysis.interpolate": "analysis.interpolate_s",
    "analysis.norms": "analysis.norms_s",
    "solver.cg": "solver.cg_s",
    "solver.condition": "solver.condition_s",
    "cli.emit": "cli.emit_s",
    "cli.run_experiment": "cli.self_s",
}


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer self times and counts of one sweep's spans."""
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {m: 0.0 for m in _TIME_METRIC.values()}
    out.update({"solver.cg_iters": 0, "solver.condition_cg_calls": 0,
                "solver.condition_cg_iters": 0, "mesh.triangles": 0,
                "assembly.nnz": 0})
    conditions = converged = 0
    for s in spans:
        self_s = s["end"] - s["start"] - child_time[s["id"]]
        parent = by_id.get(s["parent"])
        nested_cg = (s["name"] == "solver.cg" and parent is not None
                     and parent["name"] == "solver.condition")
        metric = "solver.condition_s" if nested_cg else _TIME_METRIC[s["name"]]
        out[metric] += self_s
        counts = s["counts"]
        if s["name"] == "solver.cg":
            key = "solver.condition_cg_iters" if nested_cg else "solver.cg_iters"
            out[key] += counts.get("iters", 0)
            if nested_cg:
                out["solver.condition_cg_calls"] += 1
        elif s["name"] == "solver.condition":
            conditions += 1
            converged += bool(counts.get("converged"))
        elif s["name"] == "mesh.build":
            out["mesh.triangles"] += counts.get("triangles", 0)
        elif s["name"] == "assembly.assemble":
            out["assembly.nnz"] += counts.get("nnz", 0)
    # no estimate attempted: none failed to converge
    out["solver.condition_converged_ratio"] = converged / conditions if conditions else 1.0
    return out
