"""igfem sweep benchmark.

    python3 perfbench/run.py --workload p2nc-fine --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py) from the root of a source checkout;
the package is imported from `src/`, nothing is installed. Every sample is
a fresh process (sweep.py) with one BLAS thread. The seed fixes the order
in which the samples of a run are interleaved; the inputs themselves are
deterministic.

--trace 0 measures, for `--seconds`, whole sweeps (`run_experiment` plus
text and json emission) and set-up samples (a fresh interpreter importing
igfem and finishing a level-1 sweep), and prints the end-to-end metrics.
--trace 1 alternates traced and untraced sweeps and prints per-layer
metrics from the spans. The tracing overhead is the cost of one traced
no-op call, measured in the traced process, times its number of spans;
the difference of the traced and untraced median sweep times is printed
beside it.

Every sweep's table, and level 1 of every set-up sample's, is checked
against reference.json, recorded from the seed commit; a level with no
row counts as a mismatch. The metric names and units come from
BENCHMARK.json. The last line of stdout is one JSON object with `correct`
(no output differs from the record and no set-up sample failed), `attempted` and `failed` (operations,
as sweep.py counts them) and `metrics`. Details of every sample, the spans
of traced sweeps and the environment go to perfbench/out/.

--smoke runs levels 1..2 of each workload. --record rewrites
reference.json from the current code; only do that on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PINNED_ENV, WORKLOADS, reference_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"



def metric_units() -> tuple[dict, dict]:
    """Names and units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


SETUP_SAMPLES = 9
MIN_SWEEPS = 2
MAX_SWEEPS = 24
DEADLINE_S = 150.0   # no sample starts that would end later; the run must end by 180 s


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def run_child(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "sweep.py"), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sweep.py {' '.join(args)} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"sweep.py {' '.join(args)} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Run:
    """Schedules the samples of one run and keeps them."""

    def __init__(self, args):
        self.args = args
        self.rng = random.Random(args.seed)
        self.t0 = time.monotonic()
        self.samples: list[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def fits(self, done: int, minimum: int, estimate: float) -> bool:
        """Whether another sample of `estimate` seconds should start."""
        end = self.elapsed() + estimate
        if end > DEADLINE_S:
            return False
        return done < minimum or end <= self.args.seconds

    def sweep(self, traced: bool) -> dict:
        args = ["--mode", "sweep", "--workload", self.args.workload]
        args += ["--trace"] * traced + ["--smoke"] * self.args.smoke
        args += ["--sweep-id", str(len(self.samples))]
        sample = run_child(args, timeout=max(DEADLINE_S + 20 - self.elapsed(), 10.0))
        sample["kind"] = "traced" if traced else "sweep"
        self.samples.append(sample)
        return sample

    def setup(self) -> dict:
        t = time.perf_counter()
        out = run_child(["--mode", "setup", "--workload", self.args.workload],
                        timeout=60.0)
        sample = {"kind": "setup", "setup_s": time.perf_counter() - t, **out}
        self.samples.append(sample)
        return sample

    def plain(self) -> None:
        """Sweeps for `--seconds`, with set-up samples interleaved."""
        # set-up samples spread among the sweeps that always fit; sweeps
        # beyond those run only while time is left
        tokens = ["setup"] * SETUP_SAMPLES + ["sweep"] * (MIN_SWEEPS + 1)
        self.rng.shuffle(tokens)
        tokens += ["sweep"] * (MAX_SWEEPS - MIN_SWEEPS - 1)
        sweeps: list[float] = []
        for token in tokens:
            if token == "setup":
                self.setup()
            elif self.fits(len(sweeps), MIN_SWEEPS,
                           statistics.median(sweeps) if sweeps else 0.0):
                sweeps.append(self.sweep(traced=False)["sweep_s"])

    def traced(self) -> None:
        """Pairs of one traced and one untraced sweep, in seeded order."""
        pair_s: list[float] = []
        for _ in range(MAX_SWEEPS // 2):
            if not self.fits(len(pair_s), 1, statistics.median(pair_s) if pair_s else 0.0):
                break
            first = self.rng.random() < 0.5
            t = time.monotonic()
            self.sweep(traced=first)
            self.sweep(traced=not first)
            pair_s.append(time.monotonic() - t)

    def of(self, kind: str) -> list[dict]:
        return [s for s in self.samples if s["kind"] == kind]


def metrics(run: Run, trace: bool, attempted: int, failed: int) -> dict:
    end_to_end, per_layer = metric_units()
    sweeps, traced = run.of("sweep"), run.of("traced")
    if not trace:
        values = {
            "sweep_s": statistics.median(s["sweep_s"] for s in sweeps),
            "setup_s": statistics.median(s["setup_s"] for s in run.of("setup")),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
        }
        return {k: {"value": values[k], "unit": u} for k, u in end_to_end.items()}
    # seconds metrics whose sum is the traced sweep minus time outside any span
    layer_times = [m for m, u in per_layer.items() if u == "s" and not m.startswith("trace.")]
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(s["layers"][name] for s in traced)
    dense = traced[0]["dense_check"]
    values["solver.condition_dense_checked"] = len(dense)
    values["solver.condition_dense_off"] = sum(not d["within_bound"] for d in dense)
    values["fail_ratio"] = failed / attempted
    traced_s = statistics.median(s["sweep_s"] for s in traced)
    values["trace.sweep_s"] = traced_s
    values["trace.overhead_s"] = statistics.median(s["overhead_s"] for s in traced)
    values["trace.pair_diff_s"] = traced_s - statistics.median(s["sweep_s"] for s in sweeps)
    values["trace.unaccounted_s"] = statistics.median(
        s["sweep_s"] - sum(s["layers"][m] for m in layer_times) for s in traced)
    return {k: {"value": values[k], "unit": u} for k, u in per_layer.items()}


def record() -> int:
    """Rewrite reference.json from the current code."""
    tables = {}
    for workload in WORKLOADS:
        for smoke in (False, True):
            args = ["--mode", "record", "--workload", workload] + ["--smoke"] * smoke
            key = reference_key(workload, smoke)
            tables[key] = run_child(args, timeout=170.0)
            print(f"recorded {key}", file=sys.stderr)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    doc = {"recorded_from_commit": commit, "thread_env": PINNED_ENV, "workloads": tables}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="igfem sweep benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="levels 1..2 only")
    p.add_argument("--record", action="store_true",
                   help="rewrite reference.json from the current code")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "igfem" / "__init__.py").is_file():
        print(f"error: no igfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record:
            return record()
        if args.workload is None:
            p.error("--workload is required")
        # untimed: compiles the package's bytecode and reports the environment
        environment = run_child(["--mode", "env"], timeout=120.0)
        run = Run(args)
        if args.trace:
            run.traced()
        else:
            run.plain()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in run.samples)
    failed = sum(s["failed"] for s in run.samples)
    # a level-1 sweep fails nothing at the seed, so any set-up failure is wrong
    correct = not (any(s["mismatches"] for s in run.samples)
                   or any(s["failed"] for s in run.of("setup")))
    result = {"correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": metrics(run, bool(args.trace), attempted, failed)}

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(
        {"args": vars(args), "environment": environment, "result": result,
         "samples": run.samples}, indent=1) + "\n")
    for line in dict.fromkeys(line for s in run.samples
                              for line in s["failures"] + s["mismatches"]):
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
