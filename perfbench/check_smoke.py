"""Smoke test of the benchmark: every workload, untraced and traced, at
levels 1..2, must print every metric that BENCHMARK.json names, with its
unit, and outputs that match the record. A copy of the checkout with a
broken igfem (see FAULTS) must be reported as incorrect.

    python3 perfbench/check_smoke.py

Exits with 0 when every check holds; prints each problem otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# Program faults the benchmark must report as incorrect, each appended to a
# copy of igfem/cli.py so that it replaces `run_experiment`.
FAULTS = {
    "raising run_experiment": """

def run_experiment(config):
    raise RuntimeError("injected fault")
""",
    "dropped level": """

_run_experiment = run_experiment


def run_experiment(config):
    report = _run_experiment(config)
    report.rows.pop()
    return report
""",
}


def smoke_run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check(spec: dict, workload: str, trace: int) -> list[str]:
    proc = smoke_run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: outputs differ from the record\n{proc.stderr}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append(f"{where}: attempted={result.get('attempted')!r} "
                        f"failed={result.get('failed')!r}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"{where}: metrics {sorted(got)}, expected {sorted(wanted)}")
    for name, unit in wanted.items():
        m = got.get(name, {})
        if m.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {m.get('unit')!r}, expected {unit!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} = {m.get('value')!r}")
    return problems


def check_fault(name: str, fault: str) -> list[str]:
    """Run the benchmark on a checkout whose igfem has `fault`; it must
    finish and report the outputs as incorrect."""
    root = HERE / "out" / "faulty"
    shutil.rmtree(root, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy(ROOT / "BENCHMARK.json", root)
        with open(root / "src" / "igfem" / "cli.py", "a") as f:
            f.write(fault)
        proc = smoke_run(root, "p2nc-fine", 0)
        if proc.returncode != 0:
            return [f"{name}: exit code {proc.returncode}\n{proc.stderr}"]
        details = json.loads((root / "perfbench" / "out" /
                              "p2nc-fine-seed1-trace0-smoke.json").read_text())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if result["correct"] is not False or result["failed"] == 0:
        problems.append(f"{name}: not caught, correct={result['correct']} "
                        f"failed={result['failed']}")
    missed = sorted({s["kind"] for s in details["samples"] if not s["mismatches"]})
    if missed:
        problems.append(f"{name}: no mismatch reported by {', '.join(missed)} samples")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = [p for w in spec["workloads"] for trace in (0, 1)
                for p in check(spec, w["name"], trace)]
    problems += [p for name, fault in FAULTS.items() for p in check_fault(name, fault)]
    for p in problems:
        print(p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
