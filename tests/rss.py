"""Print the peak and the held RSS after each phase of one CLI level.

    PYTHONPATH=src python tests/rss.py FAMILY K LEVEL

K is the degree, or - for a family whose degree is fixed.  The level runs
through `cli._run_level` with the sine problem and the default tolerance,
without condition estimates, in this process and with one BLAS thread, so
one command re-measures a row of ROADMAP's "Where the time and memory go"
table.  After the imports and after each timed phase it prints the phase's
seconds, `ru_maxrss` (the peak so far) and `VmRSS` (what the process holds
then), both in MiB.  pytest does not collect this file.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy loads its BLAS
os.environ["OMP_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from igfem import cli  # noqa: E402


def rss_mb() -> tuple[float, float]:
    """(ru_maxrss, VmRSS) of this process in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open("/proc/self/status") as status:
        held = next(int(line.split()[1]) for line in status if line.startswith("VmRSS:"))
    return peak, held / 1024.0


def report(phase: str, seconds: float | None) -> None:
    peak, held = rss_mb()
    time = "" if seconds is None else f"{seconds:.3f}"
    print(f"{phase:<12s} {time:>8s} s  peak {peak:8.1f} MB  held {held:8.1f} MB", flush=True)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    family, k, level = argv[0], None if argv[1] == "-" else int(argv[1]), int(argv[2])
    timed = cli._timed

    @contextlib.contextmanager
    def timed_and_measured(timings: dict, phase: str):
        with timed(timings, phase):
            yield
        report(phase, timings[phase])

    cli._timed = timed_and_measured
    report("imports", None)
    failures: list = []
    row = cli._run_level(family, k, level, cli.ExperimentConfig(family, k), failures)
    if row is None:
        print(failures[0][1], file=sys.stderr)
        return 1
    print(f"n_free {row['free_dofs']}  cg_iters {row['cg_iters']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
