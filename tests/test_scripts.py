"""Smoke tests for the two measuring scripts that pytest does not collect:
`tests/bits.py` (the bit-keeping hashes) and `tests/rss.py` (RSS per phase)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import bits
import igfem
from igfem.cli import PROBLEMS

HEX64 = re.compile(r"[0-9a-f]{64}")


def test_bits_digests_are_sha256():
    digests = [bits.mesh_digest(2, 0.2),
               bits.case_digest("p2c_interp", None, 2, 0.0, PROBLEMS["sine"]),
               bits.case_digest("pk_interp", 4, 1, 0.0, PROBLEMS["sine"]),
               bits.sweep_digest({"family": "p2nc_interp", "levels": (1, 2),
                                  "compare": True, "condition": True})]
    assert all(HEX64.fullmatch(d) for d in digests)


def test_rss_script_runs_a_level():
    here = Path(__file__).resolve().parent
    src = str(Path(igfem.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(here / "rss.py"), "p2nc_interp", "-", "2"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert re.fullmatch(r"n_free \d+  cg_iters \d+", out.stdout.splitlines()[-1])
