import json
import math
import re
from pathlib import Path

import pytest

from igfem.cli import ExperimentConfig, emit_report, run_experiment

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after the given README heading."""
    text = README.read_text()
    section = text[text.index(heading):]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_readme_library_sketch_runs():
    # the documented API: the sketch runs as written and gives four norms
    namespace: dict = {}
    exec(compile(_python_block("## Library sketch"), str(README), "exec"), namespace)
    norms = [namespace[name] for name in ("l2_ih", "h1_ih", "l2_true", "h1_true")]
    assert all(math.isfinite(v) and v > 0.0 for v in norms)


def _readme_row_keys() -> list[str]:
    """The keys of a JSON row, in the order the README's JSON example shows."""
    text = README.read_text()
    block = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    row = block[block.index('"rows": [{'):block.index('"timings"')]
    return re.findall(r'"(\w+)":', row)[1:] + ["timings"]


@pytest.mark.parametrize("condition", [False, True])
def test_json_row_key_order_matches_readme(condition):
    report = run_experiment(ExperimentConfig(family="p3_interp", levels=(2,),
                                             compare=True, condition=condition))
    data = json.loads(emit_report(report, "json"))
    want = _readme_row_keys()
    if condition:
        # the condition keys, in the order the README lists them, come before timings
        want[-1:-1] = ["cond_est", "lambda_max", "lambda_min", "cond_converged"]
    for row in data["rows"] + data["baseline_rows"]:
        assert list(row) == want
