import math
import re
from pathlib import Path

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
