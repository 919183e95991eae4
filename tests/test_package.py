import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import igfem

MODULES = sorted(m.name for m in pkgutil.iter_modules(igfem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"igfem.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"igfem.{name}.__all__ names missing attributes: {missing}"


def _package_exports() -> list[str]:
    """Every name igfem/__init__.py re-exports: its from-imports and the
    names its lazy __getattr__ hands on to igfem.cli."""
    tree = ast.parse(Path(igfem.__file__).read_text())
    names = [a.asname or a.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for a in node.names]
    getattr_fn = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "__getattr__")
    for node in ast.walk(getattr_fn):
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In):
            names += [c.value for c in node.comparators[0].elts]
    return names


def test_package_exports_resolve():
    names = _package_exports()
    assert "ExperimentConfig" in names and "cg_solve" in names
    missing = [n for n in names if not hasattr(igfem, n)]
    assert not missing, f"igfem re-exports missing names: {missing}"
