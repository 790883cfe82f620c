"""The import layering of the package: every import sits at module level,
and the rational-function module imports no model and no front end."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "locact"
MODULES = sorted(PACKAGE.glob("*.py"))


def _package_imports(tree):
    """The names of the package modules that ``tree`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            names.update(alias.name for alias in node.names)  # from . import x
        elif isinstance(node, ast.ImportFrom):
            module = node.module if node.level else node.module.removeprefix("locact.")
            names.add(module.split(".")[0])
        elif isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("locact.").split(".")[0]
                         for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [f"{path.name}:{node.lineno}"
              for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_complexity_imports_no_model_and_no_front_end():
    tree = ast.parse((PACKAGE / "complexity.py").read_text(encoding="utf-8"))
    assert not _package_imports(tree) & {"nonlinear", "cli"}
