"""The import layering of the package: every import sits at module level,
and the rational-function module imports no model and no front end.  And
its public surface: every public definition has a caller, and every error
class is raised."""

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


ROOT = PACKAGE.parents[1]
CALLER_DIRS = [PACKAGE, ROOT / "demos", ROOT / "tools", ROOT / "bench"]
UNCALLED = {  # public names that no caller names, with the reason each stays
    "matrix_exponential": "named only as a string target in bench/tracing.py",
}


def _public_definitions():
    """``(path, name, first line, last line)`` of every public module-level
    def and class of the package, ``__init__`` aside."""
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path, node.name, node.lineno, node.end_lineno


def _references():
    """``(file, line)`` of every ``ast.Name`` and ``ast.Attribute`` in the
    package and its demos, tools and benchmark, by the name it reads."""
    refs = {}
    for directory in CALLER_DIRS:
        for path in sorted(directory.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                name = node.id if isinstance(node, ast.Name) \
                    else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None:
                    refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_public_name_has_a_caller():
    # a caller names the definition somewhere outside its own body; an
    # import in __init__ is no caller
    refs = _references()
    uncalled = {name for path, name, first, last in _public_definitions()
                if all(ref == path and first <= line <= last
                       for ref, line in refs.get(name, []))}
    assert uncalled == set(UNCALLED)


def test_every_error_class_is_raised():
    # each LocactError subclass is named by a raise in the package, outside
    # the definitions that UNCALLED keeps
    subclasses = {"LocactError"}
    for node in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and \
                any(isinstance(b, ast.Name) and b.id in subclasses for b in node.bases):
            subclasses.add(node.name)
    kept = [(path, first, last) for path, name, first, last in _public_definitions()
            if name in UNCALLED]
    raised = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None or any(
                    path == p and first <= node.lineno <= last for p, first, last in kept):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    assert subclasses - {"LocactError"} - raised == set()
