"""Every name that ``afpg`` and its modules list in ``__all__`` resolves,
and the modules import one another at module level only."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import afpg

MODULES = ["afpg", *(f"afpg.{m.name}" for m in pkgutil.iter_modules(afpg.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_names_are_unique_submodule_names():
    # a stale re-export of a renamed or deleted name fails here
    submodule_names = set().union(
        *(getattr(importlib.import_module(m), "__all__", ()) for m in MODULES[1:]))
    assert len(afpg.__all__) == len(set(afpg.__all__))
    assert [n for n in afpg.__all__ if n not in submodule_names] == []


def _imports_afpg(node):
    if isinstance(node, ast.Import):
        return any(a.name == "afpg" or a.name.startswith("afpg.") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return node.level > 0 or module == "afpg" or module.startswith("afpg.")
    return False


def test_no_function_body_imports_afpg():
    # an import of afpg inside a function hides a cycle between modules
    # that a module-level import would refuse
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    found = []
    for path in sorted(Path(afpg.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in (f for f in ast.walk(tree) if isinstance(f, functions)):
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(function)
                      if _imports_afpg(node)]
    assert sorted(set(found)) == []
