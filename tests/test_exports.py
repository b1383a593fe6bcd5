"""Every name that ``afpg`` and its modules list in ``__all__`` resolves."""

import importlib
import pkgutil

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
