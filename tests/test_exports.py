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
