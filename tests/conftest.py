"""Shared fixtures."""

import pytest

from afpg import element1d, element2d, poly


# taken at import, so that a test may patch the module attributes
_CACHES = (element1d.build_element, element2d.build_element_2d, poly.gram_inverse)


def _clear_construction_caches():
    for cached in _CACHES:
        cached.cache_clear()


@pytest.fixture
def fresh_construction():
    """Empty the exact-construction caches before and after the test."""
    _clear_construction_caches()
    yield
    _clear_construction_caches()


@pytest.fixture
def exact_solves(monkeypatch, fresh_construction):
    """A list that grows by one entry for every ``solve_exact`` call, with
    the construction caches empty at the start."""
    calls = []
    real = poly.solve_exact

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (poly, element1d, element2d):
        monkeypatch.setattr(module, "solve_exact", counted)
    return calls
