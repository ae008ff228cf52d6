"""Shared fixtures for the whole suite."""

import pytest

from stirlingexp import asymptotic, coefficients

# the memoised functions, every attribute of coefficients with a cache,
# and the quadrature's node values; bound here so that a test that
# patches a module name still has the real cache cleared
MEMOISED = (
    *(func for func in vars(coefficients).values() if hasattr(func, "cache_clear")),
    asymptotic._nodes,
)


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with the coefficient tables and quadrature nodes
    uncomputed.

    A test that patches what a route reads (coefficients._TABLES, say)
    then sees the route recomputed, not a table cached earlier.
    """
    for func in MEMOISED:
        func.cache_clear()
    yield
