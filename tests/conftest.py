"""Shared fixtures for the whole suite."""

import pytest

from stirlingexp import coefficients, combinat

# the memoised functions, every attribute of coefficients with a cache;
# bound here so that a test that patches a module name still has the
# real cache cleared
MEMOISED = tuple(
    func for func in vars(coefficients).values() if hasattr(func, "cache_clear")
)


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with the routes, inverse series and count rows
    uncomputed.

    A test that patches what a route reads (combinat.stirling2_assoc,
    say) then sees the route recomputed, not a value cached earlier.
    """
    for func in MEMOISED:
        func.cache_clear()
    combinat._row_cache.clear()
    yield
