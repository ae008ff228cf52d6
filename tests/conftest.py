"""Shared fixtures for the whole suite."""

import os
import stat

import pytest

from stirlingexp import asymptotic, coefficients

# the memoised functions, every attribute of coefficients and of
# asymptotic with a cache; bound here so that a test that patches a
# module name still has the real cache cleared
MEMOISED = tuple(
    func
    for module in (coefficients, asymptotic)
    for func in vars(module).values()
    if hasattr(func, "cache_clear")
)


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with the coefficient tables, pi and the
    quadrature nodes uncomputed.

    A test that patches what a route reads (coefficients._TABLES, say)
    then sees the route recomputed, not a table cached earlier.
    """
    for func in MEMOISED:
        func.cache_clear()
    yield


def _is_character_device(path):
    try:
        return stat.S_ISCHR(os.stat(path).st_mode)
    except OSError:
        return False


@pytest.fixture
def dev_full():
    """/dev/full, the device on which every write fails with ENOSPC.

    The test is skipped where it is not a character device: a plain file
    of that name takes the writes.  It fails if the node is not still a
    character device after the test: once a command deletes it, the next
    write to /dev/full creates a plain file, which takes every later
    write, in this run and the next.
    """
    if not _is_character_device("/dev/full"):
        pytest.skip("/dev/full is not a character device")
    yield "/dev/full"
    if not _is_character_device("/dev/full"):
        pytest.fail("/dev/full is no longer a character device")
