"""Restricted set partitions, restricted permutations, Bernoulli numbers.

stirling2_assoc(r, n, k) counts partitions of an n-set into k blocks of
size at least r; derangement_assoc(r, n, k) counts permutations of an
n-set with k cycles of length at least r.  Both are computed by a
two-term recurrence and independently by exponential generating series;
enumerate_oracle counts the actual structures by brute force for small n
so the other two routes can be checked against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterator

from .series import TruncatedSeries, format_rational

__all__ = [
    "CombInstance",
    "stirling2_assoc",
    "derangement_assoc",
    "stirling2_from_series",
    "derangement_from_series",
    "enumerate_oracle",
    "ENUMERATION_LIMIT",
    "bernoulli",
    "comb_table",
]

# brute-force enumeration walks all set partitions / permutations, so n
# is capped to keep the worst case below a second or two
ENUMERATION_LIMIT = 9

KINDS = ("partition", "derangement")


def _validate(r: int, n: int, k: int) -> None:
    if r < 1:
        raise ValueError(f"minimum block/cycle size r must be >= 1, got {r}")
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be >= 0, got n={n}, k={k}")


@lru_cache(maxsize=None)
def _stirling2_assoc(r: int, n: int, k: int) -> int:
    if n == 0 and k == 0:
        return 1
    if k == 0 or n < r * k:
        return 0
    return k * _stirling2_assoc(r, n - 1, k) + math.comb(
        n - 1, r - 1
    ) * _stirling2_assoc(r, n - r, k - 1)


def stirling2_assoc(r: int, n: int, k: int) -> int:
    """Partitions of an n-set into exactly k blocks, every block >= r.

    Recurrence: the element n either sits in a block of size exactly r
    (choose its r-1 companions) or in a larger block (append it to any
    block of a valid partition of n-1 elements).
    """
    _validate(r, n, k)
    return _stirling2_assoc(r, n, k)


@lru_cache(maxsize=None)
def _derangement_assoc(r: int, n: int, k: int) -> int:
    if n == 0 and k == 0:
        return 1
    if k == 0 or n < r * k:
        return 0
    return (n - 1) * _derangement_assoc(r, n - 1, k) + math.comb(
        n - 1, r - 1
    ) * math.factorial(r - 1) * _derangement_assoc(r, n - r, k - 1)


def derangement_assoc(r: int, n: int, k: int) -> int:
    """Permutations of an n-set with exactly k cycles, every cycle >= r.

    Recurrence: the element n either lies on a cycle of length exactly r
    (choose companions, then one of (r-1)! cyclic arrangements) or on a
    longer cycle (splice it in after any of the other n-1 elements).
    """
    _validate(r, n, k)
    return _derangement_assoc(r, n, k)


def _series_head(coeffs: list[Fraction], order: int) -> TruncatedSeries:
    return TruncatedSeries(coeffs, order=order)


def stirling2_from_series(r: int, l: int, j: int, order: int) -> int:
    """l! * [x^l] of (e^x - sum_{i<r} x^i/i!)^j / j!.

    Independent generating-series route to stirling2_assoc(r, l, j).
    """
    _validate(r, l, j)
    if l > order:
        raise ValueError(f"extraction index {l} exceeds series order {order}")
    full = TruncatedSeries.x(max(order, 1)).exp().truncate(order)
    head = _series_head(
        [Fraction(1, math.factorial(i)) for i in range(min(r, order + 1))], order
    )
    base = full - head
    value = (base**j / math.factorial(j)).egf_coefficient(l)
    if value.denominator != 1:
        raise ArithmeticError(
            f"series extraction of S_{r}({l}, {j}) is not an integer: {value}"
        )
    return int(value)


def derangement_from_series(r: int, l: int, j: int, order: int) -> int:
    """l! * [x^l] of (-log(1-x) - sum_{0<i<r} x^i/i)^j / j!.

    Independent generating-series route to derangement_assoc(r, l, j).
    """
    _validate(r, l, j)
    if l > order:
        raise ValueError(f"extraction index {l} exceeds series order {order}")
    x = TruncatedSeries.x(max(order, 1)).truncate(order)
    full = -((-x).log1p())  # -log(1-x)
    head = _series_head(
        [Fraction(0)] + [Fraction(1, i) for i in range(1, min(r, order + 1))], order
    )
    base = full - head
    value = (base**j / math.factorial(j)).egf_coefficient(l)
    if value.denominator != 1:
        raise ArithmeticError(
            f"series extraction of D_{r}({l}, {j}) is not an integer: {value}"
        )
    return int(value)


def _set_partitions(n: int) -> Iterator[list[list[int]]]:
    """All partitions of {0, ..., n-1}, built by inserting elements in turn."""
    if n == 0:
        yield []
        return
    for smaller in _set_partitions(n - 1):
        element = n - 1
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [element]] + smaller[i + 1 :]
        yield smaller + [[element]]


@lru_cache(maxsize=None)
def _partition_tally(r: int, n: int) -> tuple[int, ...]:
    """tally[k] = partitions of an n-set into k blocks, all of size >= r."""
    tally = [0] * (n + 1)
    for blocks in _set_partitions(n):
        if all(len(b) >= r for b in blocks):
            tally[len(blocks)] += 1
    return tuple(tally)


def _cycle_lengths(perm: tuple[int, ...]) -> Iterator[int]:
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        yield length


@lru_cache(maxsize=None)
def _cycle_tally(r: int, n: int) -> tuple[int, ...]:
    """tally[k] = permutations of an n-set with k cycles, all of length >= r."""
    tally = [0] * (n + 1)
    for perm in permutations(range(n)):
        lengths = list(_cycle_lengths(perm))
        if all(length >= r for length in lengths):
            tally[len(lengths)] += 1
    return tuple(tally)


def enumerate_oracle(r: int, n: int, k: int, kind: str) -> int:
    """Brute-force count of the structures behind the two number families.

    kind "partition" walks every set partition of an n-set; kind
    "derangement" walks every permutation.  Ground truth for tests;
    n is capped at ENUMERATION_LIMIT.
    """
    _validate(r, n, k)
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration is exponential; n={n} exceeds cap {ENUMERATION_LIMIT}"
        )
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    tally = _partition_tally(r, n) if kind == "partition" else _cycle_tally(r, n)
    return tally[k] if k <= n else 0


_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with the B_1 = -1/2 convention.

    Built from the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0
    for m >= 1; values are cached.
    """
    if m < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {m}")
    while len(_bernoulli_cache) <= m:
        i = len(_bernoulli_cache)
        acc = sum(
            (math.comb(i + 1, j) * _bernoulli_cache[j] for j in range(i)),
            Fraction(0),
        )
        _bernoulli_cache.append(-acc / (i + 1))
    return _bernoulli_cache[m]


@dataclass(frozen=True)
class CombInstance:
    """One table entry: the count for a given (r, n, k)."""

    r: int
    n: int
    k: int
    value: int

    def to_json_dict(self) -> dict:
        return {"r": self.r, "n": self.n, "k": self.k, "value": str(self.value)}


def comb_table(r: int, max_n: int, kind: str) -> list[CombInstance]:
    """All (r, n, k) entries with n <= max_n and k in the feasible range."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    _validate(r, max_n, 0)
    count = stirling2_assoc if kind == "partition" else derangement_assoc
    rows = []
    for n in range(max_n + 1):
        for k in range(n // r + 1):
            rows.append(CombInstance(r, n, k, count(r, n, k)))
    return rows
