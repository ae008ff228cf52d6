"""Restricted set partitions, restricted permutations, Bernoulli numbers.

stirling2_assoc(r, n, k) counts partitions of an n-set into k blocks of
size at least r; derangement_assoc(r, n, k) counts permutations of an
n-set with k cycles of length at least r.  Both are computed by a
two-term recurrence and independently by exponential generating series;
enumerate_oracle counts the actual structures by brute force for small n
so the other two routes can be checked against ground truth.

The recurrence is one loop, _rows, that yields the triangle row by row:
row n holds the counts for k = 0..n//r and is built from rows n-1 and
n-r alone, so only the last r rows are kept.  comb_table streams these
rows.  The single-value functions read them through a cache of the rows
computed so far, one per (r, kind), cut at a column width that starts
at the requested k and doubles when a later call needs a wider column;
a cold call for (r, n, k) therefore costs O(n k) and never recurses.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice, permutations, repeat
from typing import Callable, Iterator

from .series import TruncatedSeries

__all__ = [
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


def _rows(r: int, kind: str, width: int | None = None) -> Iterator[list[int]]:
    """Yield row n, the counts for k = 0..n//r, for n = 0, 1, 2, ...

    The element n either lies in a block (cycle) of size exactly r, which
    it shares with r-1 chosen companions (in one of (r-1)! cyclic orders
    for cycles), or joins a larger block of a structure on n-1 elements:
    k ways for partitions, after any of the other n-1 elements for
    cycles.  So row n needs only rows n-1 and n-r, and only the last r
    rows are kept.  Columns past width are cut.
    """
    cycles = kind == "derangement"
    window: deque[list[int]] = deque([[1]], maxlen=r)
    yield window[-1]
    arrangements = 1
    for n in count(1):
        if cycles and n == r:
            arrangements = math.factorial(r - 1)
        top = n // r if width is None else min(n // r, width)
        new_block = math.comb(n - 1, r - 1) * arrangements
        weights = repeat(n - 1) if cycles else count(1)
        # row n-1 lacks column top when top has just grown
        previous = window[-1]
        stay = previous[1 : top + 1] + [0] * (top + 1 - len(previous))
        row = [0] + [
            new_block * shorter + weight * longer
            for shorter, longer, weight in zip(window[0], stay, weights)
        ]
        window.append(row)
        yield row


# (r, kind) -> (width, rows computed so far, the generator that extends them)
_row_cache: dict[tuple[int, str], tuple[int, list[list[int]], Iterator[list[int]]]] = {}


def _assoc(r: int, n: int, k: int, kind: str) -> int:
    _validate(r, n, k)
    if n < r * k:
        return 0
    entry = _row_cache.get((r, kind))
    if entry is None or entry[0] < k:
        # a wider column restarts the rows; doubling keeps restarts rare
        width = k if entry is None else max(k, 2 * entry[0])
        entry = _row_cache[r, kind] = (width, [], _rows(r, kind, width))
    _, rows, source = entry
    while len(rows) <= n:
        rows.append(next(source))
    return rows[n][k]


def stirling2_assoc(r: int, n: int, k: int) -> int:
    """Partitions of an n-set into exactly k blocks, every block >= r.

    Recurrence: the element n either sits in a block of size exactly r
    (choose its r-1 companions) or in a larger block (append it to any
    block of a valid partition of n-1 elements).
    """
    return _assoc(r, n, k, "partition")


def derangement_assoc(r: int, n: int, k: int) -> int:
    """Permutations of an n-set with exactly k cycles, every cycle >= r.

    Recurrence: the element n either lies on a cycle of length exactly r
    (choose companions, then one of (r-1)! cyclic arrangements) or on a
    longer cycle (splice it in after any of the other n-1 elements).
    """
    return _assoc(r, n, k, "derangement")


def _count_from_series(
    symbol: str, r: int, l: int, j: int, order: int,
    full: Callable[[int], TruncatedSeries], head_term: Callable[[int], Fraction],
) -> int:
    """l! * [x^l] of (full - sum_{i<r} head_term(i) x^i)^j / j!, an integer."""
    _validate(r, l, j)
    if l > order:
        raise ValueError(f"extraction index {l} exceeds series order {order}")
    head = TruncatedSeries(
        [head_term(i) for i in range(min(r, order + 1))], order=order
    )
    base = full(order) - head
    value = (base**j / math.factorial(j)).egf_coefficient(l)
    if value.denominator != 1:
        raise ArithmeticError(
            f"series extraction of {symbol}_{r}({l}, {j}) is not an integer: {value}"
        )
    return int(value)


def stirling2_from_series(r: int, l: int, j: int, order: int) -> int:
    """l! * [x^l] of (e^x - sum_{i<r} x^i/i!)^j / j!.

    Independent generating-series route to stirling2_assoc(r, l, j).
    """
    return _count_from_series(
        "S", r, l, j, order,
        lambda order: TruncatedSeries.x(max(order, 1)).exp().truncate(order),
        lambda i: Fraction(1, math.factorial(i)),
    )


def derangement_from_series(r: int, l: int, j: int, order: int) -> int:
    """l! * [x^l] of (-log(1-x) - sum_{0<i<r} x^i/i)^j / j!.

    Independent generating-series route to derangement_assoc(r, l, j).
    """
    return _count_from_series(
        "D", r, l, j, order,
        lambda order: -((-TruncatedSeries.x(max(order, 1)).truncate(order)).log1p()),
        lambda i: Fraction(1, i) if i else Fraction(0),
    )


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


def comb_table(r: int, max_n: int, kind: str) -> Iterator[list[int]]:
    """Rows 0..max_n of the table: row n is the counts for k = 0..n//r.

    The arguments are checked at once; each row is computed only when
    the iterator reaches it.  Later rows are built from earlier ones, so
    a row must not be modified.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    _validate(r, max_n, 0)
    return islice(_rows(r, kind), max_n + 1)
