"""Restricted set partitions, restricted permutations, Bernoulli numbers.

stirling2_assoc(r, n, k) counts partitions of an n-set into k blocks of
size at least r; derangement_assoc(r, n, k) counts permutations of an
n-set with k cycles of length at least r.  Both are computed by a
two-term recurrence and independently by exponential generating series;
enumerate_oracle counts the actual structures by brute force for small n
so the other two routes can be checked against ground truth.

The recurrence is one loop, _rows, that yields the triangle row by row:
row n holds the counts for k = 0..n//r and is built from rows n-1 and
n-r alone, so only the last r rows are kept.  Its entries have the type
of the "one" it starts from.

comb_table runs it on decimal.Decimal under EXACT, a context in which
any rounding raises, so every entry is the exact count: the rows are
printed whole, and str() of a Decimal is linear in its length, where
str() of an int is quadratic (CPython 3.11) and refused past 4300
digits.  The single-value functions run it on int and return int: they
read the rows through a cache of the rows computed so far, one per (r,
kind), cut at a column width that starts at the requested k and doubles
when a later call needs a wider column; a cold call for (r, n, k)
therefore costs O(n k) and never recurses.  bernoulli_numbers keeps no
state: each call is one series inverse.
"""

from __future__ import annotations

import decimal
import math
from collections import deque
from collections.abc import Callable, Iterator
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import count, islice, permutations, repeat

from .series import TruncatedSeries

__all__ = [
    "stirling2_assoc",
    "derangement_assoc",
    "stirling2_from_series",
    "derangement_from_series",
    "enumerate_oracle",
    "ENUMERATION_LIMIT",
    "bernoulli_numbers",
    "comb_table",
    "KINDS",
]

# brute-force enumeration walks all set partitions / permutations, so n
# is capped to keep the worst case below a second or two
ENUMERATION_LIMIT = 9

KINDS = ("partition", "derangement")

# the context of comb_table's row arithmetic: unbounded digits and
# exponents, and any inexact, overflowing or invalid step raises
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Overflow, decimal.InvalidOperation],
)


def _validate(r: int, **counts: int) -> None:
    if r < 1:
        raise ValueError(f"minimum block/cycle size r must be >= 1, got {r}")
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _rows(
    r: int, kind: str, width: int | None = None, one: int | Decimal = 1
) -> Iterator[list[int | Decimal]]:
    """Yield row n, the counts for k = 0..n//r, for n = 0, 1, 2, ...

    The element n either lies in a block (cycle) of size exactly r, which
    it shares with r-1 chosen companions (in one of (r-1)! cyclic orders
    for cycles), or joins a larger block of a structure on n-1 elements:
    k ways for partitions, after any of the other n-1 elements for
    cycles.  So row n needs only rows n-1 and n-r, and only the last r
    rows are kept.  Columns past width are cut.  Every entry has the
    type of one: the counts are one times int weights, and sums of them.
    """
    cycles = kind == "derangement"
    zero = one - one
    window: deque[list[int | Decimal]] = deque([[one]], maxlen=r)
    yield window[-1]
    arrangements = 1
    for n in count(1):
        if cycles and n == r:
            arrangements = math.factorial(r - 1)
        top = n // r if width is None else min(n // r, width)
        new_block = one * (math.comb(n - 1, r - 1) * arrangements)
        weights = repeat(n - 1) if cycles else count(1)
        # row n-1 lacks column top when top has just grown
        previous = window[-1]
        stay = previous[1 : top + 1] + [zero] * (top + 1 - len(previous))
        row = [zero] + [
            new_block * shorter + weight * longer
            for shorter, longer, weight in zip(window[0], stay, weights)
        ]
        window.append(row)
        yield row


# (r, kind) -> (width, rows computed so far, the generator that extends them)
_row_cache: dict[tuple[int, str], tuple[int, list[list[int]], Iterator[list[int]]]] = {}


def _assoc(r: int, n: int, k: int, kind: str) -> int:
    _validate(r, n=n, k=k)
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
    symbol: str, r: int, l: int, j: int, term: Callable[[int], Fraction]
) -> int:
    """l! * [x^l] of (sum_{i>=r} term(i) x^i)^j / j!, an integer.

    The base is x^r h with h[0] = term(r), so its j-th power is
    term(r)^j x^(rj) (h/term(r))^j: zero at x^l when rj > l, and else
    read at x^(l-rj) of the power of a series with constant term 1.
    """
    _validate(r, l=l, j=j)
    if r * j > l:
        return 0
    lead, m = term(r), l - r * j
    unit = TruncatedSeries([term(r + i) / lead for i in range(m + 1)])
    value = (
        math.factorial(l) * lead**j * unit.power_rational(j)[m] / math.factorial(j)
    )
    if value.denominator != 1:
        raise ArithmeticError(
            f"series extraction of {symbol}_{r}({l}, {j}) is not an integer: {value}"
        )
    return int(value)


def stirling2_from_series(r: int, l: int, j: int) -> int:
    """l! * [x^l] of (e^x - sum_{i<r} x^i/i!)^j / j!.

    Independent generating-series route to stirling2_assoc(r, l, j).
    """
    return _count_from_series(
        "S", r, l, j, lambda i: Fraction(1, math.factorial(i))
    )


def derangement_from_series(r: int, l: int, j: int) -> int:
    """l! * [x^l] of (-log(1-x) - sum_{0<i<r} x^i/i)^j / j!.

    Independent generating-series route to derangement_assoc(r, l, j).
    """
    return _count_from_series("D", r, l, j, lambda i: Fraction(1, i))


def _set_partitions(n: int) -> list[list[list[int]]]:
    """All partitions of {0, ..., n-1}, built by inserting elements in turn."""
    partitions: list[list[list[int]]] = [[]]
    for element in range(n):
        grown = []
        for blocks in partitions:
            for i in range(len(blocks)):
                grown.append(blocks[:i] + [blocks[i] + [element]] + blocks[i + 1 :])
            grown.append(blocks + [[element]])
        partitions = grown
    return partitions


@cache
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


@cache
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
    _validate(r, n=n, k=k)
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration is exponential; n={n} exceeds cap {ENUMERATION_LIMIT}"
        )
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    tally = _partition_tally(r, n) if kind == "partition" else _cycle_tally(r, n)
    return tally[k] if k <= n else 0


def bernoulli_numbers(m: int) -> tuple[Fraction, ...]:
    """B_0 .. B_m, with the B_1 = -1/2 convention.

    B_j is the j-th Taylor coefficient of x/(e^x - 1) (Comtet, *Advanced
    Combinatorics*, 1974), so one inverse of (e^x - 1)/x, the series
    sum_j x^j/(j+1)!, at order m gives them all.
    """
    if m < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {m}")
    inverse = TruncatedSeries(
        [Fraction(1, math.factorial(j + 1)) for j in range(m + 1)]
    ).inverse()
    return tuple(inverse.egf_coefficient(j) for j in range(m + 1))


def _exactly(rows: Iterator[list[Decimal]]) -> Iterator[list[Decimal]]:
    """Each of the rows, computed under EXACT.

    The caller's context is back in place whenever a row is handed out.
    """
    while True:
        with decimal.localcontext(EXACT):
            row = next(rows)
        yield row


def comb_table(r: int, max_n: int, kind: str) -> Iterator[list[Decimal]]:
    """Rows 0..max_n of the table: row n is the counts for k = 0..n//r.

    Each count is an exact Decimal integer (exponent 0), computed in the
    EXACT context whatever the caller's context is; str() of it is the
    count's decimal digits.  The arguments are checked at once; each row
    is computed only when the iterator reaches it.  Later rows are built
    from earlier ones, so a row must not be modified.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    _validate(r, max_n=max_n)
    return islice(_exactly(_rows(r, kind, one=Decimal(1))), max_n + 1)
