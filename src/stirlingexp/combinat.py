"""Restricted set partitions and restricted permutations.

stirling2_assoc(r, n, k) counts partitions of an n-set into k blocks of
size at least r; derangement_assoc(r, n, k) counts permutations of an
n-set with k cycles of length at least r.  Both are computed by a
two-term recurrence and independently by exponential generating series;
enumerate_oracle counts the actual structures by brute force for small n
so the other two routes can be checked against ground truth.  The
series route imports series and fractions when it runs, so a process
that only prints the recurrence's table (the comb command) compiles
neither.

The recurrence is one loop, _rows, that yields the triangle row by row:
row n holds the counts for k = 0..n//r and is built from rows n-1 and
n-r alone, so only the last r rows are kept.  Its entries have the type
of the "one" it starts from, and so do its weights, so a row is one
map over the two rows before it: no count converts an int or runs
Python bytecode of its own.

comb_table runs it on decimal.Decimal under EXACT, a context in which
any rounding raises, so every entry is the exact count: the rows are
printed whole, and str() of a Decimal is linear in its length, where
str() of an int is quadratic (CPython 3.11) and refused past 4300
digits.  The single-value functions run it on int and return int: each
call streams the rows cut at column k up to row n, and the process
keeps none of them, so a call for (r, n, k) costs O(n k) and never
recurses.  coefficients.generalized_sums walks the int rows for r = 3
once per call, cut below as well as above: each count S(n, k) belongs
to the one sum m = n - 2k + 1, and the rows keep only the counts of the
sums m <= m_max it asks for, which are built from kept counts alone.
"""

from __future__ import annotations

import decimal
import math
from collections import deque
from collections.abc import Callable, Iterator
from decimal import Decimal
from functools import cache
from itertools import count, islice, permutations, repeat
from operator import add, mul

from . import KINDS

__all__ = [
    "stirling2_assoc",
    "derangement_assoc",
    "stirling2_from_series",
    "derangement_from_series",
    "enumerate_oracle",
    "ENUMERATION_LIMIT",
    "comb_table",
]

# brute-force enumeration walks all set partitions / permutations, so n
# is capped to keep the worst case below a second or two
ENUMERATION_LIMIT = 9

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


def _first_read(n: int, m_max: int) -> int:
    """The least k with n - 2k + 1 <= m_max, at least 0."""
    return max(0, (n + 2 - m_max) // 2)


def _rows(
    r: int,
    kind: str,
    width: int | None = None,
    one: int | Decimal = 1,
    m_max: int | None = None,
) -> Iterator[list[int | Decimal]]:
    """Yield row n, the counts for k = 0..n//r, for n = 0, 1, 2, ...

    The element n either lies in a block (cycle) of size exactly r, which
    it shares with r-1 chosen companions (in one of (r-1)! cyclic orders
    for cycles), or joins a larger block of a structure on n-1 elements:
    k ways for partitions, after any of the other n-1 elements for
    cycles.  So row n needs only rows n-1 and n-r, and only the last r
    rows are kept.  Columns past width are cut.  With m_max given, so
    are the columns before _first_read(n, m_max): row n then starts at
    that column.  Count (n, k) is built from (n-1, k) and (n-r, k-1),
    whose n - 2k + 1 is at most its own for r >= 2, so the cut rows are
    exact.  Every entry has the type of one, and so has every weight:
    new_block and n-1 are made once per row, and k is counted up from
    one by itertools.count.  So the row is built by map, with no
    per-count conversion or bytecode.
    """
    cycles = kind == "derangement"
    zero = one - one
    window: deque[list[int | Decimal]] = deque([[one]], maxlen=r)
    # the first column of each row in window
    firsts: deque[int] = deque([0], maxlen=r)
    yield window[-1]
    arrangements = 1
    for n in count(1):
        if cycles and n == r:
            arrangements = math.factorial(r - 1)
        top = n // r if width is None else min(n // r, width)
        first = 0 if m_max is None else _first_read(n, m_max)
        start = max(first, 1)  # column 0 is zero from row 1 on
        new_block = one * (math.comb(n - 1, r - 1) * arrangements)
        weights = repeat(one * (n - 1)) if cycles else count(one * start, one)
        # row n-1 lacks column top when top has just grown
        previous = window[-1]
        stay = previous[start - firsts[-1] : top + 1 - firsts[-1]]
        stay += [zero] * (top + 1 - start - len(stay))
        blocks = window[0][start - 1 - firsts[0] :]
        row = [zero] if first == 0 else []
        row += map(add, map(mul, repeat(new_block), blocks), map(mul, weights, stay))
        window.append(row)
        firsts.append(first)
        yield row


def _assoc(r: int, n: int, k: int, kind: str) -> int:
    _validate(r, n=n, k=k)
    if n < r * k:
        return 0
    return next(islice(_rows(r, kind, k), n, None))[k]


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
    from .series import TruncatedSeries

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
    from fractions import Fraction

    return _count_from_series(
        "S", r, l, j, lambda i: Fraction(1, math.factorial(i))
    )


def derangement_from_series(r: int, l: int, j: int) -> int:
    """l! * [x^l] of (-log(1-x) - sum_{0<i<r} x^i/i)^j / j!.

    Independent generating-series route to derangement_assoc(r, l, j).
    """
    from fractions import Fraction

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
