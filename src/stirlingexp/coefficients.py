"""Every independent route to the factorial-expansion coefficients.

The target numbers a_k are the rational coefficients of the asymptotic
expansion  n! ~ sqrt(2 pi n) e^-n n^n (a_0 + a_1/n + a_2/n^2 + ...),
with a_0 = 1, a_1 = 1/12, a_2 = 1/288.  By Lagrange inversion

    a_k = c_{2k+1} / (2^k k!),

with c_m the m-th Taylor coefficient of the compositional inverse of
x * sqrt(kernel) (the exp and log sides share their odd coefficients);
five of the six exact routes differ only in how they reach c_m, and
each hands its c to _from_inverse, which takes the quotient.  The six:

  exp-kernel, log-kernel: Lagrange inversion on the truncated kernel;
  partition-sum, derangement-sum: alternating sums of 3-restricted
    counts, one pass over the count rows;
  inverse-table: reversion, checked at every power against a recurrence;
  bernoulli: the exponential of the Bernoulli series, with B_m from the
    tangent numbers.

On cold caches a route runs its own helpers here and the series and
combinat functions it needs, and nothing else in the package; REACH in
tests/test_coefficients.py lists them, route by route.  Each route
computes only what its own table reads: a kernel route builds its
kernel once, at the largest order it needs, and truncates it for each
power; the sum routes cut the count rows to the counts their sums add;
the Bernoulli numbers are integers until the last division.  Only the
sum routes load combinat, which generalized_sums imports when it runs,
so a session that reads the bernoulli table alone (every asymptotic
one) never compiles the counting layer.

coefficient_table is the one memo (functools.cache), one entry per
(method, K), so a run that reads one table from several checks computes
it once; no two routes share a cached value.  The sums and the
recurrence add integer numerators over one common denominator, as
series' products and recurrences do.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache, partial
from itertools import islice
from operator import mul

from . import COEFF_METHODS, KINDS
from .series import TruncatedSeries, _Running

__all__ = [
    "KERNELS",
    "kernel",
    "bernoulli_numbers",
    "expansion_coefficients",
    "inverse_series",
    "inverse_series_by_recurrence",
    "generalized_sums",
    "coefficient_table",
    "CrossCheck",
    "verify_all",
]

KERNELS = ("exp", "log")


def kernel(kind: str, order: int) -> TruncatedSeries:
    """The exp or log kernel, by name, truncated at ``order``.

    exp is the normalized left-truncated exponential 2(e^x - 1 - x)/x^2,
    with ordinary coefficients 2/(j+2)!: 1 + x/3 + x^2/12 + x^3/60 + ...
    log is the normalized left-truncated logarithm 2(x - log(1+x))/x^2,
    with ordinary coefficients 2(-1)^j/(j+2): 1 - 2x/3 + x^2/2 - 2x^3/5
    + ...  Both have constant term 1, which makes them valid bases for
    power_rational.
    """
    if kind not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kind!r}")
    if kind == "exp":
        coeffs = [Fraction(2, math.factorial(j + 2)) for j in range(order + 1)]
    else:
        coeffs = [Fraction(2 * (-1) ** j, j + 2) for j in range(order + 1)]
    return TruncatedSeries(coeffs, order=order)


def bernoulli_numbers(m: int) -> tuple[Fraction, ...]:
    """B_0 .. B_m, with the B_1 = -1/2 convention.

    B_j is the j-th Taylor coefficient of x/(e^x - 1) (Comtet, *Advanced
    Combinatorics*, 1974).  Past B_1 the odd ones vanish, and

        B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)),

    with T_n the tangent numbers, tan x = sum_n T_n x^(2n-1)/(2n-1)!.
    Brent and Harvey's recurrence ("Fast computation of Bernoulli,
    Tangent and Secant numbers", 2011) builds T_1 .. T_(m/2) in place, in
    integers: T_k = (k-1) T_(k-1), then T_j = (j-k) T_(j-1) + (j-k+2) T_j
    for 2 <= k <= j.  Each B_2n is one Fraction of two integers.
    """
    if m < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {m}")
    tangent = [0, 1]
    for k in range(2, m // 2 + 1):
        tangent.append((k - 1) * tangent[-1])
    for k in range(2, len(tangent)):
        for j in range(k, len(tangent)):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    numbers = [Fraction(1), Fraction(-1, 2)]
    for n in range(1, len(tangent)):
        power = 4**n
        even = Fraction((-1) ** (n - 1) * 2 * n * tangent[n], power * (power - 1))
        numbers += [even, Fraction(0)]
    return tuple(numbers[: m + 1])


def _require_index(k: int) -> None:
    if k < 0:
        raise ValueError(f"coefficient index must be >= 0, got {k}")


def _from_inverse(c: Callable, index_max: int) -> tuple[Fraction, ...]:
    # a_0 .. a_index_max, with c(m) the m-th Taylor coefficient of the
    # inverse series
    return tuple(
        c(2 * k + 1) / (2**k * math.factorial(k)) for k in range(index_max + 1)
    )


def _lagrange(base: TruncatedSeries, k: int) -> Fraction:
    # the (k-1)-th derivative at 0 of base^(-k/2), which reads base only
    # to x^(k-1): any kernel of order >= k - 1 serves
    power = base.truncate(k - 1).power_rational(Fraction(-k, 2))
    return power.egf_coefficient(k - 1)


def generalized_sums(kind: str, m_max: int) -> tuple[Fraction, ...]:
    """G(0) .. G(m_max), the generalized sums, from one pass over the rows.

    G(m) = sum_j (-1)^j S(m+2j-1, j) / ((m+1)(m+3)...(m+2j-1)), with
    S(n, j) the count of kind (one of KINDS) on n elements in j blocks
    or cycles, each of size >= 3; on the derangement side G(m) carries
    the sign (-1)^(m-1).  G(m) is the m-th Taylor coefficient of the
    exp-side (partition) or log-side (derangement) inverse series, and
    G(0) = 0.  Each count S(n, j) belongs to the one sum m = n - 2j + 1,
    and rows 0 .. 3 m_max - 3 hold every count that some m <= m_max
    reads.  The rows are cut below at the same bound, so the pass
    computes only the counts it adds: row n starts at column
    combinat._first_read(n, m_max).  The rows come in ascending n, so
    each sum meets its j in ascending order and adds them as integers
    over its denominator (m+1)(m+3)...(3m-3) by Horner's rule.
    """
    from . import combinat

    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if m_max < 1:
        raise ValueError(f"index must be >= 1, got {m_max}")
    totals = [0] * (m_max + 1)
    rows = combinat._rows(3, kind, m_max=m_max)
    for n, row in enumerate(islice(rows, 3 * m_max - 2)):
        for j, count in enumerate(row, combinat._first_read(n, m_max)):
            m = n - 2 * j + 1
            totals[m] = totals[m] * (m + 2 * j - 1) + (-1) ** j * count
    sign = -1 if kind == "derangement" else 1
    return tuple(
        Fraction(sign ** (m + 1) * total, math.prod(range(m + 1, 3 * m - 2, 2)))
        for m, total in enumerate(totals)
    )


def _kernel_table(kind: str, index_max: int) -> tuple[Fraction, ...]:
    """a_0 .. a_index_max, each by Lagrange inversion on the kernel.

    The kernel is built once, at order 2 index_max, the most that c_m for
    m = 2 index_max + 1 reads; each power takes its truncation.
    """
    return _from_inverse(partial(_lagrange, kernel(kind, 2 * index_max)), index_max)


def _sum_table(kind: str, index_max: int) -> tuple[Fraction, ...]:
    """a_0 .. a_index_max off the generalized sums G(m), which are the c_m."""
    sums = generalized_sums(kind, 2 * index_max + 1)
    return _from_inverse(sums.__getitem__, index_max)


def _bernoulli_exponent(order: int) -> TruncatedSeries:
    """sum_{m>=1} B_2m / (2m (2m-1)) x^(2m-1) to x^order (j = 2m-1 below)."""
    b = bernoulli_numbers(order + 1)
    return TruncatedSeries(
        [b[j + 1] / ((j + 1) * j) if j % 2 else 0 for j in range(order + 1)]
    )


def inverse_series(kind: str, order: int) -> TruncatedSeries:
    """Compositional inverse of x * sqrt(kernel), as a series.

    For the exp kernel this inverts x*sqrt(2(e^x-1-x))/x = sqrt(2(e^x-1-x));
    the result starts x - x^2/6 + x^3/36 - ...  The log side starts
    x + x^2/3 and agrees with the exp side from x^3 on.
    """
    if order < 1:
        raise ValueError(f"inverse series needs order >= 1, got {order}")
    root = kernel(kind, order - 1).power_rational(Fraction(1, 2))
    lifted = TruncatedSeries((Fraction(0),) + root.coeffs, order=order)
    return lifted.reversion()


def inverse_series_by_recurrence(kind: str, order: int) -> TruncatedSeries:
    """The compositional inverse of x * sqrt(kernel), by quadratic recurrence.

    The paper states the recurrence for the Taylor coefficients t[k]: the
    x^k coefficient of the differential equations B'B = x - (x^2/2) B'
    (exp side) and C'C = xC + x (log side) gives, for k >= 2,

        (k+1) t[k] = k s_k t[k-1] - sum_{j=1}^{k-2} C(k, j) t[j+1] t[k-j],

    with s_k = (1-k)/2 on the exp side and s_k = 1 on the log side.  In
    the ordinary coefficients v[i] = t[i]/i! computed here this reads

        (k+1) v[k] = s_k v[k-1] - sum_{j=1}^{k-2} (j+1) v[j+1] v[k-j],

    from v[0] = 0 and v[1] = 1.  No reversion is performed.  The terms
    i = j+1 and k+1-i of the sum carry weights that add to k+1, so the
    sum is (k+1)/2 times sum_{i=2}^{k-1} v[i] v[k+1-i], and

        v[k] = s_k v[k-1] / (k+1) - (1/2) sum_{i=2}^{k-1} v[i] v[k+1-i],

    in which each symmetric pair is multiplied once.
    """
    if kind not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kind!r}")
    if order < 1:
        raise ValueError(f"inverse series needs order >= 1, got {order}")
    values = [Fraction(0), Fraction(1)]
    v = _Running(values[0])
    v.append(values[1])
    for k in range(2, order + 1):
        shift = 1 - k if kind == "exp" else 2  # 2 s_k
        # v[i] = nums[i] / den, so the sum over i is an int over den^2:
        # twice the pairs with i < k+1-i, plus the middle square for odd k
        nums, den = v.nums, v.den
        mid = (k + 1) // 2
        pairs = sum(map(mul, nums[2 : (k + 2) // 2], nums[k - 1 : mid : -1]))
        total = 2 * pairs + (nums[mid] ** 2 if k % 2 else 0)
        values.append(
            Fraction(
                shift * nums[k - 1] * den - (k + 1) * total, 2 * (k + 1) * den * den
            )
        )
        v.append(values[-1])
    return TruncatedSeries(values, order=order)


def expansion_coefficients(index_max: int) -> tuple[Fraction, ...]:
    """a_0 .. a_index_max, the bernoulli table: one exponential, all a_k."""
    _require_index(index_max)
    return _bernoulli_exponent(index_max).exp().coeffs


def _inverse_table(index_max: int) -> tuple[Fraction, ...]:
    """a_0 .. a_index_max off the reversion, checked against the recurrence."""
    order = 2 * index_max + 1
    series = inverse_series("exp", order)
    recurrence = inverse_series_by_recurrence("exp", order)
    for i in range(order + 1):
        if series[i] != recurrence[i]:
            raise ArithmeticError(
                f"inverse-table routes disagree at x^{i}: reversion "
                f"{series[i]}, recurrence {recurrence[i]}"
            )
    return _from_inverse(series.egf_coefficient, index_max)


# every route, computing the whole table a_0..a_K, keyed by its name in
# the package root's COEFF_METHODS
_TABLES = dict(
    zip(
        COEFF_METHODS,
        (
            partial(_kernel_table, "exp"),
            partial(_kernel_table, "log"),
            partial(_sum_table, "partition"),
            partial(_sum_table, "derangement"),
            expansion_coefficients,
            _inverse_table,
        ),
        strict=True,
    )
)


@cache
def coefficient_table(method: str, index_max: int) -> tuple[Fraction, ...]:
    """a_0 .. a_index_max by the named method, computed once per process."""
    _require_index(index_max)
    if method not in _TABLES:
        raise ValueError(f"unknown method {method!r}; expected one of {COEFF_METHODS}")
    return _TABLES[method](index_max)


class CrossCheck(namedtuple("CrossCheck", "index_max tables mismatches")):
    """Result of computing every coefficient by each of the given methods.

    tables holds one (method, values) pair per method, in the order asked
    for; a method asked for twice has two pairs.
    """

    __slots__ = ()

    @property
    def agreed(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "index_max": self.index_max,
            "agreed": self.agreed,
            "mismatches": list(self.mismatches),
            "tables": [
                {"method": method, "values": list(map(str, values))}
                for method, values in self.tables
            ],
        }


def verify_all(
    index_max: int, methods: Sequence[str] = COEFF_METHODS
) -> CrossCheck:
    """Compute a_0 .. a_index_max by each method and compare them exactly.

    This is the one agreement rule: index k is a mismatch unless every
    method gives the same a_k, so at least one method is needed.
    """
    if not methods:
        raise ValueError("a cross-check needs at least one method")
    tables = tuple((m, coefficient_table(m, index_max)) for m in methods)
    mismatches = tuple(
        k
        for k in range(index_max + 1)
        if len({values[k] for _, values in tables}) != 1
    )
    return CrossCheck(index_max=index_max, tables=tables, mismatches=mismatches)
