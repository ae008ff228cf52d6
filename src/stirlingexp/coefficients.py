"""Every independent route to the factorial-expansion coefficients.

The target numbers a_k are the rational coefficients of the asymptotic
expansion  n! ~ sqrt(2 pi n) e^-n n^n (a_0 + a_1/n + a_2/n^2 + ...),
with a_0 = 1, a_1 = 1/12, a_2 = 1/288.  By Lagrange inversion

    a_k = c_{2k+1} / (2^k k!),

with c_m the m-th Taylor coefficient of the compositional inverse of
x * sqrt(kernel) (the exp and log sides share their odd coefficients);
_from_inverse takes that quotient; five of the six exact routes differ
only in how they reach c_{2k+1}.  Each route is listed with what it runs
in the package on cold caches past coefficient_table and _require_index
("core": series' _first_order, _lift, as_fraction, _Running, and
TruncatedSeries.__init__ and .order), as tests/test_coefficients.py
checks it:

  exp-kernel, log-kernel (Lagrange inversion on the truncated kernel):
    coeff_via_exp_kernel (log), inverse_egf_by_lagrange, kernel,
    _from_inverse; series exp_kernel (log), power_rational,
    egf_coefficient, core
  partition-sum, derangement-sum (alternating sums of 3-restricted
    counts, one pass over the count rows): _sum_table, generalized_sums,
    _from_inverse; combinat _rows
  inverse-table (reversion, checked at every power against a recurrence):
    _inverse_table, inverse_series, kernel, inverse_series_by_recurrence,
    _from_inverse; series exp_kernel, power_rational, reversion,
    __getitem__, coeffs, egf_coefficient, core
  bernoulli (the exponential of the Bernoulli series, with B_m read off
    one inverse of (e^x - 1)/x): expansion_coefficients,
    _bernoulli_exponent; combinat bernoulli_numbers; series inverse,
    egf_coefficient, exp, __add__, coeffs, core

coefficient_table and inverse_series are memoised (functools.cache), one
entry per (method, K) and per (kind, order), so a run that reads one
table or inverse series from several checks computes it once; no two
routes share a cached value.  The sums and the recurrence add integer
numerators over one common denominator, as the series kernels do.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, partial
from itertools import islice

from . import combinat
from .series import (
    TruncatedSeries,
    _Running,
    exp_kernel,
    log_kernel,
    format_rational,
)

__all__ = [
    "COEFF_METHODS",
    "KERNELS",
    "kernel",
    "coeff_via_exp_kernel",
    "coeff_via_log_kernel",
    "expansion_coefficients",
    "inverse_series",
    "inverse_egf_by_lagrange",
    "inverse_series_by_recurrence",
    "generalized_sums",
    "coefficient_table",
    "CrossCheck",
    "verify_all",
]

KERNELS = ("exp", "log")


def kernel(kind: str, order: int) -> TruncatedSeries:
    """The exp or log kernel, by name, truncated at ``order``."""
    if kind not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kind!r}")
    return exp_kernel(order) if kind == "exp" else log_kernel(order)


def _require_index(k: int) -> None:
    if k < 0:
        raise ValueError(f"coefficient index must be >= 0, got {k}")


def _from_inverse(c: Fraction, k: int) -> Fraction:
    # a_k from c = c_{2k+1}, the Taylor coefficient of the inverse series
    return c / (2**k * math.factorial(k))


def inverse_egf_by_lagrange(kind: str, k: int) -> Fraction:
    """k-th Taylor coefficient of the compositional inverse, closed form.

    Lagrange inversion gives the (k-1)-th derivative at 0 of
    kernel^(-k/2), with no reversion performed.
    """
    if k < 1:
        raise ValueError(f"Lagrange route needs k >= 1, got {k}")
    power = kernel(kind, k - 1).power_rational(Fraction(-k, 2))
    return power.egf_coefficient(k - 1)


def generalized_sums(kind: str, m_max: int) -> tuple[Fraction, ...]:
    """G(0) .. G(m_max), the generalized sums, from one pass over the rows.

    G(m) = sum_j (-1)^j S(m+2j-1, j) / ((m+1)(m+3)...(m+2j-1)), with
    S(n, j) the count of kind (combinat.KINDS) on n elements in j blocks
    or cycles, each of size >= 3; on the derangement side G(m) carries
    the sign (-1)^(m-1).  G(m) is the m-th Taylor coefficient of the
    exp-side (partition) or log-side (derangement) inverse series, and
    G(0) = 0.  Each count S(n, j) belongs to the one sum m = n - 2j + 1,
    and rows 0 .. 3 m_max - 3 hold every count that some m <= m_max
    reads.  The rows come in ascending n, so each sum meets its j in
    ascending order and adds them as integers over its denominator
    (m+1)(m+3)...(3m-3) by Horner's rule.
    """
    if kind not in combinat.KINDS:
        raise ValueError(f"kind must be one of {combinat.KINDS}, got {kind!r}")
    if m_max < 1:
        raise ValueError(f"index must be >= 1, got {m_max}")
    totals = [0] * (m_max + 1)
    for n, row in enumerate(islice(combinat._rows(3, kind), 3 * m_max - 2)):
        for j, count in enumerate(row):
            m = n - 2 * j + 1
            if m <= m_max:
                totals[m] = totals[m] * (m + 2 * j - 1) + (-1) ** j * count
    sign = -1 if kind == "derangement" else 1
    return tuple(
        Fraction(sign ** (m + 1) * total, math.prod(range(m + 1, 3 * m - 2, 2)))
        for m, total in enumerate(totals)
    )


def coeff_via_exp_kernel(k: int) -> Fraction:
    """a_k by Lagrange inversion on the truncated-exp kernel."""
    _require_index(k)
    return _from_inverse(inverse_egf_by_lagrange("exp", 2 * k + 1), k)


def coeff_via_log_kernel(k: int) -> Fraction:
    """a_k by Lagrange inversion on the truncated-log kernel."""
    _require_index(k)
    return _from_inverse(inverse_egf_by_lagrange("log", 2 * k + 1), k)


def _sum_table(kind: str, index_max: int) -> tuple[Fraction, ...]:
    """a_0 .. a_index_max off the generalized sums at m = 2k+1."""
    sums = generalized_sums(kind, 2 * index_max + 1)
    return tuple(_from_inverse(sums[2 * k + 1], k) for k in range(index_max + 1))


def _bernoulli_exponent(order: int) -> TruncatedSeries:
    """sum_{m>=1} B_2m / (2m (2m-1)) x^(2m-1) to x^order (j = 2m-1 below)."""
    b = combinat.bernoulli_numbers(order + 1)
    return TruncatedSeries(
        [b[j + 1] / ((j + 1) * j) if j % 2 else 0 for j in range(order + 1)]
    )


@cache
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

    from v[0] = 0 and v[1] = 1.  No reversion is performed.
    """
    if kind not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kind!r}")
    if order < 1:
        raise ValueError(f"inverse series needs order >= 1, got {order}")
    values = [Fraction(0), Fraction(1)]
    v = _Running(values[0])
    v.append(values[1])
    for k in range(2, order + 1):
        shift = Fraction(1 - k, 2) if kind == "exp" else 1
        # v[i] = nums[i] / den, so the cross sum is an int over den^2
        nums, den = v.nums, v.den
        cross = sum((j + 1) * nums[j + 1] * nums[k - j] for j in range(1, k - 1))
        p, q = shift.numerator, shift.denominator
        values.append(
            Fraction(p * nums[k - 1] * den - q * cross, q * den * den * (k + 1))
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
    return tuple(
        _from_inverse(series.egf_coefficient(2 * k + 1), k)
        for k in range(index_max + 1)
    )


# the routes that compute one a_k at a time
_METHOD_FUNCS = {"exp-kernel": coeff_via_exp_kernel, "log-kernel": coeff_via_log_kernel}
# the routes that compute the whole table a_0..a_K at once
_TABLES = {
    "partition-sum": partial(_sum_table, "partition"),
    "derangement-sum": partial(_sum_table, "derangement"),
    "bernoulli": expansion_coefficients,
    "inverse-table": _inverse_table,
}

# methods that produce the expansion coefficients a_k themselves
COEFF_METHODS = (*_METHOD_FUNCS, *_TABLES)


@cache
def coefficient_table(method: str, index_max: int) -> tuple[Fraction, ...]:
    """a_0 .. a_index_max by the named method, computed once per process."""
    _require_index(index_max)
    if method in _TABLES:
        return _TABLES[method](index_max)
    if method not in _METHOD_FUNCS:
        raise ValueError(f"unknown method {method!r}; expected one of {COEFF_METHODS}")
    return tuple(map(_METHOD_FUNCS[method], range(index_max + 1)))


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
                {"method": method, "values": [format_rational(v) for v in values]}
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
    _require_index(index_max)
    if not methods:
        raise ValueError("a cross-check needs at least one method")
    tables = tuple((m, coefficient_table(m, index_max)) for m in methods)
    mismatches = tuple(
        k
        for k in range(index_max + 1)
        if len({values[k] for _, values in tables}) != 1
    )
    return CrossCheck(index_max=index_max, tables=tables, mismatches=mismatches)
