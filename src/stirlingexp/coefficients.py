"""Every independent route to the factorial-expansion coefficients.

The target numbers a_k are the rational coefficients of the asymptotic
expansion  n! ~ sqrt(2 pi n) e^-n n^n (a_0 + a_1/n + a_2/n^2 + ...),
with a_0 = 1, a_1 = 1/12, a_2 = 1/288.  By Lagrange inversion

    a_k = c_{2k+1} / (2^k k!),

with c_m the m-th Taylor coefficient of the compositional inverse of
x * sqrt(kernel) (the exp and log sides share their odd coefficients);
_from_inverse takes that quotient.  There are six exact routes, five of
which differ only in how they reach c_{2k+1}:

  * exp-kernel, log-kernel: Lagrange inversion on the truncated-exp or
    truncated-log kernel (inverse_egf_by_lagrange),
  * partition-sum, derangement-sum: the generalized alternating sums
    over 3-restricted set-partition or permutation counts,
  * inverse-table: reversion of x * sqrt(exp kernel), checked at every
    power against the recurrence of its differential equation,
  * bernoulli: the exponential of the classical Bernoulli-number series,
    which gives a_k directly.

Agreement across all of them is exposed as a first-class cross-check
(verify_all), not just as a test.

The five per-k routes and inverse_series are memoised per process
(functools.cache, one entry per argument asked for; each function's
cache_clear() empties it), so a run that reaches one a_k or one inverse
series from several checks computes it once.  Each route has its own
cache: no two routes share a value.  The sums and the recurrence add
integer numerators over one common denominator and build one reduced
Fraction per result, as the series kernels do.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cache

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
    "coeff_via_exp_kernel",
    "coeff_via_log_kernel",
    "coeff_via_partition_sum",
    "coeff_via_derangement_sum",
    "coeff_via_bernoulli",
    "expansion_coefficients",
    "inverse_series",
    "inverse_egf_by_lagrange",
    "inverse_series_by_recurrence",
    "generalized_partition_sum",
    "generalized_derangement_sum",
    "coefficient_table",
    "CrossCheck",
    "verify_all",
]

KERNELS = ("exp", "log")


def _kernel(kind: str, order: int) -> TruncatedSeries:
    if kind == "exp":
        return exp_kernel(order)
    if kind == "log":
        return log_kernel(order)
    raise ValueError(f"kernel must be one of {KERNELS}, got {kind!r}")


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
    power = _kernel(kind, k - 1).power_rational(Fraction(-k, 2))
    return power.egf_coefficient(k - 1)


def _generalized_sum(count, k: int) -> Fraction:
    # sum_{j=0}^{k-1} (-1)^j count(3, k+2j-1, j) / ((k+1)(k+3)...(k+2j-1)),
    # added as integers over (k+1)(k+3)...(3k-3), from j = k-1 down: the
    # factor that lifts term j is (k+2j+1)(k+2j+3)...(3k-3), and after
    # the last term it is the common denominator itself
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    total, lift = 0, 1
    for j in range(k - 1, -1, -1):
        total += (-1) ** j * count(3, k + 2 * j - 1, j) * lift
        if j:
            lift *= k + 2 * j - 1
    return Fraction(total, lift)


def generalized_partition_sum(k: int) -> Fraction:
    """sum_j (-1)^j S(k+2j-1, j) / ((k+1)(k+3)...(k+2j-1)), blocks >= 3.

    Equals the k-th Taylor coefficient of the exp-side inverse series.
    """
    return _generalized_sum(combinat.stirling2_assoc, k)


def generalized_derangement_sum(k: int) -> Fraction:
    """Same sum over cycle counts, with sign (-1)^(k+j-1).

    Equals the k-th Taylor coefficient of the log-side inverse series.
    """
    return (-1) ** (k - 1) * _generalized_sum(combinat.derangement_assoc, k)


@cache
def coeff_via_exp_kernel(k: int) -> Fraction:
    """a_k by Lagrange inversion on the truncated-exp kernel."""
    _require_index(k)
    return _from_inverse(inverse_egf_by_lagrange("exp", 2 * k + 1), k)


@cache
def coeff_via_log_kernel(k: int) -> Fraction:
    """a_k by Lagrange inversion on the truncated-log kernel."""
    _require_index(k)
    return _from_inverse(inverse_egf_by_lagrange("log", 2 * k + 1), k)


@cache
def coeff_via_partition_sum(k: int) -> Fraction:
    """a_k as an alternating sum over 3-restricted set-partition counts."""
    _require_index(k)
    return _from_inverse(generalized_partition_sum(2 * k + 1), k)


@cache
def coeff_via_derangement_sum(k: int) -> Fraction:
    """a_k as an alternating sum over 3-restricted permutation counts."""
    _require_index(k)
    return _from_inverse(generalized_derangement_sum(2 * k + 1), k)


def _bernoulli_exponent(order: int) -> TruncatedSeries:
    """sum_{m>=1} B_2m / (2m (2m-1)) x^(2m-1), truncated at ``order``."""
    coeffs = [Fraction(0)] * (order + 1)
    for m in range(1, (order + 1) // 2 + 1):
        coeffs[2 * m - 1] = combinat.bernoulli(2 * m) / (2 * m * (2 * m - 1))
    return TruncatedSeries(coeffs, order=order)


@cache
def coeff_via_bernoulli(k: int) -> Fraction:
    """a_k from exponentiating the classical Bernoulli correction series.

    The exponent is sum_{m>=1} B_2m / (2m (2m-1)) x^(2m-1); a_k is the
    k-th ordinary coefficient of its exponential, cut at order k.
    """
    return expansion_coefficients(k)[k]


@cache
def inverse_series(kind: str, order: int) -> TruncatedSeries:
    """Compositional inverse of x * sqrt(kernel), as a series.

    For the exp kernel this inverts x*sqrt(2(e^x-1-x))/x = sqrt(2(e^x-1-x));
    the result starts x - x^2/6 + x^3/36 - ...  The log side starts
    x + x^2/3 and agrees with the exp side from x^3 on.
    """
    if order < 1:
        raise ValueError(f"inverse series needs order >= 1, got {order}")
    root = _kernel(kind, order - 1).power_rational(Fraction(1, 2))
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


def expansion_coefficients(index_max: int) -> list[Fraction]:
    """a_0 .. a_index_max by the cheapest closed route (Bernoulli series).

    One exponential of order index_max yields every coefficient at once.
    """
    _require_index(index_max)
    return list(_bernoulli_exponent(index_max).exp().coeffs)


_METHOD_FUNCS = {
    "exp-kernel": coeff_via_exp_kernel,
    "log-kernel": coeff_via_log_kernel,
    "partition-sum": coeff_via_partition_sum,
    "derangement-sum": coeff_via_derangement_sum,
    "bernoulli": coeff_via_bernoulli,
}

# methods that produce the expansion coefficients a_k themselves
COEFF_METHODS = (*_METHOD_FUNCS, "inverse-table")


def coefficient_table(method: str, index_max: int) -> tuple[Fraction, ...]:
    """a_0 .. a_index_max by the named method."""
    _require_index(index_max)
    if method == "inverse-table":
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
    if method not in _METHOD_FUNCS:
        raise ValueError(f"unknown method {method!r}; expected one of {COEFF_METHODS}")
    func = _METHOD_FUNCS[method]
    return tuple(func(k) for k in range(index_max + 1))


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
    method gives the same a_k.
    """
    _require_index(index_max)
    tables = tuple((m, coefficient_table(m, index_max)) for m in methods)
    mismatches = tuple(
        k
        for k in range(index_max + 1)
        if len({values[k] for _, values in tables}) != 1
    )
    return CrossCheck(index_max=index_max, tables=tables, mismatches=mismatches)
