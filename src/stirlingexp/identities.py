"""Mechanical verification of the identities tying the pieces together.

Every check takes the suite's size, an index or an order, and returns
IdentityReports: each holds the contiguous index range lo..hi it covered
and a left/right witness pair for every index at which the two sides
differ; an empty witness list means the identity held over the whole
range.  The checks that compare values at each index return one report
per index.  Checks that compare coefficient routes read the routes'
tables (coefficients.coefficient_table, computed once per process)
rather than restating them.  Checks never assert; deciding what a
failure means is left to the caller (the CLI maps any failure to a
nonzero exit code).

The coefficient routes rest on one identification, made in
coefficients: a_k = c_{2k+1} / (2^k k!), with c_m the m-th Taylor
coefficient of the exp-side inverse series.  The kernel routes reach
c_{2k+1} by Lagrange inversion, the count-sum routes by the generalized
partition and derangement sums at m = 2k+1, and the inverse-table route
by reversion.  The checks here test what that identification leans on:
the plain sum identity (the two count-sum routes agree), the generalized
sum identity (the two generalized sums agree at every m but m = 2), the
difference of the two inverse series, their implicit and differential
equations, the kernel-derivative route against the partition sum, and
the reciprocal check (inverting the alternating ratio series gives back
the expansion).  All of it is exact rational arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .coefficients import coefficient_table, generalized_sums, inverse_series
from .series import TruncatedSeries, format_rational

__all__ = [
    "IdentityReport",
    "report_from_pairs",
    "check_sum_identity",
    "check_generalized_sum_identity",
    "check_inverse_difference",
    "check_implicit_equations",
    "check_differential_equations",
    "check_derivative_vs_partition_sum",
    "reciprocal_consistency",
    "run_all",
]


class IdentityReport(namedtuple("IdentityReport", "identity lo hi failures")):
    """Outcome of one identity over the index range lo..hi: failures holds
    an (index, left, right) witness for each index where the sides differ."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "range": [self.lo, self.hi],
            "failures": [
                {
                    "index": i,
                    "left": format_rational(left),
                    "right": format_rational(right),
                }
                for i, left, right in self.failures
            ],
        }


def report_from_pairs(
    identity: str, pairs: list[tuple[int, Fraction, Fraction]]
) -> IdentityReport:
    """Build a report from (index, left, right) comparison pairs."""
    if not pairs:
        raise ValueError("identity check over an empty index range")
    failures = tuple(
        (i, left, right) for i, left, right in pairs if left != right
    )
    lo = min(i for i, _, _ in pairs)
    hi = max(i for i, _, _ in pairs)
    return IdentityReport(identity=identity, lo=lo, hi=hi, failures=failures)


def _per_index(
    identity: str, pairs: Iterable[tuple[int, Fraction, Fraction]]
) -> list[IdentityReport]:
    # one report for each (index, left, right) pair
    return [report_from_pairs(identity, [pair]) for pair in pairs]


def check_sum_identity(index_max: int) -> list[IdentityReport]:
    """The partition-sum and derangement-sum routes agree at each a_k.

    Both routes are the generalized sum at 2k+1, differing only in the
    combinatorial count inside; this compares what the two routes
    return, one report for each k = 0..index_max.  index_max < 0 raises
    ValueError.
    """
    left = coefficient_table("partition-sum", index_max)
    right = coefficient_table("derangement-sum", index_max)
    return _per_index("sum-identity", zip(range(index_max + 1), left, right))


def check_generalized_sum_identity(index_max: int) -> list[IdentityReport]:
    """The two generalized sums agree for every k = 1..index_max but k == 2.

    At k == 2 the sides differ by exactly 1 (the single index at which
    the two inverse series part ways), so there the check passes when
    right - left == 1.  One report for each k; index_max < 1 raises
    ValueError.
    """
    left = generalized_sums("partition", index_max)
    right = generalized_sums("derangement", index_max)
    pairs = [
        (k, right[k] - left[k], Fraction(1)) if k == 2 else (k, left[k], right[k])
        for k in range(1, index_max + 1)
    ]
    return _per_index("sum-identity-general", pairs)


def _series_pairs(
    left: TruncatedSeries, right: TruncatedSeries
) -> list[tuple[int, Fraction, Fraction]]:
    return [(i, left[i], right[i]) for i in range(left.order + 1)]


def check_inverse_difference(order: int) -> IdentityReport:
    """log-side inverse minus exp-side inverse is exactly x^2/2."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    diff = inverse_series("log", order) - inverse_series("exp", order)
    target = TruncatedSeries.monomial(Fraction(1, 2), 2, order)
    return report_from_pairs("inverse-difference", _series_pairs(diff, target))


def check_implicit_equations(order: int) -> list[IdentityReport]:
    """Both inverse series satisfy their defining implicit equations.

    exp side:  e^B - 1 - B == x^2/2, and the log form B == log(1 + B + x^2/2);
    log side:  C - x^2/2 == log(1 + C).
    """
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    b = inverse_series("exp", order)
    c = inverse_series("log", order)
    half_square = TruncatedSeries.monomial(Fraction(1, 2), 2, order)
    reports = [
        report_from_pairs(
            "implicit-exp", _series_pairs(b.exp() - 1 - b, half_square)
        ),
        report_from_pairs(
            "implicit-log", _series_pairs(c - half_square, c.log1p())
        ),
        report_from_pairs(
            "implicit-exp-log", _series_pairs(b, (b + half_square).log1p())
        ),
    ]
    return reports


def check_differential_equations(order: int) -> list[IdentityReport]:
    """First-order differential equations for both inverse series.

    exp side:  B'B == x - (x^2/2) B';   log side:  C'C == xC + x.
    Derivatives drop one order, so the comparison runs through order-1.
    """
    if order < 3:
        raise ValueError(f"order must be >= 3, got {order}")
    b = inverse_series("exp", order)
    c = inverse_series("log", order)
    bp, cp = b.derivative(), c.derivative()
    bt, ct = b.truncate(order - 1), c.truncate(order - 1)
    x = TruncatedSeries.x(order - 1)
    half_square = TruncatedSeries.monomial(Fraction(1, 2), 2, order - 1)
    reports = [
        report_from_pairs(
            "diffeq-exp", _series_pairs(bp * bt, x - half_square * bp)
        ),
        report_from_pairs("diffeq-log", _series_pairs(cp * ct, x * ct + x)),
    ]
    return reports


def check_derivative_vs_partition_sum(index_max: int) -> list[IdentityReport]:
    """The kernel-derivative and partition-sum routes agree at each a_k."""
    left = coefficient_table("exp-kernel", index_max)
    right = coefficient_table("partition-sum", index_max)
    pairs = zip(range(index_max + 1), left, right)
    return _per_index("derivative-vs-partition-sum", pairs)


def reciprocal_consistency(index_max: int) -> IdentityReport:
    """Inverting the alternating ratio series returns the expansion series.

    Build sum_k (-1)^k a_k x^k, take its multiplicative inverse as a
    truncated series, and compare coefficient by coefficient with a_k.
    """
    if index_max < 1:
        raise ValueError(f"index_max must be >= 1, got {index_max}")
    coeffs = coefficient_table("bernoulli", index_max)
    alternating = TruncatedSeries(
        [(-1) ** k * a for k, a in enumerate(coeffs)], order=index_max
    )
    recovered = alternating.inverse()
    pairs = [(k, recovered[k], coeffs[k]) for k in range(index_max + 1)]
    return report_from_pairs("reciprocal-consistency", pairs)


def run_all(max_index: int) -> list[IdentityReport]:
    """Every identity check at a common size parameter, for the CLI."""
    if max_index < 3:
        raise ValueError(f"max_index must be >= 3, got {max_index}")
    reports = check_sum_identity(max_index)
    reports.extend(check_generalized_sum_identity(max_index))
    reports.append(check_inverse_difference(max_index))
    reports.extend(check_implicit_equations(max_index))
    reports.extend(check_differential_equations(max_index))
    reports.extend(check_derivative_vs_partition_sum(max_index))
    reports.append(reciprocal_consistency(max_index))
    return reports
