"""Every independent route to the factorial-expansion coefficients.

The target numbers a_k are the rational coefficients of the asymptotic
expansion  n! ~ sqrt(2 pi n) e^-n n^n (a_0 + a_1/n + a_2/n^2 + ...),
with a_0 = 1, a_1 = 1/12, a_2 = 1/288.  They are computed here by six
genuinely different methods, all exact:

  * high derivatives of a rational power of the truncated-exp kernel,
  * the same with the truncated-log kernel,
  * an alternating sum over restricted set-partition counts,
  * an alternating sum over restricted permutation counts,
  * the exponential of the classical Bernoulli-number series,
  * the coefficient table of the compositional inverse of
    x * sqrt(kernel).

Agreement across all of them is exposed as a first-class cross-check
(verify_all), not just as a test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import combinat
from .series import TruncatedSeries, exp_kernel, log_kernel, format_rational

__all__ = [
    "CoeffTable",
    "COEFF_METHODS",
    "KERNELS",
    "double_factorial_odd",
    "coeff_via_exp_kernel",
    "coeff_via_log_kernel",
    "coeff_via_partition_sum",
    "coeff_via_derangement_sum",
    "coeff_via_bernoulli",
    "coeff_from_inverse_table",
    "expansion_coefficients",
    "inverse_series",
    "inverse_egf_by_reversion",
    "inverse_egf_by_lagrange",
    "inverse_egf_by_recurrence",
    "coefficient_table",
    "CrossCheck",
    "verify_all",
]

KERNELS = ("exp", "log")

# methods that produce the expansion coefficients a_k themselves
COEFF_METHODS = (
    "exp-kernel",
    "log-kernel",
    "partition-sum",
    "derangement-sum",
    "bernoulli",
    "inverse-table",
)


def _kernel(kind: str, order: int) -> TruncatedSeries:
    if kind == "exp":
        return exp_kernel(order)
    if kind == "log":
        return log_kernel(order)
    raise ValueError(f"kernel must be one of {KERNELS}, got {kind!r}")


@dataclass(frozen=True)
class CoeffTable:
    """A coefficient sequence labelled with the method that produced it.

    values[i] is the i-th coefficient; inverse-series tables carry a
    leading 0 at index 0 because those series have no constant term.
    """

    method: str
    values: tuple[Fraction, ...]

    @property
    def index_max(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, index: int) -> Fraction:
        if not 0 <= index <= self.index_max:
            raise ValueError(
                f"index {index} outside table range [0, {self.index_max}]"
            )
        return self.values[index]

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "values": [format_rational(v) for v in self.values],
        }


def double_factorial_odd(m: int) -> int:
    """(m)!! for odd m >= -1, with (-1)!! == 1 by convention."""
    if m < -1 or m % 2 == 0:
        raise ValueError(f"odd double factorial needs odd m >= -1, got {m}")
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def _require_index(k: int) -> None:
    if k < 0:
        raise ValueError(f"coefficient index must be >= 0, got {k}")


def _via_kernel(kind: str, k: int) -> Fraction:
    # a_k = (2k)-th derivative at 0 of kernel^(-(2k+1)/2), over 2^k k!
    order = 2 * k
    power = _kernel(kind, order).power_rational(Fraction(-(2 * k + 1), 2))
    return power.egf_coefficient(order) / (2**k * math.factorial(k))


def coeff_via_exp_kernel(k: int) -> Fraction:
    """a_k from derivatives of the truncated-exp kernel."""
    _require_index(k)
    return _via_kernel("exp", k)


def coeff_via_log_kernel(k: int) -> Fraction:
    """a_k from derivatives of the truncated-log kernel."""
    _require_index(k)
    return _via_kernel("log", k)


def _via_count_sum(count, k: int) -> Fraction:
    # a_k = sum_{j=0}^{2k} (-1)^j count(3, 2(j+k), j) / (2^(j+k) (j+k)!)
    return sum(
        (
            Fraction(
                (-1) ** j * count(3, 2 * (j + k), j),
                2 ** (j + k) * math.factorial(j + k),
            )
            for j in range(2 * k + 1)
        ),
        Fraction(0),
    )


def coeff_via_partition_sum(k: int) -> Fraction:
    """a_k as an alternating sum over 3-restricted set-partition counts."""
    _require_index(k)
    return _via_count_sum(combinat.stirling2_assoc, k)


def coeff_via_derangement_sum(k: int) -> Fraction:
    """a_k as an alternating sum over 3-restricted permutation counts."""
    _require_index(k)
    return _via_count_sum(combinat.derangement_assoc, k)


def _bernoulli_exponent(order: int) -> TruncatedSeries:
    """sum_{m>=1} B_2m / (2m (2m-1)) x^(2m-1), truncated at ``order``."""
    coeffs = [Fraction(0)] * (order + 1)
    for m in range(1, (order + 1) // 2 + 1):
        coeffs[2 * m - 1] = combinat.bernoulli(2 * m) / (2 * m * (2 * m - 1))
    return TruncatedSeries(coeffs, order=order)


def coeff_via_bernoulli(k: int) -> Fraction:
    """a_k from exponentiating the classical Bernoulli correction series.

    The exponent is sum_{m>=1} B_2m / (2m (2m-1)) x^(2m-1); a_k is the
    k-th ordinary coefficient of its exponential.
    """
    _require_index(k)
    if k == 0:
        return Fraction(1)
    return _bernoulli_exponent(k).exp()[k]


def coeff_from_inverse_table(
    k: int, table: CoeffTable, scaled_table: CoeffTable | None = None
) -> Fraction:
    """a_k = table[2k+1] / (2^k k!) for an exp-side inverse-series table.

    When the matching scaled table (entries divided by the factorial of
    their index) is supplied, the equivalent form (2k+1)!! * scaled[2k+1]
    is asserted to agree before returning.
    """
    _require_index(k)
    if table.index_max < 2 * k + 1:
        raise ValueError(
            f"table depth {table.index_max} too shallow for k={k}; "
            f"need index {2 * k + 1}"
        )
    value = table[2 * k + 1] / (2**k * math.factorial(k))
    if scaled_table is not None:
        alt = double_factorial_odd(2 * k + 1) * scaled_table[2 * k + 1]
        if alt != value:
            raise ArithmeticError(
                f"inverse-table routes disagree at k={k}: {value} vs {alt}"
            )
    return value


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


def inverse_egf_by_reversion(kind: str, index_max: int) -> CoeffTable:
    """Taylor coefficients of the compositional inverse, by actual reversion."""
    if index_max < 1:
        raise ValueError(f"index_max must be >= 1, got {index_max}")
    series = inverse_series(kind, index_max)
    values = tuple(series.egf_coefficient(i) for i in range(index_max + 1))
    return CoeffTable(method=f"reversion-{kind}", values=values)


def inverse_egf_by_lagrange(kind: str, k: int) -> Fraction:
    """k-th Taylor coefficient of the compositional inverse, closed form.

    Lagrange inversion gives the (k-1)-th derivative at 0 of
    kernel^(-k/2), with no reversion performed.
    """
    if k < 1:
        raise ValueError(f"Lagrange route needs k >= 1, got {k}")
    power = _kernel(kind, k - 1).power_rational(Fraction(-k, 2))
    return power.egf_coefficient(k - 1)


def inverse_egf_by_recurrence(
    kind: str, index_max: int, scaled: bool = False
) -> CoeffTable:
    """Taylor coefficients of the compositional inverse by quadratic recurrence.

    The x^k coefficient of the differential equations B'B = x - (x^2/2) B'
    (exp side) and C'C = xC + x (log side) gives, for k >= 2,

        (k+1) v[k] = s_k v[k-1] - sum_{j=1}^{k-2} w_kj v[j+1] v[k-j],

    from v[0] = 0 and v[1] = 1, with weight w_kj = C(k, j) and shift term
    s_k = k (1-k)/2 on the exp side or s_k = k on the log side.

    scaled=True produces the sequence divided by the factorial of the
    index (the ordinary coefficients of the inverse series).  That is the
    same recurrence with v[i] -> v[i]/i!, which turns the weight into
    j+1 and drops the factor k from the shift term.
    """
    if kind not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kind!r}")
    if index_max < 1:
        raise ValueError(f"index_max must be >= 1, got {index_max}")
    v = [Fraction(0), Fraction(1)]
    for k in range(2, index_max + 1):
        # weights for j = 1 .. k-2, built once per k
        shift = Fraction(1 - k, 2) if kind == "exp" else 1
        if scaled:
            weights = range(2, k)
        else:
            weights = [math.comb(k, j) for j in range(1, k - 1)]
            shift *= k
        cross = sum(
            (w * v[j + 1] * v[k - j] for j, w in enumerate(weights, 1)),
            Fraction(0),
        )
        v.append((shift * v[k - 1] - cross) / (k + 1))
    suffix = "-scaled" if scaled else ""
    return CoeffTable(method=f"recurrence-{kind}{suffix}", values=tuple(v))


def expansion_coefficients(index_max: int) -> list[Fraction]:
    """a_0 .. a_index_max by the cheapest closed route (Bernoulli series).

    One exponential of order index_max yields every coefficient at once;
    coeff_via_bernoulli(k) is the same series cut at order k.
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


def coefficient_table(method: str, index_max: int) -> CoeffTable:
    """a_0 .. a_index_max by the named method."""
    _require_index(index_max)
    if method == "inverse-table":
        depth = 2 * index_max + 1
        table = inverse_egf_by_reversion("exp", depth)
        scaled = inverse_egf_by_recurrence("exp", depth, scaled=True)
        values = tuple(
            coeff_from_inverse_table(k, table, scaled) for k in range(index_max + 1)
        )
        return CoeffTable(method=method, values=values)
    if method not in _METHOD_FUNCS:
        raise ValueError(f"unknown method {method!r}; expected one of {COEFF_METHODS}")
    func = _METHOD_FUNCS[method]
    return CoeffTable(method=method, values=tuple(func(k) for k in range(index_max + 1)))


@dataclass(frozen=True)
class CrossCheck:
    """Result of computing every coefficient by each of the given methods."""

    index_max: int
    tables: tuple[CoeffTable, ...]
    mismatches: tuple[int, ...]

    @property
    def agreed(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "index_max": self.index_max,
            "agreed": self.agreed,
            "mismatches": list(self.mismatches),
            "tables": [t.to_json_dict() for t in self.tables],
        }


def verify_all(
    index_max: int, methods: Sequence[str] = COEFF_METHODS
) -> CrossCheck:
    """Compute a_0 .. a_index_max by each method and compare them exactly.

    This is the one agreement rule: index k is a mismatch unless every
    method gives the same a_k.
    """
    _require_index(index_max)
    tables = tuple(coefficient_table(m, index_max) for m in methods)
    mismatches = tuple(
        k
        for k in range(index_max + 1)
        if len({t[k] for t in tables}) != 1
    )
    return CrossCheck(index_max=index_max, tables=tables, mismatches=mismatches)
