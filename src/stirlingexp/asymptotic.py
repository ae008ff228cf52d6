"""Numeric validation of the expansion at arbitrary binary precision.

Three jobs, all on top of mpmath:

  * approx_factorial evaluates the truncated expansion against the exact
    integer n! and reports the relative and scaled error;
  * stirling_ratio_quadrature recovers the ratio
    sqrt(2 pi n) e^-n n^n / n!  by numeric integration of its Fourier
    representation over [-pi sqrt(n), pi sqrt(n)].  The integrand is
    even, so only the half range [0, pi sqrt(n)] is evaluated, with half
    the panels, and the result doubled; `panels` always counts panels on
    the full range and must be even and at least 2 (ValueError
    otherwise);
  * reciprocal_consistency checks, purely in rationals, that inverting
    the alternating form of the ratio series gives back the expansion
    coefficients.

The expansion is divergent for fixed n, so truncation indices are always
caller-supplied; nothing here auto-selects an order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import mpmath
from mpmath import mp

from .coefficients import expansion_coefficients
from .identities import IdentityReport, report_from_pairs
from .series import TruncatedSeries

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "ApproxReport",
    "approx_factorial",
    "quadrature_integrand",
    "composite_gauss",
    "stirling_ratio_quadrature",
    "stirling_ratio_exact",
    "expansion_vs_quadrature",
    "reciprocal_consistency",
]

DEFAULT_PRECISION_BITS = 128

# extra working bits so the final rounding to the requested precision is clean
_GUARD_BITS = 24

_MAX_PANELS = 4096


def _decimal_digits(precision_bits: int) -> int:
    return max(1, int(precision_bits * math.log10(2)))


def _require_precision(precision_bits: int) -> None:
    if precision_bits < 64:
        raise ValueError(f"precision_bits must be >= 64, got {precision_bits}")


@dataclass(frozen=True)
class ApproxReport:
    """Truncated-expansion approximation of n! with its error figures.

    scaled_error is rel_error * n^(terms+1); if the expansion behaves,
    it stays of one size as n grows for fixed terms.
    """

    n: int
    terms: int
    precision_bits: int
    approx: mpmath.mpf
    exact: int
    rel_error: mpmath.mpf
    scaled_error: mpmath.mpf

    def _str(self, value: mpmath.mpf) -> str:
        return mpmath.nstr(value, _decimal_digits(self.precision_bits))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": self.terms,
            "precision_bits": self.precision_bits,
            "approx": self._str(self.approx),
            "exact": str(self.exact),
            "rel_error": self._str(self.rel_error),
            "scaled_error": self._str(self.scaled_error),
        }


def approx_factorial(
    n: int, terms: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> ApproxReport:
    """Evaluate sqrt(2 pi n) e^-n n^n sum_{k<=terms} a_k/n^k against n!.

    The rational sum is accumulated exactly and rounded once; only the
    transcendental prefactor is inherently inexact.  n == 0 is rejected
    because the expansion runs in inverse powers of n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    _require_precision(precision_bits)
    coeffs = expansion_coefficients(terms)
    tail = sum(
        (a / Fraction(n**k) for k, a in enumerate(coeffs)), Fraction(0)
    )
    exact = math.factorial(n)
    with mp.workprec(precision_bits + _GUARD_BITS):
        prefactor = mp.sqrt(2 * mp.pi * n) * mp.exp(-n) * mp.mpf(n) ** n
        approx = prefactor * mp.mpf(tail.numerator) / mp.mpf(tail.denominator)
        rel_error = abs(approx - exact) / mp.mpf(exact)
        scaled_error = rel_error * mp.mpf(n) ** (terms + 1)
    with mp.workprec(precision_bits):
        return ApproxReport(
            n=n,
            terms=terms,
            precision_bits=precision_bits,
            approx=+approx,
            exact=exact,
            rel_error=+rel_error,
            scaled_error=+scaled_error,
        )


def quadrature_integrand(n: int, theta: mpmath.mpf) -> mpmath.mpf:
    """Real part of exp(n(e^(i theta/sqrt n) - 1 - i theta/sqrt n)).

    Written without complex arithmetic:
    e^(n(cos u - 1)) * cos(n(sin u - u)) with u = theta/sqrt(n).
    Evaluates at the caller's current mpmath precision; even in theta.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _integrand_at(n, theta / mp.sqrt(n))


def _integrand_at(n: int, u: mpmath.mpf) -> mpmath.mpf:
    """The integrand at u = theta/sqrt(n), with one cos_sin evaluation."""
    cos_u, sin_u = mp.cos_sin(u)
    return mp.exp(n * (cos_u - 1)) * mp.cos(n * (sin_u - u))


@lru_cache(maxsize=None)
def _gauss_legendre_rule(points: int, work_prec: int) -> tuple[tuple, tuple]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1].

    Nodes are the Legendre roots, found by Newton iteration from the
    Chebyshev-style initial guesses; computed at work_prec bits and
    cached per (points, precision).
    """
    with mp.workprec(work_prec):

        def legendre_pair(x):
            p_prev, p = mp.mpf(1), x
            for m in range(1, points):
                p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
            dp = points * (x * p - p_prev) / (x * x - 1)
            return p, dp

        nodes, weights = [], []
        for i in range(1, points + 1):
            x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (points + mp.mpf(1) / 2))
            for _ in range(100):
                p, dp = legendre_pair(x)
                step = p / dp
                x -= step
                if abs(step) <= mp.mpf(2) ** (-work_prec):
                    break
            p, dp = legendre_pair(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return tuple(nodes), tuple(weights)


def composite_gauss(
    f: Callable[[mpmath.mpf], mpmath.mpf],
    lo: mpmath.mpf,
    hi: mpmath.mpf,
    panels: int,
    points: int = 20,
) -> mpmath.mpf:
    """One pass of the composite Gauss-Legendre rule at current precision."""
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    nodes, weights = _gauss_legendre_rule(points, mp.prec)
    width = (hi - lo) / panels
    half = width / 2
    total = mp.mpf(0)
    for j in range(panels):
        center = lo + (j + mp.mpf(1) / 2) * width
        total += sum(
            w * f(center + half * x) for x, w in zip(nodes, weights)
        )
    return total * half


def stirling_ratio_quadrature(
    n: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    panels: int = 8,
) -> mpmath.mpf:
    """The ratio sqrt(2 pi n) e^-n n^n / n! by numeric integration.

    The integrand is even in theta, so the integral over the full
    symmetric interval [-pi sqrt(n), pi sqrt(n)] is twice the one over
    [0, pi sqrt(n)].  That half range is integrated in u = theta/sqrt(n),
    over [0, pi], so sqrt(n) is taken once rather than once per point.
    `panels` counts panels on the full range: it must be even, at least
    2 and at most _MAX_PANELS (otherwise ValueError), and the half range
    gets panels // 2 of them, which is the same composite rule because a
    panel edge falls on 0 and the Gauss-Legendre nodes are symmetric.
    The panel count doubles, never past _MAX_PANELS, until two
    successive full-range results agree to 2^-(precision_bits/2);
    failure to settle, or a non-finite intermediate, raises
    ArithmeticError.  The result is the full-range integral divided by
    sqrt(2 pi).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if panels < 2 or panels % 2:
        raise ValueError(f"panels must be even and >= 2, got {panels}")
    if panels > _MAX_PANELS:
        raise ValueError(f"panels must be <= {_MAX_PANELS}, got {panels}")
    _require_precision(precision_bits)
    tolerance = mpmath.mpf(2) ** -(precision_bits // 2)
    with mp.workprec(precision_bits + _GUARD_BITS):
        # twice the half range, taken back from u to theta
        scale = 2 * mp.sqrt(n)

        def f(u):
            return _integrand_at(n, u)

        def full_range(count):
            return scale * composite_gauss(f, mp.mpf(0), mp.pi, count // 2)

        previous = full_range(panels)
        while 2 * panels <= _MAX_PANELS:
            panels *= 2
            current = full_range(panels)
            if not mpmath.isfinite(current):
                raise ArithmeticError(
                    f"quadrature produced a non-finite value at n={n}"
                )
            if abs(current - previous) <= tolerance:
                result = current / mp.sqrt(2 * mp.pi)
                with mp.workprec(precision_bits):
                    return +result
            previous = current
    raise ArithmeticError(
        f"quadrature failed to settle within {_MAX_PANELS} panels at n={n}"
    )


def stirling_ratio_exact(
    n: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpmath.mpf:
    """The same ratio from the exact integer n!, for cross-checking."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _require_precision(precision_bits)
    with mp.workprec(precision_bits + _GUARD_BITS):
        value = (
            mp.sqrt(2 * mp.pi * n)
            * mp.exp(-n)
            * mp.mpf(n) ** n
            / mp.mpf(math.factorial(n))
        )
        with mp.workprec(precision_bits):
            return +value


def expansion_vs_quadrature(
    n: int, terms: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(quadrature ratio, truncated alternating series sum_k (-1)^k a_k/n^k).

    The difference should shrink like 1/n^(terms+1); that scaling is a
    desk-scale observation, not a bound, so it is asserted only in tests.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 for the comparison, got {n}")
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    _require_precision(precision_bits)
    ratio = stirling_ratio_quadrature(n, precision_bits)
    coeffs = expansion_coefficients(terms)
    tail = sum(
        ((-1) ** k * a / Fraction(n**k) for k, a in enumerate(coeffs)),
        Fraction(0),
    )
    with mp.workprec(precision_bits):
        series_value = mp.mpf(tail.numerator) / mp.mpf(tail.denominator)
    return ratio, series_value


def reciprocal_consistency(index_max: int) -> IdentityReport:
    """Inverting the alternating ratio series returns the expansion series.

    Exact in rationals: build sum_k (-1)^k a_k x^k, take its
    multiplicative inverse as a truncated series, and compare
    coefficient by coefficient with a_k.
    """
    if index_max < 1:
        raise ValueError(f"index_max must be >= 1, got {index_max}")
    coeffs = expansion_coefficients(index_max)
    alternating = TruncatedSeries(
        [(-1) ** k * a for k, a in enumerate(coeffs)], order=index_max
    )
    recovered = alternating.inverse()
    pairs = [(k, recovered[k], coeffs[k]) for k in range(index_max + 1)]
    return report_from_pairs("reciprocal-consistency", pairs)
