"""Numeric validation of the expansion at arbitrary binary precision.

Two jobs, both on top of mpmath (the package's only module that imports
it):

  * approx_factorial evaluates the truncated expansion against the exact
    integer n! and reports the relative and scaled error;
  * stirling_ratio_quadrature recovers the ratio
    sqrt(2 pi n) e^-n n^n / n!  by numeric integration of its Fourier
    representation over [-pi sqrt(n), pi sqrt(n)].  In u = theta/sqrt(n)
    the integrand is entire and 2 pi-periodic, so the trapezoidal rule
    converges geometrically (Trefethen & Weideman, SIAM Review 56(3),
    2014); with N panels its relative error is exactly
    sum_{m = n mod N, m != n} n^(m-n) n!/m!.  The integrand is even, so
    only the half range is evaluated, with half the panels, and the
    result doubled.

The expansion is divergent for fixed n, so truncation indices are always
caller-supplied; nothing here auto-selects an order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

# ahead of mpmath on purpose: where bytecode is not cached, these
# modules are compiled on import, and compiled after mpmath has loaded
# they raised the peak RSS of a numeric session by 1.0 MB
from .coefficients import expansion_coefficients
from .series import _MIN_PRECISION_BITS, DEFAULT_PRECISION_BITS, _lift

import mpmath
from mpmath import mp

__all__ = [
    "ApproxReport",
    "approx_factorial",
    "stirling_ratio_quadrature",
    "stirling_ratio_exact",
    "expansion_vs_quadrature",
]

# extra working bits so the final rounding to the requested precision is clean
_GUARD_BITS = 24

# at 128 bits, on one core of a 2-vCPU VM: n = 10^5 settles at 8192
# panels in 0.25 s, 10^6 at 32768 in 1.0 s, 4 * 10^6 and 8 * 10^6 at
# 65536 in about 2 s, and 1.6 * 10^7 fails after 1.9 s; a call
# evaluates the integrand at most 32769 times
_MAX_PANELS = 65536

# full-range panels of the first pass; the count doubles from here
_START_PANELS = 8


def _decimal_digits(precision_bits: int) -> int:
    return max(1, int(precision_bits * math.log10(2)))


def _require_precision(precision_bits: int) -> None:
    floor = _MIN_PRECISION_BITS
    if precision_bits < floor:
        raise ValueError(f"precision_bits must be >= {floor}, got {precision_bits}")


def _exact_mpf(value: int) -> mpmath.mpf:
    """The positive integer value as an mpf, exactly, in linear time.

    mp.mpf(value) strips the integer's trailing zero bits 8 at a time in
    mpmath's pure-Python backend, shifting the whole integer each time,
    which is quadratic in its length (0.9 s for 100000!).  One shift
    strips them all, and the conversion runs at the mantissa's own
    precision, so nothing is rounded.
    """
    zeros = (value & -value).bit_length() - 1
    mantissa = value >> zeros
    with mp.workprec(mantissa.bit_length()):
        return mp.mpf((mantissa, zeros))


def _prefactor(n: int) -> mpmath.mpf:
    """sqrt(2 pi n) e^-n n^n at the caller's working precision."""
    return mp.sqrt(2 * mp.pi * n) * mp.exp(-n) * mp.mpf(n) ** n


def _sum_over_powers(coeffs: list[Fraction], x: int) -> Fraction:
    """sum_k coeffs[k] / x^k, by Horner's rule on integer numerators."""
    nums, den = _lift(coeffs)
    total = 0
    for num in nums:
        total = total * x + num
    return Fraction(total, den * x ** (len(nums) - 1))


_APPROX_FIELDS = "n terms precision_bits approx exact rel_error scaled_error"


class ApproxReport(namedtuple("ApproxReport", _APPROX_FIELDS)):
    """Truncated-expansion approximation of n! with its error figures.

    approx, rel_error and scaled_error are mpmath.mpf, exact is n!.
    scaled_error is rel_error * n^(terms+1); if the expansion behaves,
    it stays of one size as n grows for fixed terms.
    """

    __slots__ = ()

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
    tail = _sum_over_powers(coeffs, n)
    exact = math.factorial(n)
    exact_mpf = _exact_mpf(exact)
    with mp.workprec(precision_bits + _GUARD_BITS):
        approx = _prefactor(n) * mp.mpf(tail.numerator) / mp.mpf(tail.denominator)
        rel_error = abs(approx - exact_mpf) / mp.mpf(exact_mpf)
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


def _integrand_at(n: int, u: mpmath.mpf) -> mpmath.mpf:
    """Real part of exp(n(e^(iu) - 1 - iu)), at u = theta/sqrt(n).

    Written without complex arithmetic, with one cos_sin evaluation:
    e^(n(cos u - 1)) * cos(n(sin u - u)).  Evaluates at the caller's
    current mpmath precision.  It is even in u and, for integer n,
    entire and 2 pi-periodic: its Fourier series is
    e^-n sum_m n^m/m! cos((m - n) u), which is why the trapezoidal rule
    of stirling_ratio_quadrature converges geometrically (Trefethen &
    Weideman, SIAM Review 56(3), 2014).
    """
    cos_u, sin_u = mp.cos_sin(u)
    return mp.exp(n * (cos_u - 1)) * mp.cos(n * (sin_u - u))


def stirling_ratio_quadrature(
    n: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpmath.mpf:
    """The ratio sqrt(2 pi n) e^-n n^n / n! by numeric integration.

    The integral over [-pi sqrt(n), pi sqrt(n)] is taken in
    u = theta/sqrt(n), over [-pi, pi], by the trapezoidal rule.  For
    integer n the integrand is entire and 2 pi-periodic in u, so the rule
    converges geometrically (Trefethen & Weideman, "The exponentially
    convergent trapezoidal rule", SIAM Review 56(3), 2014).  Exactly:
    the integral over [-pi, pi] is 2 pi e^-n n^n/n!, and with N panels
    the rule gives 2 pi e^-n sum_{m = n mod N} n^m/m!, so its relative
    error is sum_{m = n mod N, m != n} n^(m-n) n!/m!.  That is O(1)
    while N is below about sqrt(n) and then falls faster than
    geometrically, so the doubling test below cannot settle early.  The
    integrand is even, so only the half range [0, pi] is evaluated, with
    half the panels.

    The full-range panel count starts at _START_PANELS and doubles, never
    past _MAX_PANELS, until two successive full-range results agree to
    2^-(precision_bits/2); each doubling evaluates only the new
    midpoints, so a run ending at P panels evaluates the integrand
    P/2 + 1 times.  Failure to settle, or a non-finite
    intermediate, raises ArithmeticError.  The result is the full-range
    integral divided by sqrt(2 pi).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _require_precision(precision_bits)
    panels = _START_PANELS
    tolerance = mpmath.mpf(2) ** -(precision_bits // 2)
    with mp.workprec(precision_bits + _GUARD_BITS):
        # twice the half range, taken back from u to theta
        scale = 2 * mp.sqrt(n)
        step = mp.pi / (panels // 2)
        ends = (_integrand_at(n, mp.mpf(0)) + _integrand_at(n, mp.pi)) / 2
        interior = mp.fsum(_integrand_at(n, j * step) for j in range(1, panels // 2))
        previous = scale * step * (ends + interior)
        while 2 * panels <= _MAX_PANELS:
            panels *= 2
            step /= 2
            # the new points are the midpoints of the previous panels
            interior += mp.fsum(
                _integrand_at(n, j * step) for j in range(1, panels // 2, 2)
            )
            current = scale * step * (ends + interior)
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
        value = _prefactor(n) / mp.mpf(_exact_mpf(math.factorial(n)))
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
    tail = _sum_over_powers(coeffs, -n)
    with mp.workprec(precision_bits):
        series_value = mp.mpf(tail.numerator) / mp.mpf(tail.denominator)
    return ratio, series_value

