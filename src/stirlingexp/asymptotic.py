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
    result doubled.  It is Re(z(u)^n) with z(u) = exp(e^(iu) - 1 - iu),
    which does not depend on n: each node's z is computed once per
    working precision in a process and kept in fixed point, and a call
    raises it to the power n in integers.

The expansion is divergent for fixed n, so truncation indices are always
caller-supplied; nothing here auto-selects an order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

# ahead of mpmath on purpose: where bytecode is not cached, these
# modules are compiled on import, and compiled after mpmath has loaded
# they raised the peak RSS of a numeric session by 1.0 MB
from .coefficients import coefficient_table
from .series import _MIN_PRECISION_BITS, DEFAULT_PRECISION_BITS, _lift

import mpmath
from mpmath import mp
from mpmath.libmp import fone, mpc_exp, mpf_cos_sin, mpf_sub, round_nearest, to_fixed

__all__ = [
    "ApproxReport",
    "approx_factorial",
    "stirling_ratio_quadrature",
    "stirling_ratio_exact",
    "expansion_vs_quadrature",
]

# extra working bits so the final rounding to the requested precision is clean
_GUARD_BITS = 24

# at 128 bits, in fresh processes on one core of a shared 2-vCPU VM,
# whose runs spread widely: n = 10^5 settles at 8192 panels in
# 0.16-0.28 s, 10^6 at 32768 in 0.6-0.9 s, 4 * 10^6 and 8 * 10^6 at
# 65536 in 1.3-2.0 s, and 1.6 * 10^7 fails after 1.2-1.5 s; a call
# evaluates the integrand at most 32769 times, and at the cap the node
# cache holds 32769 pairs per precision (5.1 MB at 128 bits, 12.3 MB
# at 1024 bits)
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
    coeffs = coefficient_table("bernoulli", terms)
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


def _z_at(u: mpmath.mpf) -> mpmath.mpc:
    """z(u) = exp(e^(iu) - 1 - iu), at the caller's current precision.

    One cos_sin and one complex exp.  z does not depend on n: for integer
    n the quadrature's integrand, at u = theta/sqrt(n), is
    Re(z(u)^n) = e^(n(cos u - 1)) cos(n(sin u - u)).  z is 2 pi-periodic
    and z(-u) is the conjugate of z(u), so the integrand is even; it is
    entire, and its Fourier series is e^-n sum_m n^m/m! cos((m - n) u),
    which is why the trapezoidal rule of stirling_ratio_quadrature
    converges geometrically (Trefethen & Weideman, SIAM Review 56(3),
    2014).

    The work runs in mpmath's libmp layer, rounded to nearest as mp's
    own arithmetic is; the same steps through mp.cos_sin and mp.exp,
    with every intermediate wrapped as an mpf, took about a quarter
    longer.
    """
    prec, u = mp.prec, u._mpf_
    cos_u, sin_u = mpf_cos_sin(u, prec, round_nearest)
    w = (
        mpf_sub(cos_u, fone, prec, round_nearest),
        mpf_sub(sin_u, u, prec, round_nearest),
    )
    return mp.make_mpc(mpc_exp(w, prec, round_nearest))


# levels of _nodes kept in a process: the 16 levels that reach the
# _MAX_PANELS cap, at two precisions
_NODE_LEVELS_KEPT = 32


@lru_cache(maxsize=_NODE_LEVELS_KEPT)
def _nodes(wp: int, level: int) -> tuple[tuple[int, int], ...]:
    """z at the half-range nodes that doubling level ``level`` adds.

    Level 0 is u = 0 and pi; level L >= 1 is the odd multiples of
    pi/2^L, the midpoints of the 2^(L-1) half-range panels before it, so
    levels 0..L are the grid of 2^(L+1) full-range panels.  Each value is
    computed at wp bits, checked to be finite, and stored as the integer
    pair (Re z, Im z) * 2^wp, rounded down.  The nodes depend on neither
    n nor the pass, so a process computes each once per precision and
    keeps the last _NODE_LEVELS_KEPT levels it used: at the _MAX_PANELS
    cap one precision holds 32769 pairs, 5.1 MB at wp = 152 (128 bits)
    and 12.3 MB at wp = 1048 (1024 bits), and the cache at most twice
    that.  A non-finite value raises ArithmeticError.
    """
    with mp.workprec(wp):
        step = mp.pi / 2**level
        values = []
        for j in range(1, 2**level, 2) if level else (0, 1):
            z = _z_at(j * step)
            if not mp.isfinite(z):
                raise ArithmeticError
            values.append(tuple(to_fixed(part, wp) for part in z._mpc_))
    return tuple(values)


def _real_power(z: tuple[int, int], n: int, wp: int) -> int:
    """Re(z^n) * 2^wp, by binary powering of the fixed-point pair z.

    Each product is cut back to wp fractional bits with >> wp, and a
    power that has fallen to 0 stays 0, so the loop stops there.  With
    |z| <= 1, a relative error of 2^-wp in z, or in any square on the
    way, grows to about n 2^-wp in z^n: the result loses about log2(n)
    bits, as the product n(cos u - 1) in the exponent of
    e^(n(cos u - 1)) already does.
    """
    x, y = z
    for bit in bin(n)[3:]:
        x, y = (x + y) * (x - y) >> wp, (x * y) >> (wp - 1)
        if bit == "1":
            x, y = (x * z[0] - y * z[1]) >> wp, (x * z[1] + y * z[0]) >> wp
        if not (x or y):
            return 0
    return x


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

    The integrand is Re(z(u)^n) with z(u) = exp(e^(iu) - 1 - iu), which
    does not depend on n.  z is computed once per working precision and
    node in a process and kept in fixed point (_nodes, which holds the
    nodes of at most two precisions at the cap); each call raises
    it to the power n in integers (_real_power) and sums each pass
    exactly, so no transcendental is computed per (n, node).

    The full-range panel count starts at _START_PANELS and doubles, never
    past _MAX_PANELS, until two successive full-range results agree to
    2^-(precision_bits/2); each doubling adds only the new midpoints, so
    a run ending at P panels evaluates the integrand at P/2 + 1 nodes.
    Failure to settle, or a non-finite node value, raises
    ArithmeticError.  The result is the full-range integral divided by
    sqrt(2 pi).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _require_precision(precision_bits)
    wp = precision_bits + _GUARD_BITS
    tolerance = mpmath.mpf(2) ** -(precision_bits // 2)
    with mp.workprec(wp):
        # twice the half range, taken back from u to theta
        scale = 2 * mp.sqrt(n)
        # in units of 2^-wp: the two ends, plus twice every interior node
        # so far
        total = 0
        previous = None
        # levels 0..level are the nodes of 2^(level+1) full-range panels
        for level in range(_MAX_PANELS.bit_length() - 1):
            try:
                level_sum = sum(_real_power(z, n, wp) for z in _nodes(wp, level))
            except ArithmeticError as exc:
                raise ArithmeticError(
                    f"quadrature produced a non-finite value at n={n}"
                ) from exc
            total += 2 * level_sum if level else level_sum
            panels = 2 ** (level + 1)
            if panels < _START_PANELS:
                continue
            # scale * step * total/2, with step = 2 pi/panels
            current = scale * mp.pi * mp.ldexp(mp.mpf(total), -wp) / panels
            if previous is not None and abs(current - previous) <= tolerance:
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
    coeffs = coefficient_table("bernoulli", terms)
    tail = _sum_over_powers(coeffs, -n)
    with mp.workprec(precision_bits):
        series_value = mp.mpf(tail.numerator) / mp.mpf(tail.denominator)
    return ratio, series_value

