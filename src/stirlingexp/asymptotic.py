"""Numeric validation of the expansion at arbitrary binary precision.

Two jobs:

  * approx_factorial evaluates the truncated expansion against the exact
    integer n! and reports the relative and scaled error, in mpmath,
    which only it and stirling_ratio_exact load;
  * stirling_ratio_quadrature recovers the ratio
    sqrt(2 pi n) e^-n n^n / n!  by numeric integration of its Fourier
    representation over [-pi sqrt(n), pi sqrt(n)].  In u = theta/sqrt(n)
    the integrand is entire and 2 pi-periodic, so the trapezoidal rule
    converges geometrically (Trefethen & Weideman, SIAM Review 56(3),
    2014); with N panels its relative error is exactly
    sum_{m = n mod N, m != n} n^(m-n) n!/m!.  The integrand is even, so
    only the half range is evaluated, with half the panels, and the
    result doubled.  It is Re(z(u)^n) with z(u) = exp(e^(iu) - 1 - iu),
    which does not depend on n.  The nodes are roots of unity, so each
    node's z is a short sum over a table of them, taken in integers
    once per working precision in a process and kept in fixed point;
    a call raises it to the power n in integers, and compares its
    passes on their exact integer sums.  Its result, and the series sum
    of expansion_vs_quadrature, are rounded in integers too (pi by
    Machin's formula, square roots by math.isqrt), and returned as a
    Dyadic: a Fraction that mpmath reads exactly.

The expansion is divergent for fixed n, so truncation indices are always
caller-supplied; nothing here auto-selects an order.

Importing the module loads neither mpmath nor the exact layers: each
function imports what it uses on its first call, so the quadrature
alone never compiles series, combinat or coefficients, and neither the
quadrature nor expansion_vs_quadrature loads mpmath.  approx_factorial
imports the exact layers before it loads mpmath: where bytecode is not
cached, these modules are compiled on import, and compiled after mpmath
had loaded they raised the peak RSS of a numeric session by 1.0 MB.
This is the one statement of that reason; the other places that keep
the order point here.  The annotations name mpmath's types without
loading it, since they are never evaluated.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import _MIN_PRECISION_BITS, DEFAULT_PRECISION_BITS

__all__ = [
    "ApproxReport",
    "Dyadic",
    "approx_factorial",
    "stirling_ratio_quadrature",
    "stirling_ratio_exact",
    "expansion_vs_quadrature",
]

# extra working bits so the final rounding to the requested precision is clean
_GUARD_BITS = 24

# at 128 bits, cold, in fresh processes on one core of a shared 2-vCPU
# VM, whose runs spread widely (5 runs each at 10^5 and 10^6, 3 above):
# n = 10^5 settles at 8192 panels in 0.11-0.12 s, 10^6 at 32768 in
# 0.47-0.48 s, 4 * 10^6 and 8 * 10^6 at 65536 in 0.75-0.97 s, and
# 1.6 * 10^7 fails after 0.57-0.95 s, none of them importing mpmath; a
# call evaluates the integrand at most 32769 times, and at the cap the
# node cache holds 32769 pairs per precision (5.2 MB at 128 bits, 12.9
# MB at 1024 bits)
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
    from mpmath import mp

    zeros = (value & -value).bit_length() - 1
    mantissa = value >> zeros
    with mp.workprec(mantissa.bit_length()):
        return mp.mpf((mantissa, zeros))


def _prefactor(n: int) -> mpmath.mpf:
    """sqrt(2 pi n) e^-n n^n at the caller's working precision."""
    from mpmath import mp

    return mp.sqrt(2 * mp.pi * n) * mp.exp(-n) * mp.mpf(n) ** n


def _sum_over_powers(coeffs: list[Fraction], x: int) -> Fraction:
    """sum_k coeffs[k] / x^k, by Horner's rule on integer numerators."""
    from .series import _lift

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
        import mpmath

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
    # the exact layers ahead of mpmath (see the module docstring)
    from .coefficients import coefficient_table
    from mpmath import mp

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


# the node kernel sums the exponential series at h w, h = 2^-_HALVINGS,
# where it needs fewer terms (83 instead of 176 at 1024 bits), and
# squares the sum back _HALVINGS times; of 0, 4, 8 and 16 halvings, 8
# was the fastest, or within a fifth of it, at every precision from 64
# to 4096 bits
_HALVINGS = 8


# fractional bits the node kernel carries beyond the working precision,
# besides one per squaring
_KERNEL_GUARD_BITS = 10


def _kernel_bits(wp: int) -> int:
    """The fractional bits p of the node kernel at working precision wp."""
    return wp + _KERNEL_GUARD_BITS + _HALVINGS


def _root_cosines(level: int, p: int) -> list[int]:
    """cos(2 pi k/N) * 2^p for k < N = 2^(level+1), N >= 4, in integers.

    sin(2 pi k/N) is the cosine a quarter turn back, cosines[k - N/4]
    (a negative index wraps), so one list serves both.  The table of the
    4th roots is exact; each doubling keeps the old roots at the even
    indices and makes each new one, at an odd index, as an old root
    times the new primitive root w = e^(i theta/2), whose cosine is a
    half-angle step, sqrt((1 + cos theta)/2), and whose sine is
    sin theta/(2 cos(theta/2)), so that no root loses bits to a
    cancellation.  Each step rounds down, and the errors add up by about
    a unit of 2^-p per doubling (14 units at level 15, measured).
    """
    one = 1 << p
    cosines = [one, 0, -one, 0]
    for _ in range(level - 1):
        quarter = len(cosines) // 4
        c = math.isqrt((one + cosines[1]) << (p - 1))
        s = (cosines[1 - quarter] << (p - 1)) // c
        doubled = [0] * (2 * len(cosines))
        doubled[::2] = cosines
        doubled[1::2] = [
            (c * cosines[k] - s * cosines[k - quarter]) >> p
            for k in range(len(cosines))
        ]
        cosines = doubled
    return cosines


def _series(p: int) -> tuple[int, int]:
    """(M, e^-h * 2^p rounded down), h = 2^-_HALVINGS.

    M is the number of terms of the series of e^(h w), |w| = 1, that
    reach 2^-p: the least M with h^M/M! < 2^-p.  e^-h is that series at
    w = -1, summed in the Horner scheme that _z_at sums each node by.
    """
    terms, bound = 0, 1
    while bound <= 1 << p:
        terms += 1
        bound *= terms << _HALVINGS
    damping = 0
    for m in range(terms - 1, -1, -1):
        damping = (-1) ** m * (1 << p) + damping // ((m + 1) << _HALVINGS)
    return terms, damping


def _z_at(
    k: int, cosines: list[int], terms: int, damping: int, wp: int
) -> tuple[int, int]:
    """z(2 pi k/N) * 2^wp as the integer pair (Re, Im), rounded down.

    z(u) = exp(e^(iu) - 1 - iu) does not depend on n: for integer n the
    quadrature's integrand, at u = theta/sqrt(n), is
    Re(z(u)^n) = e^(n(cos u - 1)) cos(n(sin u - u)).  At a root of unity
    w^k = e^(iu), u = 2 pi k/N, z = conj(w^k) v^(2^_HALVINGS) with
    v = exp(h (w^k - 1)) = e^-h sum_m h^m w^(km)/m!, h = 2^-_HALVINGS
    (_series gives the terms and e^-h).  w^(km) is read off the table of
    the N-th roots at index km mod N, so each part of the sum is a
    Horner scheme whose every step adds a table entry to the running sum
    divided by the small integer m 2^_HALVINGS: no multiplication, and
    a cost per term linear in the precision.  |v| <= 1, and each
    squaring at most doubles its error, which the one guard bit per
    squaring absorbs; the other _KERNEL_GUARD_BITS absorb the table's
    errors and the floors of the sum.  Each part of the result is
    within two units of 2^-wp of z (about one unit at most, measured at
    levels 0-9 and 64-1024 bits).
    """
    p = _kernel_bits(wp)
    mask, quarter = len(cosines) - 1, len(cosines) // 4
    k &= mask
    re = im = 0
    turn = k * (terms - 1) & mask
    # the terms m = M-1 down to 0, each dividing the sum of the ones
    # above it by (m + 1) 2^_HALVINGS
    for divisor in range(terms << _HALVINGS, 0, -1 << _HALVINGS):
        re = cosines[turn] + re // divisor
        im = cosines[turn - quarter] + im // divisor
        turn = (turn - k) & mask
    x, y = re * damping >> p, im * damping >> p
    for _ in range(_HALVINGS):
        x, y = (x + y) * (x - y) >> p, (x * y) >> (p - 1)
    c, s = cosines[k], cosines[k - quarter]
    shift = 2 * p - wp
    return (x * c + y * s) >> shift, (y * c - x * s) >> shift


# levels of _nodes kept in a process: the 16 levels that reach the
# _MAX_PANELS cap, at two precisions
_NODE_LEVELS_KEPT = 32


@lru_cache(maxsize=_NODE_LEVELS_KEPT)
def _nodes(wp: int, level: int) -> tuple[tuple[int, int], ...]:
    """z at the half-range nodes that doubling level ``level`` adds.

    Level 0 is u = 0 and pi; level L >= 1 is the odd multiples of
    pi/2^L, the midpoints of the 2^(L-1) half-range panels before it, so
    levels 0..L are the grid of 2^(L+1) full-range panels.  The nodes
    are the 2^(L+1)-th roots of unity, and each value comes from their
    table in integers (_z_at), as the pair (Re z, Im z) * 2^wp, rounded
    down; no transcendental is computed.  The table is built for the
    level and dropped with it.  |z(u)| = e^(cos u - 1) <= 1, so a value
    off the unit disc by more than two units raises ArithmeticError.
    The nodes depend on neither n nor the pass, so a process computes
    each once per precision and keeps the last _NODE_LEVELS_KEPT levels
    it used: at the _MAX_PANELS cap one precision holds 32769 pairs,
    5.2 MB at wp = 152 (128 bits) and 12.9 MB at wp = 1048 (1024 bits),
    and the cache at most twice that.  While the last level is built,
    its table of 65536 cosines is held as well: a call at the cap peaks
    at 9.3 MB (128 bits) and 24.8 MB (1024 bits) of tracemalloc.
    """
    p = _kernel_bits(wp)
    cosines = _root_cosines(max(level, 1), p)
    terms, damping = _series(p)
    # at level 0 the table is of the 4th roots, so u = 0 and pi are 0 and 2
    stride = len(cosines) >> (level + 1)
    bound = ((1 << wp) + 2) ** 2
    values = []
    for j in range(1, 2**level, 2) if level else (0, 1):
        x, y = _z_at(stride * j, cosines, terms, damping, wp)
        if x * x + y * y > bound:
            raise ArithmeticError
        values.append((x, y))
    return tuple(values)


def _real_power(z: tuple[int, int], n: int, wp: int) -> int:
    """Re(z^n) * 2^wp, by binary powering of the fixed-point pair z.

    Each product is cut back to wp fractional bits with >> wp, which
    floors, so a power that has vanished below 2^-wp can read -1 as well
    as 0; once both parts are within a unit of 0 they stay there, so
    the loop stops and returns 0.  With |z| <= 1, a relative error of
    2^-wp in z, or in any square on the way, grows to about n 2^-wp in
    z^n: the result loses about log2(n) bits, as the product
    n(cos u - 1) in the exponent of e^(n(cos u - 1)) already does.
    """
    x, y = z
    for bit in bin(n)[3:]:
        x, y = (x + y) * (x - y) >> wp, (x * y) >> (wp - 1)
        if bit == "1":
            x, y = (x * z[0] - y * z[1]) >> wp, (x * z[1] + y * z[0]) >> wp
        if -1 <= x <= 1 and -1 <= y <= 1:
            return 0
    return x


class Dyadic(Fraction):
    """A binary floating-point value, man * 2^exp, held as an exact Fraction.

    The quadrature and the series sum of expansion_vs_quadrature return
    one.  _mpf_ is the value as mpmath keeps an mpf, (sign, man, exp,
    bit count of man) with man odd, or all 0 for zero, and man_exp is
    its (man, exp), the magnitude's, as mpmath's is.  Through _mpf_,
    mpmath reads the value exactly where it meets an mpf in arithmetic
    or a comparison; mp.mpf(x) reads it too, but rounds it to the
    context's precision.  Arithmetic among Fractions gives a plain
    Fraction.
    """

    __slots__ = ()

    @property
    def _mpf_(self) -> tuple[int, int, int, int]:
        num = self.numerator
        if not num:
            return (0, 0, 0, 0)
        man = abs(num)
        zeros = (man & -man).bit_length() - 1
        man >>= zeros
        exp = zeros + 1 - self.denominator.bit_length()
        return (int(num < 0), man, exp, man.bit_length())

    @property
    def man_exp(self) -> tuple[int, int]:
        return self._mpf_[1:3]


def _round(num: int, den: int, bits: int) -> Dyadic:
    """num/den, den > 0, rounded to bits significant bits, half to even.

    The quotient is taken to bits + 2 or bits + 3 bits, and the
    remainder of that division tells a tie from a value past it; a
    mantissa rounded up to 2^bits is still exact.  This is the rounding
    of mpmath's division and of its conversion of an int, at a
    precision of bits.
    """
    if not num:
        return Dyadic(0)
    magnitude = abs(num)
    # 2^(bits+1) < |num/den| 2^-exp < 2^(bits+3)
    exp = magnitude.bit_length() - den.bit_length() - bits - 2
    if exp < 0:
        man, rest = divmod(magnitude << -exp, den)
    else:
        man, rest = divmod(magnitude, den << exp)
    drop = man.bit_length() - bits
    half = 1 << (drop - 1)
    low = man & (2 * half - 1)
    man >>= drop
    if low > half or low == half and (rest or man & 1):
        man += 1
    man, exp = (-man if num < 0 else man), exp + drop
    return Dyadic(man << exp) if exp >= 0 else Dyadic(man, 1 << -exp)


def _mpf_quotient(num: int, den: int, bits: int) -> Dyadic:
    """num/den as mpmath's mpf(num)/mpf(den) gives it at a precision of
    bits: num and den each rounded, then their quotient."""
    quotient = _round(num, 1, bits) / _round(den, 1, bits)
    return _round(quotient.numerator, quotient.denominator, bits)


@lru_cache(maxsize=4)
def _pi(bits: int) -> int:
    """pi * 2^bits, rounded down but for a twentieth of a unit.

    Machin's formula, pi = 16 arctan(1/5) - 4 arctan(1/239), in
    integers: each term of arctan(1/x) = sum_k (-1)^k/((2k+1) x^(2k+1))
    is floored, and so is the tail left out, each an error of under a
    unit of the guard bits.  There are about 4 such errors per bit of
    the result, and 2^guard is over 256 times its bits.
    """
    guard = bits.bit_length() + 8
    one = 1 << (bits + guard)

    def arctan_inverse(x: int) -> int:
        total, power, divisor, sign = 0, one // x, 1, 1
        while power:
            total += sign * (power // divisor)
            power //= x * x
            divisor += 2
            sign = -sign
        return total

    return (16 * arctan_inverse(5) - 4 * arctan_inverse(239)) >> guard


# bits of sqrt(2 pi n) past the working precision with which a settled
# quadrature is first rounded; each retry doubles the whole precision
_ROOT_GUARD_BITS = 64


def _settled_ratio(
    n: int, total: int, panels: int, wp: int, bits: int, p: int
) -> Dyadic:
    """total sqrt(2 pi n)/(panels 2^wp), rounded once, half to even, to bits.

    sqrt(2 pi n) 2^p lies between r - 1 and r + 2, r the integer square
    root of 2n _pi(2p), while 2^p > sqrt(n): _pi is off by less than
    1.05 units, which moves the root by less than half a unit.  The
    value is rounded at both ends of that range; if they agree, so does
    every value between, and otherwise p doubles.
    """
    while True:
        root = math.isqrt(2 * n * _pi(2 * p))
        den = panels << (wp + p)
        low, high = (_round(total * r, den, bits) for r in (root - 1, root + 2))
        if low == high:
            return low
        p *= 2


def stirling_ratio_quadrature(
    n: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Dyadic:
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
    does not depend on n.  The nodes are roots of unity, and z is
    computed from a table of them in integers, once per working
    precision and node in a process, and kept in fixed point (_nodes,
    which holds the nodes of at most two precisions at the cap); each
    call raises it to the power n in integers (_real_power) and sums
    each pass exactly, so no transcendental is computed per node.

    The full-range panel count starts at _START_PANELS and doubles, never
    past _MAX_PANELS, until two successive full-range results agree to
    2^-(precision_bits/2); each doubling adds only the new midpoints, so
    a run ending at P panels evaluates the integrand at P/2 + 1 nodes.
    The test is decided on the exact sums: the result of a pass is
    unit * T/P, with T its sum in units of 2^-wp, so two passes agree
    when |T_L - 2 T_(L-1)| <= limit * P_L, with limit the tolerance
    divided by unit, rounded down.  Only the settled sum is rounded, once,
    in integers (_settled_ratio).  Failure to settle, or a node value off
    the unit disc, raises ArithmeticError.  The result is the full-range
    integral divided by sqrt(2 pi).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _require_precision(precision_bits)
    wp = precision_bits + _GUARD_BITS
    p = wp + _ROOT_GUARD_BITS
    pi = _pi(2 * p)
    # twice the half range, taken back from u to theta, times pi: a pass
    # of P panels whose sum is T units of 2^-wp gives unit * T/P, with
    # unit = 2 pi sqrt(n) 2^-wp; the tolerance 2^-(precision_bits/2) in
    # units of unit, rounded down
    limit = (1 << (wp - precision_bits // 2 + 2 * p)) // math.isqrt(
        n * pi * pi << 2
    )
    # in units of 2^-wp: the two ends, plus twice every interior node so far
    total = 0
    previous = None
    # levels 0..level are the nodes of 2^(level+1) full-range panels
    for level in range(_MAX_PANELS.bit_length() - 1):
        try:
            level_sum = sum(_real_power(z, n, wp) for z in _nodes(wp, level))
        except ArithmeticError as exc:
            raise ArithmeticError(
                f"quadrature node value off the unit disc at n={n}"
            ) from exc
        total += 2 * level_sum if level else level_sum
        panels = 2 ** (level + 1)
        if panels < _START_PANELS:
            continue
        if previous is not None and abs(total - 2 * previous) <= limit * panels:
            return _settled_ratio(n, total, panels, wp, precision_bits, p)
        previous = total
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
    from mpmath import mp

    with mp.workprec(precision_bits + _GUARD_BITS):
        value = _prefactor(n) / mp.mpf(_exact_mpf(math.factorial(n)))
        with mp.workprec(precision_bits):
            return +value


def expansion_vs_quadrature(
    n: int, terms: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> tuple[Dyadic, Dyadic]:
    """(quadrature ratio, truncated alternating series sum_k (-1)^k a_k/n^k).

    The series sum is rounded as mpmath's mpf(p)/mpf(q) rounds it
    (_mpf_quotient).  The difference should shrink like 1/n^(terms+1);
    that scaling is a desk-scale observation, not a bound, so it is
    asserted only in tests.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 for the comparison, got {n}")
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    _require_precision(precision_bits)
    from .coefficients import coefficient_table

    ratio = stirling_ratio_quadrature(n, precision_bits)
    tail = _sum_over_powers(coefficient_table("bernoulli", terms), -n)
    return ratio, _mpf_quotient(tail.numerator, tail.denominator, precision_bits)
