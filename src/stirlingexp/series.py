"""Exact truncated formal power series over the rationals.

A :class:`TruncatedSeries` holds the ordinary coefficients of a formal
power series through a fixed truncation order K.  Every operation is
exact: coefficients are reduced ``fractions.Fraction`` values, truncation
discards only powers above K, and retained coefficients are never
perturbed.  Floating point is deliberately not accepted anywhere in this
module.  The layer is generic: it knows no particular series, and the
paper's two kernels are built in coefficients.

``inverse``, ``exp``, ``log1p`` and ``power_rational`` are one
first-order recurrence, ``_first_order``, with four choices of weights.
``reversion`` solves S(self) = x in the Taylor basis, against the
triangle of partial Bell polynomials of self's Taylor coefficients
(Comtet, *Advanced Combinatorics*, 1974, section 3.8); for the kernel
roots the paper inverts, those have far smaller common denominators than
the ordinary powers self^m (a series with small integer coefficients
pays the factorials instead).
Products and recurrences do not add Fractions term by term, which would
reduce every partial sum by a gcd.  They lift their inputs once to
integer numerators over a common denominator (the lcm of the input
denominators), take every inner sum as one integer dot product, and build
one reduced Fraction per output coefficient.  The recurrences keep their
values so far over a running common denominator (``_Running``); each row
of the Bell triangle is integers over one reduced denominator of its own,
with no Fraction per entry.

The truncation order is explicit on every series and there is no global
precision state.  Mixing two series of different orders is treated as a
programming error and rejected, not silently truncated.

No floating point means no mpmath: the numeric validation, asymptotic,
imports this layer (through coefficients) on the first call that needs
exact coefficients, and approx_factorial does so before it loads mpmath,
for the reason that asymptotic's docstring states.  asymptotic's
precision defaults live in the package root.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import count
from operator import mul

__all__ = ["TruncatedSeries", "as_fraction"]

Scalar = int | Fraction


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def _lift(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``coeffs`` over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class _Running:
    """The values of a recurrence so far, as integer numerators over one
    common denominator ``den``.  A caller that needs them as reduced
    Fractions keeps those itself.

    ``den`` grows only when a new value's denominator does not divide it,
    and then every earlier numerator is rescaled once.
    """

    __slots__ = ("nums", "den")

    def __init__(self, first: Fraction):
        self.nums = [first.numerator]
        self.den = first.denominator

    def append(self, value: Fraction) -> None:
        d = value.denominator
        if self.den % d:
            scale = d // math.gcd(self.den, d)
            self.nums = [n * scale for n in self.nums]
            self.den *= scale
        self.nums.append(value.numerator * (self.den // d))


class TruncatedSeries:
    """Formal power series truncated at a fixed order, with exact arithmetic.

    ``coeffs[i]`` is the ordinary coefficient of x^i; the exponential
    (Taylor) coefficient i! * coeffs[i] is available through
    :meth:`egf_coefficient`.  Instances are immutable.

    Binary operations require both operands to have the same order; a
    mismatch raises ``ValueError`` (this includes ``==``, which is why
    instances are unhashable).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        items = [as_fraction(c) for c in coeffs]
        if order is None:
            if not items:
                raise ValueError("empty coefficient list and no order given")
            order = len(items) - 1
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(items) > order + 1:
            raise ValueError(
                f"{len(items)} coefficients exceed order {order}; "
                "refusing to discard terms silently"
            )
        items.extend([Fraction(0)] * (order + 1 - len(items)))
        self._coeffs = tuple(items)

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, index: int) -> Fraction:
        if not 0 <= index <= self.order:
            raise IndexError(f"coefficient index {index} outside [0, {self.order}]")
        return self._coeffs[index]

    def egf_coefficient(self, index: int) -> Fraction:
        """The exponential coefficient index! * [x^index]."""
        if not 0 <= index <= self.order:
            raise ValueError(f"index {index} outside retained range [0, {self.order}]")
        return math.factorial(index) * self._coeffs[index]

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop all powers above ``order`` (which must not exceed self.order)."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        return TruncatedSeries(self._coeffs[: order + 1], order=order)

    def _require_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}; "
                "truncate explicitly before combining"
            )

    # ------------------------------------------------------------------
    # ring operations; an operand that is not a series is a scalar, which
    # goes through as_fraction, so a float is rejected on either side

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            return TruncatedSeries(
                [a + b for a, b in zip(self._coeffs, other._coeffs)]
            )
        head = (self._coeffs[0] + as_fraction(other),) + self._coeffs[1:]
        return TruncatedSeries(head)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self._coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            a, da = _lift(self._coeffs)
            b, db = _lift(other._coeffs)
            den = da * db
            return TruncatedSeries(
                Fraction(sum(map(mul, a, reversed(b[: m + 1]))), den)
                for m in range(len(a))
            )
        scalar = as_fraction(other)
        return TruncatedSeries([c * scalar for c in self._coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            return self._coeffs == other._coeffs
        return NotImplemented

    # ------------------------------------------------------------------
    # calculus and composition

    def derivative(self) -> "TruncatedSeries":
        """Formal derivative; the order drops by one."""
        if self.order < 1:
            raise ValueError("derivative needs order >= 1")
        return TruncatedSeries(
            [i * self._coeffs[i] for i in range(1, self.order + 1)]
        )

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(x)), requiring inner to have zero constant term."""
        self._require_same_order(inner)
        if inner._coeffs[0] != 0:
            raise ValueError("composition requires a zero constant term inside")
        result = TruncatedSeries([self._coeffs[self.order]], order=self.order)
        for i in range(self.order - 1, -1, -1):
            result = result * inner + self._coeffs[i]
        return result

    def _first_order(self, start, a: int, b: int, d: int = 1, source: int = 0):
        """The series P with P[0] = start and, for f = self and n >= 1,

            d f[0] n P[n] = source n f[n] + sum_{j=1..n} (a j - b n) f[j] P[n-j].

        Each P[n] is one integer dot product of the weights (a j - b n) f[j],
        small multiples of f's lifted numerators, with P's numerators so far.
        """
        f, _ = _lift(self._coeffs)  # its denominator cancels against f[0]
        lead, f1 = d * f[0], f[1:]
        values = [start]
        out = _Running(start)
        for n in range(1, self.order + 1):
            weights = map(mul, count(a - b * n, a), f1)
            acc = sum(map(mul, weights, reversed(out.nums)))
            nden = n * out.den
            values.append(Fraction(source * f[n] * nden + acc, lead * nden))
            out.append(values[-1])
        return TruncatedSeries(values)

    def inverse(self) -> "TruncatedSeries":
        """1/self, the constant term nonzero: f[0] P[n] = -sum_j f[j] P[n-j]."""
        c0 = self._coeffs[0]
        if c0 == 0:
            raise ValueError("multiplicative inverse requires a nonzero constant term")
        return self._first_order(1 / c0, 0, 1)

    def exp(self) -> "TruncatedSeries":
        """exp(self), the constant term zero; E' = f'E with f = 1 + self."""
        if self._coeffs[0] != 0:
            raise ValueError("exp requires a zero constant term")
        return (self + 1)._first_order(Fraction(1), 1, 0)

    def log1p(self) -> "TruncatedSeries":
        """log(1 + self), the constant term zero; f L' = f' with f = 1 + self."""
        if self._coeffs[0] != 0:
            raise ValueError("log1p requires a zero constant term")
        return (self + 1)._first_order(Fraction(0), 1, 1, source=1)

    def power_rational(self, exponent: Scalar) -> "TruncatedSeries":
        """self**r for a rational r = rn/rd, requiring constant term 1.

        Defined by the binomial series sum_j C(r, j) (self - 1)^j.  The
        x^(n-1) coefficient of P' f = r f' P gives the O(order^2) recurrence
        rd n P[n] = sum_{j=1..n} ((rn + rd) j - rd n) f[j] P[n-j].
        """
        if self._coeffs[0] != 1:
            raise ValueError("power_rational requires constant term exactly 1")
        r = as_fraction(exponent)
        rn, rd = r.numerator, r.denominator
        return self._first_order(Fraction(1), rn + rd, rd, rd)

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse S with S(self) == x through the full order.

        Requires coeffs[0] == 0 and coeffs[1] != 0.  Solves the triangular
        system in the Taylor basis (Comtet, *Advanced Combinatorics*, 1974,
        section 3.8): the Taylor coefficients g of S satisfy
        sum_{k=1..n} g_k B(n, k) = [n == 1] against the partial Bell
        triangle of :meth:`_bell_rows`, whose diagonal B(n, n) = e_1^n is
        nonzero.  Each g_n is one integer dot product with row n, in which
        the row's denominator cancels.
        """
        f = self._coeffs
        if f[0] != 0:
            raise ValueError("reversion requires a zero constant term")
        if self.order < 1 or f[1] == 0:
            raise ValueError("reversion requires a nonzero linear term")
        rows = self._bell_rows()
        (first,), den = next(rows)
        taylor = [Fraction(den, first)]  # g_1 = 1/e_1, g_2, ...
        g = _Running(taylor[0])
        for row, _ in rows:
            # g_n = -sum_{k<n} g_k B(n, k) / B(n, n)
            taylor.append(Fraction(-sum(map(mul, g.nums, row)), g.den * row[-1]))
            g.append(taylor[-1])
        return TruncatedSeries(
            [Fraction(0)] + [t / math.factorial(m) for m, t in enumerate(taylor, 1)]
        )

    def _bell_rows(self):
        """Rows n = 1..order of the triangle of partial Bell polynomials

            B(n, k) = sum_{j=1..n-k+1} C(n-1, j-1) e_j B(n-j, k-1)

        of the Taylor coefficients e_j = j! coeffs[j], the Taylor
        coefficients of self^k / k!.  Row n is yielded as the integer
        numerators of B(n, 1..n) and their one denominator R_n, the lcm of
        the row's reduced denominators.

        With e_j = E_j/d_j reduced and R_0 = 1, row n is first taken over
        L_n = lcm_{j=1..n} d_j R_{n-j}: each entry is one integer dot
        product of the row's weights C(n-1, j-1) E_j L_n/(d_j R_{n-j})
        with the column to its left, and B(n, 1) is the last weight,
        E_n L_n/d_n.  Dividing the row and L_n by their gcd leaves R_n.
        """
        E, d = zip(*(
            (math.factorial(j) * c).as_integer_ratio()
            for j, c in enumerate(self._coeffs)
        ))
        R = [1]  # R_0, R_1, ...
        columns = []  # columns[k-1] holds the numerators of B(k..n-1, k)
        for n in range(1, self.order + 1):
            scales = [d[j] * R[n - j] for j in range(1, n + 1)]
            lcm = math.lcm(*scales)
            weights = [
                math.comb(n - 1, j) * E[j + 1] * (lcm // s)
                for j, s in enumerate(scales)
            ]
            row = [weights[-1]] + [
                sum(map(mul, weights, reversed(col))) for col in columns
            ]
            common = math.gcd(lcm, *row)
            R.append(lcm // common)
            row = [v // common for v in row]
            for col, v in zip(columns, row):
                col.append(v)
            columns.append([row[-1]])
            yield row, R[-1]

    # ------------------------------------------------------------------
    # presentation and serialization

    def __repr__(self) -> str:
        body = ", ".join(map(str, self._coeffs))
        return f"TruncatedSeries([{body}])"

    def __str__(self) -> str:
        terms: list[str] = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                if mag == 1:
                    body = x
                elif mag.numerator == 1:
                    body = f"{x}/{mag.denominator}"
                else:
                    body = f"{mag}*{x}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        if not terms:
            return "0"
        return " ".join(terms)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coeffs": list(map(str, self._coeffs)),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TruncatedSeries":
        order = payload["order"]
        # a coefficient that is not text goes on as it is to the
        # constructor's as_fraction, which refuses a JSON number's float
        coeffs = [
            Fraction(c) if isinstance(c, str) else c for c in payload["coeffs"]
        ]
        if len(coeffs) != order + 1:
            raise ValueError(
                f"series payload claims order {order} but carries "
                f"{len(coeffs)} coefficients"
            )
        return cls(coeffs, order=order)
