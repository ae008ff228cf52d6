"""Core series arithmetic: exactness, rejected inputs, algebraic laws."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stirlingexp import coefficients
from stirlingexp.series import TruncatedSeries, as_fraction

# ordinary coefficients of the two inverse series through x^6, used as
# fixed reference data in several places
B_LISTING = (
    Fraction(0),
    Fraction(1),
    Fraction(-1, 6),
    Fraction(1, 36),
    Fraction(-1, 270),
    Fraction(1, 4320),
    Fraction(1, 17010),
)
C_LISTING = (B_LISTING[0], B_LISTING[1], Fraction(1, 3)) + B_LISTING[3:]


def test_constructor_pads_short_input():
    f = TruncatedSeries([1, 2], order=4)
    assert f.coeffs == (1, 2, 0, 0, 0)
    assert f.order == 4


def test_constructor_rejects_excess_coefficients():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3], order=1)


def test_constructor_rejects_floats():
    with pytest.raises(TypeError):
        TruncatedSeries([0.5, 1], order=2)


def test_constructor_rejects_empty_without_order():
    with pytest.raises(ValueError, match="empty coefficient list"):
        TruncatedSeries([])


def test_order_mismatch_is_rejected_not_truncated():
    a = TruncatedSeries([1], order=3)
    b = TruncatedSeries([1], order=4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a == b
    with pytest.raises(ValueError):
        a.compose(b)
    # at order 0 no product inside compose sees the mismatch
    with pytest.raises(ValueError, match="order mismatch: 0 vs 1"):
        TruncatedSeries([1]).compose(TruncatedSeries([0, 1], order=1))


def test_series_are_unhashable():
    # == raises on an order mismatch, so no hash could agree with it
    with pytest.raises(TypeError, match="unhashable"):
        hash(TruncatedSeries([1]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TruncatedSeries([1], order=-1), "order must be >= 0, got -1"),
        (
            lambda: TruncatedSeries([0, 1], order=0),
            "2 coefficients exceed order 0; refusing to discard terms silently",
        ),
        (lambda: coefficients.kernel("exp", -1), "order must be >= 0, got -1"),
        (lambda: coefficients.kernel("log", -1), "order must be >= 0, got -1"),
    ],
    ids=["negative-order", "past-order", "exp-kernel", "log-kernel"],
)
def test_a_series_outside_its_order_is_rejected(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_getitem_bounds():
    f = TruncatedSeries([1, 2, 3])
    assert f[2] == 3
    with pytest.raises(IndexError):
        f[3]
    # not the tuple's count from the end
    with pytest.raises(IndexError):
        f[-1]


def test_truncate_keeps_retained_coefficients():
    f = TruncatedSeries([5, 7, 11, 13])
    assert f.truncate(1).coeffs == (5, 7)
    with pytest.raises(ValueError):
        f.truncate(4)


def test_add_zero_is_identity():
    f = TruncatedSeries([3, Fraction(1, 7), 2])
    assert f + TruncatedSeries([], order=2) == f


def test_add_cancellation():
    f = TruncatedSeries([3, Fraction(1, 7), 2])
    assert f + (-f) == TruncatedSeries([], order=2)


def test_add_quadratic_shift_relates_the_two_listings():
    b = TruncatedSeries(B_LISTING)
    c = TruncatedSeries(C_LISTING)
    half_square = TruncatedSeries([0, 0, Fraction(1, 2)], order=6)
    assert half_square + b == c


def test_mul_matches_left_truncated_exponential():
    # x^2 * kernel == 2(e^x - 1 - x), whose m-th coefficient is 2/m!
    K = 9
    product = TruncatedSeries([0, 0, 1], order=K) * coefficients.kernel("exp", K)
    expected = TruncatedSeries(
        [0, 0] + [Fraction(2, math.factorial(m)) for m in range(2, K + 1)],
        order=K,
    )
    assert product == expected


def test_scalar_arithmetic():
    f = TruncatedSeries([1, 2, 3])
    assert (2 * f).coeffs == (2, 4, 6)
    assert (f + 5).coeffs == (6, 2, 3)
    assert (1 - f).coeffs == (0, -2, -3)


@pytest.mark.parametrize(
    "operation",
    [
        lambda f: f + 0.5, lambda f: 0.5 + f,
        lambda f: f - 0.5, lambda f: 0.5 - f,
        lambda f: f * 0.5, lambda f: 0.5 * f,
    ],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
)
def test_a_float_operand_is_rejected_on_either_side(operation):
    # every scalar goes through as_fraction; none is handed back to the
    # other operand as NotImplemented
    with pytest.raises(TypeError, match="exact rational expected, got float"):
        operation(TruncatedSeries([1, 2, 3]))


def test_a_series_is_not_equal_to_a_scalar():
    # equality with a scalar is not defined, so it falls back to identity
    assert (TruncatedSeries([1]) == 1) is False


def test_compose_with_identity():
    f = TruncatedSeries([2, 5, Fraction(-1, 3), 7])
    assert f.compose(TruncatedSeries([0, 1], order=3)) == f


def test_compose_geometric_with_moebius():
    # 1/(1-x) composed with x/(1+x) collapses to 1 + x exactly
    K = 6
    geometric = TruncatedSeries([1] * (K + 1))
    moebius = TruncatedSeries([0] + [(-1) ** (i + 1) for i in range(1, K + 1)])
    assert geometric.compose(moebius) == TruncatedSeries([1, 1], order=K)


def test_compose_requires_zero_constant_inside():
    f = TruncatedSeries([1, 1, 1])
    with pytest.raises(ValueError):
        f.compose(TruncatedSeries([1], order=2))


def test_exp_of_zero():
    assert TruncatedSeries([], order=5).exp() == TruncatedSeries([1], order=5)


def test_exp_quadratic_monomial():
    # exp(x^2/12) = 1 + x^2/12 + x^4/288 + ...
    e = TruncatedSeries([0, 0, Fraction(1, 12)], order=4).exp()
    assert e.coeffs == (1, 0, Fraction(1, 12), 0, Fraction(1, 288))


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([1], order=3).exp()


def test_log1p_of_zero():
    assert TruncatedSeries([], order=5).log1p() == TruncatedSeries([], order=5)


def test_log1p_inverts_exp_minus_one():
    # log(1 + (e^x - 1)) == x
    K = 10
    w = TruncatedSeries([0, 1], order=K).exp() - 1
    assert w.log1p() == TruncatedSeries([0, 1], order=K)


def test_log1p_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([1], order=3).log1p()


def test_power_rational_zero_exponent():
    one = TruncatedSeries([1], order=5)
    assert coefficients.kernel("exp", 5).power_rational(0) == one


def test_power_rational_inverse_of_kernel_exp():
    inverse = coefficients.kernel("exp", 1).power_rational(-1)
    assert inverse.coeffs == (1, Fraction(-1, 3))


def test_power_rational_square_root_squares_back():
    K = 12
    g = coefficients.kernel("exp", K)
    root = g.power_rational(Fraction(1, 2))
    assert root * root == g


def test_power_rational_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1, 1]).power_rational(Fraction(1, 2))


def _binomial_general(r: Fraction, j: int) -> Fraction:
    value = Fraction(1)
    for t in range(j):
        value *= (r - t) / (j - t)
    return value


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        min_size=4,
        max_size=7,
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_power_rational_matches_binomial_accumulation(tail, r):
    f = TruncatedSeries([Fraction(1)] + tail)
    K = f.order
    shifted = f - 1
    total = TruncatedSeries([], order=K)
    term = TruncatedSeries([1], order=K)
    for j in range(K + 1):
        total = total + _binomial_general(r, j) * term
        term = term * shifted
    assert f.power_rational(r) == total


@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=5),
        min_size=4,
        max_size=7,
    ),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_power_rational_matches_exp_log_route(tail, r):
    f = TruncatedSeries([Fraction(1)] + tail)
    assert f.power_rational(r) == (r * (f - 1).log1p()).exp()


def test_reversion_of_identity():
    x = TruncatedSeries([0, 1], order=5)
    assert x.reversion() == x


def test_reversion_of_moebius_pair():
    # the inverse of x/(1-x) is x/(1+x): both checked coefficient-wise
    K = 8
    f = TruncatedSeries([0] + [1] * K)
    expected = TruncatedSeries([0] + [(-1) ** (i + 1) for i in range(1, K + 1)])
    assert f.reversion() == expected
    assert expected.reversion() == f


def test_reversion_roundtrip_for_lifted_kernel_root():
    K = 8
    root = coefficients.kernel("exp", K - 1).power_rational(Fraction(1, 2))
    lifted = TruncatedSeries((Fraction(0),) + root.coeffs, order=K)
    inverse = lifted.reversion()
    assert inverse.compose(lifted) == TruncatedSeries([0, 1], order=K)
    assert lifted.compose(inverse) == TruncatedSeries([0, 1], order=K)


def test_reversion_rejects_bad_leading_terms():
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1, 1]).reversion()
    with pytest.raises(ValueError):
        TruncatedSeries([0, 0, 1]).reversion()


def test_derivative_drops_order():
    f = TruncatedSeries([5, 1, Fraction(1, 2), Fraction(1, 3)])
    d = f.derivative()
    assert d.order == 2
    assert d.coeffs == (1, 1, 1)
    with pytest.raises(ValueError, match="derivative needs order >= 1"):
        TruncatedSeries([1], order=0).derivative()


def test_derivative_of_order_one_is_its_constant():
    # the least order that has a derivative: 3 + 7x gives 7, at order 0
    d = TruncatedSeries([3, 7]).derivative()
    assert d.order == 0
    assert d.coeffs == (7,)


def test_multiplicative_inverse():
    f = TruncatedSeries([1, 1], order=6)
    assert f.inverse().coeffs == tuple((-1) ** i for i in range(7))
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1], order=3).inverse()


def test_egf_coefficient_of_plain_exponential():
    e = TruncatedSeries([0, 1], order=9).exp()
    for n in range(10):
        assert e.egf_coefficient(n) == 1
    with pytest.raises(ValueError):
        e.egf_coefficient(10)


def test_kernel_exp_low_order():
    assert coefficients.kernel("exp", 3).coeffs == (
        1,
        Fraction(1, 3),
        Fraction(1, 12),
        Fraction(1, 60),
    )
    assert coefficients.kernel("exp", 0).coeffs == (1,)


def test_kernel_log_low_order():
    assert coefficients.kernel("log", 3).coeffs == (
        1,
        Fraction(-2, 3),
        Fraction(1, 2),
        Fraction(-2, 5),
    )
    with pytest.raises(ValueError):
        coefficients.kernel("log", -1)


def test_kernel_exp_is_one_plus_twice_small_tail():
    # the tail series sum_{k>=1} x^k/(k+2)! satisfies 1 + 2*tail == kernel
    K = 10
    tail = TruncatedSeries(
        [0] + [Fraction(1, math.factorial(k + 2)) for k in range(1, K + 1)]
    )
    assert 1 + 2 * tail == coefficients.kernel("exp", K)


def test_kernel_log_is_one_minus_twice_small_tail():
    K = 10
    tail = TruncatedSeries(
        [0] + [Fraction((-1) ** (k + 1), k + 2) for k in range(1, K + 1)]
    )
    assert 1 - 2 * tail == coefficients.kernel("log", K)


def test_str_rendering():
    b = TruncatedSeries(B_LISTING)
    assert str(b) == "x - x^2/6 + x^3/36 - x^4/270 + x^5/4320 + x^6/17010"
    assert str(TruncatedSeries([], order=4)) == "0"
    assert str(TruncatedSeries([Fraction(-2, 3), 5])) == "-2/3 + 5*x"
    # repr lists every coefficient up to the order, zeros included
    assert (
        repr(TruncatedSeries([1, Fraction(-1, 2)], order=3))
        == "TruncatedSeries([1, -1/2, 0, 0])"
    )


def test_json_round_trip():
    f = TruncatedSeries([Fraction(1, 3), -2, 0, Fraction(7, 5)])
    payload = f.to_json_dict()
    assert payload == {"order": 3, "coeffs": ["1/3", "-2", "0", "7/5"]}
    assert TruncatedSeries.from_json_dict(payload) == f


def test_json_rejects_inconsistent_payload():
    with pytest.raises(ValueError):
        TruncatedSeries.from_json_dict({"order": 2, "coeffs": ["1", "2"]})


def test_a_float_is_refused():
    with pytest.raises(TypeError):
        as_fraction(0.25)
    # a JSON number, which Fraction would read as the float's exact value
    with pytest.raises(TypeError):
        TruncatedSeries.from_json_dict({"order": 0, "coeffs": [0.1]})


# ----------------------------------------------------------------------
# algebraic laws on random small series

_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _series(draw, min_order=3, max_order=7):
    order = draw(st.integers(min_order, max_order))
    coeffs = draw(
        st.lists(_rationals, min_size=order + 1, max_size=order + 1)
    )
    return TruncatedSeries(coeffs, order=order)


@given(_series(), _series())
def test_mul_commutes(f, g):
    if f.order != g.order:
        g = TruncatedSeries(list(g.coeffs[: f.order + 1]), order=f.order)
    assert f * g == g * f


@given(_series(min_order=4, max_order=4), _series(min_order=4, max_order=4),
       _series(min_order=4, max_order=4))
def test_mul_distributes_over_add(f, g, h):
    assert f * (g + h) == f * g + f * h


@given(_series())
def test_exp_then_log_round_trip(f):
    zeroed = f - f[0]
    assert (zeroed.exp() - 1).log1p() == zeroed


@given(_series())
def test_log_then_exp_round_trip(f):
    zeroed = f - f[0]
    assert zeroed.log1p().exp() == 1 + zeroed


@given(
    _series(),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
def test_power_rational_addition_law(f, r, s):
    unit = f - f[0] + 1
    assert unit.power_rational(r) * unit.power_rational(s) == unit.power_rational(
        r + s
    )


@given(_series(), _rationals.filter(lambda q: q != 0))
def test_reversion_round_trips(f, linear):
    adjusted = TruncatedSeries(
        (Fraction(0), linear) + f.coeffs[2:], order=f.order
    )
    inverse = adjusted.reversion()
    x = TruncatedSeries([0, 1], order=f.order)
    assert inverse.compose(adjusted) == x
    assert adjusted.compose(inverse) == x


@given(_series())
def test_egf_ordinary_round_trip(f):
    for n in range(f.order + 1):
        assert f.egf_coefficient(n) == math.factorial(n) * f[n]


# ----------------------------------------------------------------------
# every kernel against a schoolbook Fraction implementation
#
# The operations accumulate integer numerators over common denominators;
# these references add Fractions term by term, so any slip in the
# bookkeeping of denominators, leading zeros or weights shows as a
# mismatch.  Coefficients mix coprime denominators and prime powers, and
# the head of each series is a run of zeros whose length is drawn too
# (it may cover the whole series).


def _naive_mul(a, b):
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0))
            for n in range(len(a))]


def _naive_inverse(f):
    out = [1 / f[0]]
    for n in range(1, len(f)):
        acc = sum((f[j] * out[n - j] for j in range(1, n + 1)), Fraction(0))
        out.append(-acc / f[0])
    return out


def _naive_exp(f):
    out = [Fraction(1)]
    for n in range(1, len(f)):
        acc = sum((m * f[m] * out[n - m] for m in range(1, n + 1)), Fraction(0))
        out.append(acc / n)
    return out


def _naive_log1p(f):
    out = [Fraction(0)]
    for n in range(1, len(f)):
        acc = sum(((n - j) * f[j] * out[n - j] for j in range(1, n)), Fraction(0))
        out.append(f[n] - acc / n)
    return out


def _naive_power_rational(f, r):
    out = [Fraction(1)]
    for n in range(1, len(f)):
        acc = r * sum((j * f[j] * out[n - j] for j in range(1, n + 1)), Fraction(0))
        acc -= sum((j * out[j] * f[n - j] for j in range(1, n)), Fraction(0))
        out.append(acc / n)
    return out


def _naive_reversion(f):
    K = len(f) - 1
    powers = [None, list(f)]
    for _ in range(2, K + 1):
        powers.append(_naive_mul(powers[-1], f))
    s = [Fraction(0), 1 / f[1]]
    for m in range(2, K + 1):
        acc = sum((s[i] * powers[i][m] for i in range(1, m)), Fraction(0))
        s.append(-acc / f[1] ** m)
    return s


_kernel_rationals = st.builds(
    Fraction,
    st.integers(-60, 60),
    st.sampled_from([1, 2, 3, 5, 7, 11, 13, 16, 27, 49, 97]),
)
_nonzero_rationals = _kernel_rationals.filter(lambda q: q != 0)


@st.composite
def _zero_led(draw, head=(), min_order=0, max_order=12):
    """Coefficients: ``head``, then a run of zeros, then arbitrary values."""
    order = draw(st.integers(max(min_order, len(head) - 1), max_order))
    free = order + 1 - len(head)
    zeros = draw(st.integers(0, free))
    tail = draw(st.lists(_kernel_rationals, min_size=free - zeros,
                         max_size=free - zeros))
    return list(head) + [Fraction(0)] * zeros + tail


@given(st.data())
def test_mul_matches_schoolbook(data):
    a = data.draw(_zero_led())
    b = data.draw(_zero_led(min_order=len(a) - 1, max_order=len(a) - 1))
    assert list((TruncatedSeries(a) * TruncatedSeries(b)).coeffs) == _naive_mul(a, b)


@given(_nonzero_rationals.flatmap(lambda c0: _zero_led(head=(c0,))))
def test_inverse_matches_schoolbook(f):
    assert list(TruncatedSeries(f).inverse().coeffs) == _naive_inverse(f)


@given(_zero_led(head=(Fraction(0),)))
def test_exp_matches_schoolbook(f):
    assert list(TruncatedSeries(f).exp().coeffs) == _naive_exp(f)


@given(_zero_led(head=(Fraction(0),)))
def test_log1p_matches_schoolbook(f):
    assert list(TruncatedSeries(f).log1p().coeffs) == _naive_log1p(f)


@given(_zero_led(head=(Fraction(1),)),
       st.fractions(min_value=-9, max_value=9, max_denominator=12))
def test_power_rational_matches_schoolbook(f, r):
    assert list(TruncatedSeries(f).power_rational(r).coeffs) == (
        _naive_power_rational(f, r)
    )


@given(_nonzero_rationals.flatmap(
    lambda c1: _zero_led(head=(Fraction(0), c1), min_order=1)))
def test_reversion_matches_schoolbook(f):
    assert list(TruncatedSeries(f).reversion().coeffs) == _naive_reversion(f)


def test_recurrences_match_schoolbook_at_order_60():
    # the series the coefficient routes feed these operations, at a size
    # where numerators run to hundreds of digits and _Running rescales
    K = 60
    r = Fraction(-(K + 1), 2)
    for kind in coefficients.KERNELS:
        kernel = coefficients.kernel(kind, K)
        assert list(kernel.power_rational(r).coeffs) == (
            _naive_power_rational(kernel.coeffs, r)
        )
    exponent = coefficients._bernoulli_exponent(K)
    expansion = exponent.exp()
    assert list(expansion.coeffs) == _naive_exp(exponent.coeffs)
    inverse = coefficients.inverse_series("exp", K)
    assert list(inverse.log1p().coeffs) == _naive_log1p(inverse.coeffs)
    alternating = TruncatedSeries(
        [(-1) ** k * a for k, a in enumerate(expansion.coeffs)]
    )
    assert list(alternating.inverse().coeffs) == _naive_inverse(alternating.coeffs)


def _lifted_root(kernel):
    """x * sqrt(kernel), the series whose reversion gives the inverse series."""
    root = kernel.power_rational(Fraction(1, 2))
    return TruncatedSeries((Fraction(0),) + root.coeffs, order=kernel.order + 1)


@pytest.mark.parametrize("kind", coefficients.KERNELS)
def test_reversion_of_kernel_root_matches_schoolbook_at_order_53(kind):
    # the order coeffs --max 26 reverts at, where the Bell triangle's
    # rows run to hundreds of digits
    lifted = _lifted_root(coefficients.kernel(kind, 52))
    assert list(lifted.reversion().coeffs) == _naive_reversion(lifted.coeffs)


def _cancelling(order):
    """-3x/2 + sum_{j>=2} x^j/(10j + 1).  Its Taylor coefficients
    j!/(10j + 1) keep primes above j in their denominators, and factors
    of those cancel inside 36 of the 40 rows of its Bell triangle."""
    return [Fraction(0), Fraction(-3, 2)] + [
        Fraction(1, 10 * j + 1) for j in range(2, order + 1)
    ]


def test_reversion_with_negative_linear_term_matches_schoolbook_at_order_40():
    f = _cancelling(40)
    assert list(TruncatedSeries(f).reversion().coeffs) == _naive_reversion(f)


def test_bell_rows_are_reduced_over_their_denominators_lcm():
    order = 12
    f = _cancelling(order)
    taylor = [math.factorial(j) * c for j, c in enumerate(f)]
    powers = [None, f]
    for _ in range(2, order + 1):
        powers.append(_naive_mul(powers[-1], f))
    dens = [1]
    reduced_rows = 0
    for n, (row, den) in enumerate(TruncatedSeries(f)._bell_rows(), 1):
        values = [Fraction(v, den) for v in row]
        # B(n, k) = n!/k! [x^n] f^k
        assert values == [
            math.factorial(n) * powers[k][n] / math.factorial(k)
            for k in range(1, n + 1)
        ]
        assert den == math.lcm(*(v.denominator for v in values))
        # the row's common denominator before the gcd, L_n
        common = math.lcm(
            *(taylor[j].denominator * dens[n - j] for j in range(1, n + 1))
        )
        reduced_rows += common != den
        dens.append(den)
    assert len(dens) == order + 1
    assert reduced_rows > 0


@pytest.mark.slow
@pytest.mark.parametrize("kind", coefficients.KERNELS)
def test_reversion_of_kernel_root_composes_to_x_at_order_121(kind):
    lifted = _lifted_root(coefficients.kernel(kind, 120))
    inverse = lifted.reversion()
    x = TruncatedSeries([0, 1], order=121)
    assert inverse.compose(lifted) == x
    assert lifted.compose(inverse) == x


def test_power_minus_one_is_the_inverse():
    f = TruncatedSeries([1, Fraction(-2, 3), Fraction(5, 7), 0, Fraction(1, 9)])
    assert f.power_rational(-1) == f.inverse()
    kernel = coefficients.kernel("exp", 30)
    assert kernel.power_rational(-1) == kernel.inverse()
