"""Numeric behavior: quadrature accuracy, error scaling, precision plumbing."""

import math
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st
from mpmath import mp

from stirlingexp import asymptotic
from stirlingexp.asymptotic import (
    ApproxReport,
    approx_factorial,
    expansion_vs_quadrature,
    stirling_ratio_exact,
    stirling_ratio_quadrature,
)
from stirlingexp.coefficients import CrossCheck, coefficient_table, verify_all
from stirlingexp.identities import (
    IdentityReport,
    reciprocal_consistency,
    report_from_pairs,
)


def test_closed_form_ratio_at_one():
    # sqrt(2 pi)/e, the classic value
    value = stirling_ratio_exact(1, 128)
    assert abs(value - 0.9221370088957891) < 1e-12


def test_quadrature_matches_closed_form_on_sample():
    for n in (1, 2, 4, 7, 13, 20):
        quad = stirling_ratio_quadrature(n, 128)
        exact = stirling_ratio_exact(n, 128)
        assert abs(quad - exact) / exact <= 1e-8, n


def test_quadrature_at_four_against_independent_expression():
    quad = stirling_ratio_quadrature(4, 128)
    with mp.workprec(160):
        expected = mp.sqrt(8 * mp.pi) * mp.exp(-4) * mp.mpf(256) / 24
    assert abs(quad - expected) < mpmath.mpf(10) ** -25


# the working precision at which the tests below evaluate the integrand
_WP = 140


def _kernel(level):
    """z at index k of the node kernel's table of the 2^(level+1)-th
    roots of unity (at least the 4th), at working precision _WP, and the
    table's size."""
    p = _WP + asymptotic._GUARD_BITS
    cosines = asymptotic._root_cosines(max(level, 1), p)
    terms, damping = asymptotic._series(p)

    def z_at(k):
        return asymptotic._z_at(k, cosines, terms, damping, _WP)

    return z_at, len(cosines)


def _power(n, z):
    """Re(z^n) through the quadrature's integer power, as an mpf."""
    return mp.ldexp(asymptotic._real_power(z, n, _WP), -_WP)


def test_damping_is_within_two_units_of_e_to_the_minus_h():
    # the Horner sum floors at each step and leaves out a tail, so it is
    # not the floor of e^-h 2^p (1.11 units above at p = 55); its M terms
    # are the least with h^M/M! < 2^-p
    h = mp.mpf(2) ** -asymptotic._HALVINGS
    for p in range(8, 300):
        terms, damping = asymptotic._series(p)
        with mp.workprec(p + 64):
            assert abs(damping - mp.exp(-h) * 2**p) < 2, p
            assert h**terms / mp.factorial(terms) < mp.mpf(2) ** -p, p
            assert h ** (terms - 1) / mp.factorial(terms - 1) >= mp.mpf(2) ** -p


def test_the_node_cache_holds_every_level_at_two_precisions():
    # the 65536 full-range panels of _MAX_PANELS are levels 0..15; the
    # cache keeps all of them at two precisions, the memory its comment
    # bounds, and no more
    assert asymptotic._MAX_PANELS == 2**16
    assert asymptotic._nodes.cache_info().maxsize == 2 * 16


def test_integrand_is_even():
    # z(-u) is the conjugate of z(u): index N - k is -u on the table of
    # N roots; the two are built by different products, so they agree to
    # within the kernel's rounding ...
    for level in (2, 4, 6):
        z_at, size = _kernel(level)
        for k in range(1, size // 2):
            x, y = z_at(k)
            xm, ym = z_at(size - k)
            assert abs(xm - x) <= 2 and abs(ym + y) <= 2, (level, k)
            # ... and the power of the conjugate has the same real part,
            # but for the rounding of its products
            for n in (1, 5, 12):
                assert abs(_power(n, (x, y)) - _power(n, (xm, ym))) <= (
                    mpmath.mpf(2) ** -(_WP - 8)
                ), (level, k, n)


def test_integrand_is_two_pi_periodic():
    # z is 2 pi-periodic (e^(iu) is, and -iu moves by -2 pi i): an index
    # a whole turn on, k + N, is reduced to k in every product of the
    # kernel and gives the same value to the bit
    for level in (0, 3, 5):
        z_at, size = _kernel(level)
        for k in range(size):
            assert z_at(k + size) == z_at(k), (level, k)


def test_integrand_matches_the_complex_form():
    with mp.workprec(_WP):
        for level in range(6):
            z_at, size = _kernel(level)
            # the level's own roots: a finer table has the same values at
            # the same angles, at the cost of its extra doublings
            assert size == 2 ** (max(level, 1) + 1), level
            for k in range(size):
                u = 2 * mp.pi * k / size
                z = z_at(k)
                for n in (1, 5, 12):
                    expected = mp.re(mp.exp(n * (mp.expj(u) - 1 - 1j * u)))
                    error = abs(_power(n, z) - expected)
                    assert error <= mpmath.mpf(2) ** -125, (level, k, n)


def _assert_nodes_within_two_units(wp, level, sample=1):
    """Every ``sample``-th node the quadrature keeps at the level, each part
    within 2 units of 2^-wp of z(u) taken 32 bits higher."""
    values = asymptotic._nodes(wp, level)
    points = range(1, 2**level, 2) if level else (0, 1)
    with mp.workprec(wp + 32):
        for j, (x, y) in list(zip(points, values))[::sample]:
            u = j * mp.pi / 2**level
            z = mp.exp(mp.expj(u) - 1 - 1j * u)
            assert abs(mp.ldexp(z.real, wp) - x) <= 2, (wp, level, j)
            assert abs(mp.ldexp(z.imag, wp) - y) <= 2, (wp, level, j)


@pytest.mark.parametrize("bits", [64, 128, 256, 1024])
def test_each_node_is_within_two_units_of_z(bits):
    wp = bits + asymptotic._GUARD_BITS
    for level in range(9):
        _assert_nodes_within_two_units(wp, level)


@pytest.mark.slow
def test_nodes_at_the_cap_level_are_within_two_units_of_z():
    # level 15 completes the 65536 full-range panels of _MAX_PANELS; its
    # table has been doubled 14 times from that of the 4th roots
    _assert_nodes_within_two_units(128 + asymptotic._GUARD_BITS, 15, sample=7)


def test_a_vanished_power_is_zero():
    # z(pi) = -e^-2, so z(pi)^53 = -e^-106, about -2^-152.9: below one
    # unit at wp = 152, where a floored product can stop at -1 unit
    wp = 152
    with mp.workprec(wp + 32):
        z = (int(mp.floor(mp.ldexp(-mp.exp(-2), wp))), 0)
    assert asymptotic._real_power(z, 53, wp) == 0
    # a power still above the unit keeps its sign: -e^-102 is about
    # -2^-147.2, some -27 units
    assert -30 <= asymptotic._real_power(z, 51, wp) <= -24
    # i 2^-wp squared is -2^-2wp: gone, not -1
    assert asymptotic._real_power((0, 1), 2, wp) == 0


def _record_nodes(monkeypatch) -> list:
    """The node the quadrature computes at each call of _z_at, as the
    point u/pi = 2k/N, N the size of its table of roots of unity."""
    seen = []
    original = asymptotic._z_at

    def recording(k, cosines, *rest):
        seen.append(Fraction(2 * k, len(cosines)))
        return original(k, cosines, *rest)

    monkeypatch.setattr(asymptotic, "_z_at", recording)
    return seen


@pytest.mark.parametrize(
    "n, bits, full_panels",
    [
        (1, 128, (2, 4, 8, 16, 32, 64)),
        (20, 128, (2, 4, 8, 16, 32, 64, 128)),
        (30, 256, (2, 4, 8, 16, 32, 64, 128, 256)),
        # the pass of 128 panels misses the tolerance 2^-(bits/2) by a
        # factor of about 1.38, so a tolerance twice too loose
        # (limit = 2 * int(...) in stirling_ratio_quadrature) stops
        # there, a pass early, still within two ulps of the exact ratio
        (29, 128, (2, 4, 8, 16, 32, 64, 128, 256)),
        # the pass of 64 panels meets the tolerance with a fifth to spare,
        # so one twice too tight goes a pass further
        (14, 64, (2, 4, 8, 16, 32, 64)),
    ],
)
def test_quadrature_panel_sequence_on_the_half_range(
    monkeypatch, n, bits, full_panels
):
    points = _record_nodes(monkeypatch)
    powers, original = [], asymptotic._real_power

    def recording(z, *rest):
        powers.append(z)
        return original(z, *rest)

    monkeypatch.setattr(asymptotic, "_real_power", recording)
    stirling_ratio_quadrature(n, bits)
    # every point is evaluated once, and only on [0, pi], and each pass
    # raises only its new node values to the power n
    assert len(set(points)) == len(points) == full_panels[-1] // 2 + 1
    assert len(powers) == len(points)
    assert all(0 <= u <= 1 for u in points)
    # each pass adds only the midpoints of the one before, so the first
    # P/2 + 1 points are the grid of P full-range panels
    for panels in full_panels:
        half = panels // 2
        grid = sorted(u * half for u in points[: half + 1])
        assert grid == list(range(half + 1)), panels


def _pass_gap(n, panels):
    """sum over m = n + panels/2 (mod panels), m >= 0, of n^(m-n) n!/m!.

    The rule's relative error at P panels is the sum over m = n (mod P),
    m != n, of the same terms, so this is by how much, relative to the
    integral, the pass of panels/2 exceeds the pass of panels.  The
    terms are at most 1 and fall once m passes n; in floating point, to
    2^-60 of the sum.
    """
    log_n, log_factorial = math.log(n), math.lgamma(n + 1)
    total, m = 0.0, (n + panels // 2) % panels
    while True:
        term = math.exp((m - n) * log_n + log_factorial - math.lgamma(m + 1))
        total += term
        if m > n and term <= total * 2.0**-60:
            return total
        m += panels


# a predicted gap within this factor of the tolerance is too close to
# call, and its case is left out
_SETTLE_MARGIN = 1.01


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_the_settling_pass_follows_from_the_aliasing_error(monkeypatch, bits):
    # passes are compared from the first pair (2 and 4 panels) on; a
    # pass of P panels gives sqrt(2 pi) ratio (1 + error(P)), so the
    # passes of P/2 and P panels are sqrt(2 pi) ratio gap(P) apart, and
    # the rule stops at the first P at which that is within 2^-(bits/2)
    levels = []
    original = asymptotic._nodes

    def recording(wp, level):
        levels.append(level)
        return original(wp, level)

    monkeypatch.setattr(asymptotic, "_nodes", recording)
    tolerance = 2.0 ** -(bits // 2)
    checked = 0
    for n in range(1, 301):
        log_ratio = (
            0.5 * math.log(2 * math.pi * n) - n + n * math.log(n)
            - math.lgamma(n + 1)
        )
        scale = math.sqrt(2 * math.pi) * math.exp(log_ratio)
        level, close = 1, False
        while True:
            gap = scale * _pass_gap(n, 2 ** (level + 1))
            close |= tolerance / _SETTLE_MARGIN < gap < tolerance * _SETTLE_MARGIN
            if gap <= tolerance:
                break
            level += 1
        levels.clear()
        stirling_ratio_quadrature(n, bits)
        if close:
            continue
        assert levels == list(range(level + 1)), n
        checked += 1
    assert checked >= 290


@pytest.mark.parametrize("n, bits", [(1, 128), (7, 128), (20, 128), (30, 256)])
def test_quadrature_within_the_convergence_tolerance(n, bits):
    quad = stirling_ratio_quadrature(n, bits)
    exact = stirling_ratio_exact(n, bits)
    assert abs(quad - exact) <= mpmath.mpf(2) ** -(bits // 2)


_TWO_ULP_CASES = [(n, 128) for n in range(1, 51)] + [(30, 256), (40, 256), (50, 256)]


@pytest.mark.parametrize("n, bits", _TWO_ULP_CASES)
def test_quadrature_within_two_ulps_of_the_exact_ratio(n, bits):
    quad = stirling_ratio_quadrature(n, bits)
    exact = stirling_ratio_exact(n, bits)
    assert abs(quad - exact) / exact <= mpmath.mpf(2) ** -(bits - 2)


@pytest.mark.parametrize("n", [1, 20])
def test_a_perturbed_integrand_misses_the_two_ulp_bound(monkeypatch, n):
    original = asymptotic._real_power
    monkeypatch.setattr(
        asymptotic,
        "_real_power",
        lambda z, n, wp: original(z, n, wp) * (10**30 + 1) // 10**30,
    )
    quad = stirling_ratio_quadrature(n, 128)
    exact = stirling_ratio_exact(n, 128)
    # a relative error of 10^-30, about 2^-99.7: the 2^-64 bound of the
    # test above cannot see it, the two-ulp bound does
    assert abs(quad - exact) / exact > mpmath.mpf(2) ** -126
    assert abs(quad - exact) <= mpmath.mpf(2) ** -64


@pytest.mark.parametrize("bits", [128, 256])
def test_a_warm_node_cache_changes_no_result(bits):
    cold = stirling_ratio_quadrature(30, bits)
    asymptotic._nodes.cache_clear()
    # warm at 128 bits, where n = 50 reaches every level that n = 30
    # needs; a call at another precision must not see these nodes
    for n in (1, 20, 50):
        stirling_ratio_quadrature(n, 128)
    warm = stirling_ratio_quadrature(30, bits)
    assert warm.man_exp == cold.man_exp


def test_each_node_is_computed_once_per_precision(monkeypatch):
    # no transcendental runs at a node: the kernel is integer arithmetic
    transcendentals = {"mpf_cos_sin": 0, "mpc_exp": 0, "mpf_exp": 0}

    def count(frame, event, arg):
        name = frame.f_code.co_name
        if event == "call" and name in transcendentals:
            transcendentals[name] += 1

    points = _record_nodes(monkeypatch)
    sys.setprofile(count)
    try:
        for n in range(1, 21):
            stirling_ratio_quadrature(n, 128)
    finally:
        sys.setprofile(None)
    assert transcendentals == {"mpf_cos_sin": 0, "mpc_exp": 0, "mpf_exp": 0}
    # n = 20 settles at 128 full-range panels, 65 nodes on the half range;
    # one evaluation per (n, node) made 1172
    assert len(points) == len(set(points)) == 65


@pytest.mark.parametrize("n", [10**5, pytest.param(10**6, marks=pytest.mark.slow)])
def test_quadrature_settles_at_large_n(n):
    quad = stirling_ratio_quadrature(n, 128)
    assert abs(quad - stirling_ratio_exact(n, 128)) <= mpmath.mpf(2) ** -64


def _exact(value: int) -> mpmath.mpf:
    """The int as an mpf, unrounded."""
    with mp.workprec(max(value.bit_length(), 1)):
        return mp.mpf(value)


def _mpmath_round(num: int, den: int, bits: int) -> mpmath.mpf:
    """num/den rounded once by mpmath at bits: an exact quotient of exact
    parts is one correctly rounded division."""
    a, b = _exact(num), _exact(den)
    with mp.workprec(bits):
        return a / b


def _assert_rounds_like_mpmath(num, den, bits):
    value = asymptotic._round(num, den, bits)
    assert value._mpf_ == _mpmath_round(num, den, bits)._mpf_
    return value


def _dyadic(man, exp):
    """man * 2^exp as a Dyadic."""
    if exp >= 0:
        return asymptotic.Dyadic(man << exp, 1)
    return asymptotic.Dyadic(man, 1 << -exp)


_BITS = st.integers(1, 300)
_WIDE = st.integers(-(2**2000), 2**2000)


@given(_WIDE, st.integers(1, 2**2000), _BITS)
@example(3, 1, 1)  # a tie at one bit, rounded up to the even 4
@example(5, 1, 2)  # a tie rounded down to the even 4
@example(-7, 2, 2)  # a negative tie rounded up in magnitude, to -4
@example(0, 3, 64)
def test_integer_rounding_matches_mpmath(num, den, bits):
    _assert_rounds_like_mpmath(num, den, bits)


_TIE = st.integers(1, 200).flatmap(
    lambda bits: st.tuples(st.just(bits), st.integers(0, 2 ** (bits - 1) - 1))
)


@given(_TIE, st.integers(-300, 300), st.booleans())
def test_ties_round_half_to_even(tie, shift, negative):
    # bits + 1 significant bits, the last of them 1: exactly halfway
    # between the two neighbours at bits
    bits, middle = tie
    man = (1 << bits) | (middle << 1) | 1
    halfway = _dyadic(-man if negative else man, shift)
    value = _assert_rounds_like_mpmath(*halfway.as_integer_ratio(), bits)
    # the tie goes to the neighbour whose mantissa is even
    even = (man >> 1) + (man >> 1 & 1)
    assert abs(value) == even * Fraction(2) ** (shift + 1)


@given(st.integers(1, 200), st.integers(1, 100), st.integers(-300, 300))
def test_all_ones_mantissa_carries_into_the_next_binade(bits, extra, shift):
    # 2^(bits+extra) - 1 rounds up to 2^(bits+extra), a mantissa of 1
    ones = _dyadic((1 << (bits + extra)) - 1, shift)
    value = _assert_rounds_like_mpmath(*ones.as_integer_ratio(), bits)
    assert value == Fraction(2) ** (bits + extra + shift)
    assert value.man_exp == (1, bits + extra + shift)


@given(st.integers(1, 2**200), st.integers(-500, 500), _BITS)
def test_exact_values_are_kept(man, exp, bits):
    man |= 1
    exact = _dyadic(man, exp)
    value = asymptotic._round(*exact.as_integer_ratio(), max(bits, man.bit_length()))
    assert value == exact
    assert value.man_exp == (man, exp)


@given(st.integers(2**5000, 2**20000), st.integers(1, 2**40), st.integers(1, 64))
def test_numerators_far_wider_than_the_precision(num, den, bits):
    _assert_rounds_like_mpmath(num, den, bits)


@given(st.integers(-(2**300), 2**300), st.integers(-400, 400))
@example(0, 0)
@example(0, 17)
@example(-12, 3)
def test_dyadic_is_in_mpmaths_normal_form(man, exp):
    value = _dyadic(man, exp)
    with mp.workprec(max(man.bit_length(), 1)):
        expected = mp.mpf(man) * mp.mpf(2) ** exp
    assert value._mpf_ == expected._mpf_
    assert value.man_exp == expected.man_exp
    # mpmath reads the value exactly, in arithmetic and in comparisons,
    # at any context precision
    with mp.workprec(8):
        assert value == expected and expected == value
        assert not value < expected and not value > expected
        assert (value - expected) == 0 == (expected - value)


@pytest.mark.parametrize("bits", [1, 8, 64, 176, 353, 1000, 4096])
def test_machin_pi_is_rounded_down_within_a_twentieth(bits):
    with mp.workprec(bits + 64):
        error = asymptotic._pi(bits) - mp.ldexp(mp.pi, bits)
    twentieth = mpmath.mpf(1) / 20
    assert -1 - twentieth < error < twentieth


def _rounded_ratio(n, total, panels, wp, bits):
    """total sqrt(2 pi n)/(panels 2^wp) rounded once by mpmath at bits."""
    with mp.workprec(bits + 300):
        exact = mp.mpf(total) * mp.sqrt(2 * mp.pi * n) / panels / mp.mpf(2) ** wp
    with mp.workprec(bits):
        return +exact


def test_settled_ratio_widens_until_it_rounds_once(monkeypatch):
    # at 4 bits of sqrt(2 pi n) the two ends of its range round apart,
    # so the precision doubles until they agree; the value is then the
    # one correctly rounded
    sizes, original = [], asymptotic._pi

    def recording(bits):
        sizes.append(bits)
        return original(bits)

    monkeypatch.setattr(asymptotic, "_pi", recording)
    n, total, panels, wp, bits = 7, 3 * 2**93 + 12345, 64, 88, 64
    value = asymptotic._settled_ratio(n, total, panels, wp, bits, 4)
    assert value._mpf_ == _rounded_ratio(n, total, panels, wp, bits)._mpf_
    assert sizes[:3] == [8, 16, 32] and len(sizes) > 3


@pytest.mark.parametrize("bits", [4, 16])
def test_settled_ratio_rounds_correctly_wherever_the_root_falls(bits):
    # at p = 4 the root's range r - 1 .. r + 2 spans rounding boundaries
    # of a few bits for many totals; a result rounded from only part of
    # the range is wrong for some of them
    for total in range(1, 100):
        value = asymptotic._settled_ratio(7, total, 1, 0, bits, 4)
        assert value._mpf_ == _rounded_ratio(7, total, 1, 0, bits)._mpf_, total


@pytest.mark.parametrize("bits", [64, 128])
def test_the_root_rounds_at_its_first_precision(monkeypatch, bits):
    # the quadrature starts the root _GUARD_BITS below the result's last
    # bit, so its range r - 1 .. r + 2 meets a rounding boundary about
    # once in 2^_GUARD_BITS calls and p does not double; 2^p > sqrt(n)
    # alone would round correctly too, but retry about one call in eight
    sizes, original = [], asymptotic._pi

    def recording(size):
        sizes.append(size)
        return original(size)

    monkeypatch.setattr(asymptotic, "_pi", recording)
    for n in range(1, 41):
        sizes.clear()
        stirling_ratio_quadrature(n, bits)
        assert len(set(sizes)) == 1, (n, sizes)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 5000])
def test_exact_mpf_matches_the_direct_conversion(n):
    # n! as a Dyadic, the way approx_factorial and stirling_ratio_exact
    # hand it to mpmath: read exactly at its own length, rounded as the
    # int is at a shorter precision
    factorial = math.factorial(n)
    value = asymptotic.Dyadic(factorial)
    with mp.workprec(factorial.bit_length()):
        assert mp.mpf(value).man_exp == mp.mpf(factorial).man_exp
        assert int(mp.mpf(value)) == factorial
    with mp.workprec(128):
        assert mp.mpf(value).man_exp == mp.mpf(factorial).man_exp


def test_exact_ratio_at_large_n_takes_well_under_a_second():
    # converting 100000! by mp.mpf alone took 0.9 s, the factorial itself
    # takes about 0.2 s
    start = time.perf_counter()
    stirling_ratio_exact(10**5, 128)
    assert time.perf_counter() - start < 1.0


def test_quadrature_node_off_the_unit_disc_raises(monkeypatch):
    # |z(u)| = e^(cos u - 1) <= 1, so a node value of modulus 2 is a
    # fault of the kernel, not a number to sum
    monkeypatch.setattr(
        asymptotic, "_z_at", lambda k, cosines, terms, damping, wp: (0, 2 << wp)
    )
    # the message names what the node values depend on: the level and
    # the working bits, not n
    wp = 128 + asymptotic._GUARD_BITS
    message = f"off the unit disc at level 0, {wp} working bits"
    with pytest.raises(ArithmeticError, match=message):
        stirling_ratio_quadrature(5, 128)
    # nothing of the failed pass stays cached
    monkeypatch.undo()
    quad, exact = stirling_ratio_quadrature(5, 128), stirling_ratio_exact(5, 128)
    assert abs(quad - exact) / exact <= mpmath.mpf(2) ** -126


def test_node_bound_allows_two_units_off_the_disc(monkeypatch):
    # a value two units past the unit circle passes, three fail
    wp = 128 + asymptotic._GUARD_BITS
    for excess, fails in ((2, False), (3, True)):
        asymptotic._nodes.cache_clear()
        monkeypatch.setattr(
            asymptotic,
            "_z_at",
            lambda k, cosines, terms, damping, wp: ((1 << wp) + excess, 0),
        )
        if fails:
            with pytest.raises(ArithmeticError):
                asymptotic._nodes(wp, 0)
        else:
            assert asymptotic._nodes(wp, 0) == (((1 << wp) + 2, 0),) * 2


def test_quadrature_that_does_not_settle_raises(monkeypatch):
    # n = 30 at 256 bits settles only at 256 full-range panels
    points = _record_nodes(monkeypatch)
    monkeypatch.setattr(asymptotic, "_MAX_PANELS", 16)
    with pytest.raises(ArithmeticError, match="failed to settle within 16 panels"):
        stirling_ratio_quadrature(30, 256)
    # 16 full-range panels are 9 points on the half range: nothing past the cap
    assert len(points) == 9


def test_classic_stirling_error_at_ten():
    report = approx_factorial(10, 0)
    assert report.exact == math.factorial(10) == 3628800
    # independent high-precision evaluation of the same quantity
    with mp.workprec(200):
        reference = abs(
            mp.sqrt(20 * mp.pi) * mp.exp(-10) * mp.mpf(10) ** 10 - 3628800
        ) / mp.mpf(3628800)
    assert abs(report.rel_error - reference) < mpmath.mpf(10) ** -30
    assert 0.008 < report.rel_error < 0.0087


def test_one_extra_term_helps_at_desk_scale():
    assert approx_factorial(10, 1).rel_error < approx_factorial(10, 0).rel_error


def test_monotone_improvement_through_five_terms():
    for n in (10, 15):
        errors = [approx_factorial(n, terms).rel_error for terms in range(6)]
        assert all(b < a for a, b in zip(errors, errors[1:])), n


def test_scaled_error_is_stable_when_n_doubles():
    ratio = (
        approx_factorial(20, 3).scaled_error / approx_factorial(10, 3).scaled_error
    )
    assert 1 / 1.5 <= ratio <= 1.5


def test_scaled_error_definition():
    report = approx_factorial(12, 2, 160)
    with mp.workprec(200):
        assert abs(report.scaled_error - report.rel_error * 12**3) < mpmath.mpf(
            10
        ) ** -40


def test_expansion_vs_quadrature_leading_term():
    for n in (10, 20):
        ratio, series = expansion_vs_quadrature(n, 0)
        assert series == 1
        assert abs(ratio - 1) < 0.1 / n


def test_expansion_vs_quadrature_improves_with_terms():
    ratio, s1 = expansion_vs_quadrature(10, 1)
    _, s2 = expansion_vs_quadrature(10, 2)
    assert abs(ratio - s2) < abs(ratio - s1)


def test_expansion_vs_quadrature_two_point_scaling():
    qa, sa = expansion_vs_quadrature(10, 3)
    qb, sb = expansion_vs_quadrature(20, 3)
    # both results are exact Fractions, so their differences are too
    ratio = abs(qb - sb) / abs(qa - sa)
    assert Fraction(1, 16) / Fraction(3, 2) <= ratio <= Fraction(1, 16) * Fraction(3, 2)


# the examples are two of the sums that rounding the numerator and the
# denominator apart took to the farther neighbour
@given(st.integers(2, 60), st.integers(0, 40), st.sampled_from([64, 97, 128, 256]))
@example(10, 32, 128)
@example(4, 32, 64)
def test_series_sum_is_rounded_once_to_nearest(n, terms, bits):
    # the exact alternating sum, rounded by mpmath's from_rational to
    # nearest, half to even
    _, series = expansion_vs_quadrature(n, terms, bits)
    exact = sum(
        Fraction((-1) ** k) * a / Fraction(n) ** k
        for k, a in enumerate(coefficient_table("bernoulli", terms))
    )
    rounded = mpmath.libmp.from_rational(
        exact.numerator, exact.denominator, bits, "n"
    )
    assert series._mpf_ == rounded


def test_reciprocal_consistency_report():
    [report] = reciprocal_consistency(20)
    assert report.ok
    assert report.identity == "reciprocal-consistency"
    assert (report.lo, report.hi) == (0, 20)
    with pytest.raises(ValueError):
        reciprocal_consistency(0)


def test_precision_metadata_round_trip():
    report = approx_factorial(6, 2, 96)
    assert report.precision_bits == 96
    payload = report.to_json_dict()
    assert payload["n"] == 6
    assert payload["exact"] == "720"
    # decimal strings must parse and be close to the binary values
    assert abs(float(payload["rel_error"]) - float(report.rel_error)) < 1e-12


def test_rejected_inputs():
    with pytest.raises(ValueError):
        approx_factorial(0, 2)
    with pytest.raises(ValueError, match="terms must be >= 0"):
        approx_factorial(5, -1)
    with pytest.raises(ValueError):
        approx_factorial(5, 2, 32)
    with pytest.raises(ValueError):
        stirling_ratio_quadrature(0)
    with pytest.raises(ValueError):
        stirling_ratio_exact(0)
    with pytest.raises(ValueError, match="precision_bits must be >= 64, got 63"):
        stirling_ratio_exact(5, 63)
    with pytest.raises(ValueError):
        expansion_vs_quadrature(1, 2)
    with pytest.raises(ValueError, match="terms must be >= 0"):
        expansion_vs_quadrature(5, -1)
    # checked by the quadrature, which runs first
    with pytest.raises(ValueError, match="precision_bits must be >= 64"):
        expansion_vs_quadrature(5, 2, 32)


@pytest.mark.parametrize(
    "cls, build, field",
    [
        (CrossCheck, lambda: verify_all(3), "mismatches"),
        (IdentityReport, lambda: report_from_pairs("x", [(0, 1, 2)]), "failures"),
        (ApproxReport, lambda: approx_factorial(5, 1), "n"),
    ],
    ids=["CrossCheck", "IdentityReport", "ApproxReport"],
)
def test_record_is_frozen(cls, build, field):
    # each result record is immutable: its fields can be neither
    # reassigned nor deleted
    record = build()
    assert isinstance(record, cls)
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value
