"""Cross-checks between all coefficient routes plus frozen reference values."""

import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stirlingexp import COEFF_METHODS, coefficients, combinat
from stirlingexp.coefficients import (
    bernoulli_numbers,
    coefficient_table,
    expansion_coefficients,
    generalized_sums,
    inverse_series,
    inverse_series_by_recurrence,
    verify_all,
)
from stirlingexp.series import TruncatedSeries

# a_0 .. a_4; the first three are classical, the last two were derived by
# hand from the Bernoulli route (exp of B_2/2 x + B_4/12 x^3 + B_6/30 x^5)
KNOWN_EXPANSION = [
    Fraction(1),
    Fraction(1, 12),
    Fraction(1, 288),
    Fraction(-139, 51840),
    Fraction(-571, 2488320),
]

# Taylor coefficients of the exp-side inverse series: k! times the
# ordinary listing 1, -1/6, 1/36, -1/270, 1/4320, 1/17010
KNOWN_EXP_TABLE = (
    Fraction(0),
    Fraction(1),
    Fraction(-1, 3),
    Fraction(1, 6),
    Fraction(-4, 45),
    Fraction(1, 36),
    Fraction(8, 189),
)
KNOWN_LOG_TABLE = KNOWN_EXP_TABLE[:2] + (Fraction(2, 3),) + KNOWN_EXP_TABLE[3:]


# every route computes whole tables; a_k alone is the last entry of the
# table that ends at it
def _route(method):
    def route(k):
        return coefficient_table(method, k)[k]

    route.__name__ = "coeff_via_" + method.replace("-", "_")
    return route


# the two kernel routes (coefficients._kernel_table) and the two count-sum
# routes (coefficients._sum_table)
ENGINES = [
    _route(method)
    for method in ("exp-kernel", "log-kernel", "partition-sum", "derangement-sum")
]


@pytest.mark.parametrize("engine", ENGINES, ids=lambda f: f.__name__)
def test_each_engine_reproduces_known_values(engine):
    assert [engine(k) for k in range(5)] == KNOWN_EXPANSION


def test_engines_agree_through_k8():
    expected = expansion_coefficients(8)
    for k in range(9):
        values = {engine(k) for engine in ENGINES} | {expected[k]}
        assert len(values) == 1, (k, values)


def test_sum_routes_match_bernoulli_through_k60():
    table = expansion_coefficients(60)
    assert coefficient_table("partition-sum", 60) == table
    assert coefficient_table("derangement-sum", 60) == table


def test_negative_index_rejected():
    for engine in ENGINES:
        with pytest.raises(ValueError):
            engine(-1)


def test_sum_tables_stay_small():
    # one streamed pass over the count rows keeps about three rows and
    # the running sums; a cache of every row computed held 8.7 MB here
    tracemalloc.start()
    try:
        coefficient_table("partition-sum", 60)
        coefficient_table("derangement-sum", 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _uncut_sums(kind, m_max):
    # the generalized sums over the full count rows, each count tested
    # against m_max: the pass generalized_sums made before its rows were
    # cut below
    totals = [0] * (m_max + 1)
    for n, row in enumerate(islice(combinat._rows(3, kind), 3 * m_max - 2)):
        for j, count in enumerate(row):
            m = n - 2 * j + 1
            if m <= m_max:
                totals[m] = totals[m] * (m + 2 * j - 1) + (-1) ** j * count
    sign = -1 if kind == "derangement" else 1
    return tuple(
        Fraction(sign ** (m + 1) * total, math.prod(range(m + 1, 3 * m - 2, 2)))
        for m, total in enumerate(totals)
    )


@pytest.mark.parametrize("kind", ["partition", "derangement"])
def test_cut_rows_give_the_sums_of_the_full_rows(kind):
    for m_max in range(1, 91):
        assert generalized_sums(kind, m_max) == _uncut_sums(kind, m_max), m_max


@pytest.mark.parametrize("kind", ["partition", "derangement"])
@pytest.mark.parametrize("m_max", [1, 2, 3, 4, 7, 53, 90])
def test_cut_rows_hold_exactly_the_counts_a_sum_reads(kind, m_max):
    # count (n, j) of rows 0 .. 3 m_max - 3 is read by the sum
    # m = n - 2j + 1 when m <= m_max; the cut rows hold those counts, at
    # their own columns, and no other
    last = 3 * m_max - 2
    full = islice(combinat._rows(3, kind), last)
    cut = islice(combinat._rows(3, kind, m_max=m_max), last)
    kept = {
        (n, j): count
        for n, row in enumerate(cut)
        for j, count in enumerate(row, combinat._first_read(n, m_max))
    }
    read = {
        (n, j): count
        for n, row in enumerate(full)
        for j, count in enumerate(row)
        if n - 2 * j + 1 <= m_max
    }
    assert kept == read
    if m_max == 53:
        assert len(kept) == 1431


def test_inverse_series_listings():
    b = inverse_series("exp", 6)
    c = inverse_series("log", 6)
    assert b.coeffs == tuple(
        v / math.factorial(i) for i, v in enumerate(KNOWN_EXP_TABLE)
    )
    assert c.coeffs == tuple(
        v / math.factorial(i) for i, v in enumerate(KNOWN_LOG_TABLE)
    )


def test_inverse_series_requires_positive_order():
    with pytest.raises(ValueError, match="inverse series needs order >= 1"):
        inverse_series("exp", 0)
    with pytest.raises(ValueError):
        inverse_series("tanh", 5)


def _taylor(series):
    return tuple(series.egf_coefficient(i) for i in range(series.order + 1))


def test_reversion_tables():
    assert _taylor(inverse_series("exp", 6)) == KNOWN_EXP_TABLE
    assert _taylor(inverse_series("log", 6)) == KNOWN_LOG_TABLE


def test_lagrange_matches_reversion():
    exp_series = inverse_series("exp", 9)
    log_series = inverse_series("log", 9)
    for k in range(1, 10):
        exp_k = coefficients._lagrange(coefficients.kernel("exp", k - 1), k)
        log_k = coefficients._lagrange(coefficients.kernel("log", k - 1), k)
        assert exp_k == exp_series.egf_coefficient(k)
        assert log_k == log_series.egf_coefficient(k)


@pytest.mark.parametrize("kind", ["exp", "log"])
def test_a_kernel_table_builds_its_kernel_once(kind, monkeypatch):
    # every power reads a truncation of one kernel, of order 2K
    calls = []
    build = coefficients.kernel

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(coefficients, "kernel", counted)
    assert coefficient_table(f"{kind}-kernel", 12)[:5] == tuple(KNOWN_EXPANSION)
    assert calls == [(kind, 24)]


def test_bernoulli_initial_segment():
    expected = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(5, 66),
        Fraction(0),
        Fraction(-691, 2730),
        Fraction(0),
        Fraction(7, 6),
        Fraction(0),
        Fraction(-3617, 510),
        Fraction(0),
        Fraction(43867, 798),
        Fraction(0),
        Fraction(-174611, 330),
    ]
    assert bernoulli_numbers(20) == tuple(expected)
    assert bernoulli_numbers(0) == (1,)


def test_bernoulli_defining_recurrence():
    # sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1, the recurrence the numbers
    # are classically defined by; the package builds them from the
    # tangent numbers instead, so this is an independent oracle.  The sums
    # are taken in integers over the common denominator of B_0..B_200
    numbers = bernoulli_numbers(201)
    den = math.lcm(*(b.denominator for b in numbers))
    nums = [b.numerator * (den // b.denominator) for b in numbers]
    for m in range(1, 201):
        assert sum(math.comb(m + 1, j) * nums[j] for j in range(m + 1)) == 0, m


def test_bernoulli_odd_indices_vanish():
    numbers = bernoulli_numbers(29)
    assert all(numbers[2 * t + 1] == 0 for t in range(1, 15))
    with pytest.raises(ValueError, match="Bernoulli index must be >= 0"):
        bernoulli_numbers(-1)


def test_bernoulli_numbers_are_the_taylor_coefficients_of_x_over_expm1():
    # the definition itself as the oracle: one series inverse of
    # (e^x - 1)/x = sum_j x^j/(j+1)!, read as Taylor coefficients
    quotient = TruncatedSeries(
        [Fraction(1, math.factorial(j + 1)) for j in range(201)]
    )
    inverse = quotient.inverse()
    expected = tuple(inverse.egf_coefficient(j) for j in range(201))
    assert bernoulli_numbers(200) == expected
    assert all(type(b) is Fraction for b in bernoulli_numbers(200))


def test_recurrences_match_reversion():
    for kind in ("exp", "log"):
        by_recurrence = inverse_series_by_recurrence(kind, 60)
        assert by_recurrence.order == 60
        assert by_recurrence.coeffs == inverse_series(kind, 60).coeffs


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["exp", "log"])
def test_recurrences_match_reversion_at_order_260(kind):
    # the largest order the series command serves
    by_recurrence = inverse_series_by_recurrence(kind, 260)
    assert by_recurrence.coeffs == inverse_series(kind, 260).coeffs


def test_recurrence_guards():
    with pytest.raises(ValueError, match="inverse series needs order >= 1"):
        inverse_series_by_recurrence("exp", 0)
    with pytest.raises(ValueError):
        inverse_series_by_recurrence("tanh", 5)


def test_tables_differ_only_at_index_two():
    exp_table = _taylor(inverse_series_by_recurrence("exp", 15))
    log_table = _taylor(inverse_series_by_recurrence("log", 15))
    for k in range(16):
        if k == 2:
            assert log_table[k] - exp_table[k] == 1
        else:
            assert log_table[k] == exp_table[k], k


def test_expansion_is_the_odd_taylor_coefficients_of_the_inverse():
    # a_k = c_{2k+1} / (2^k k!), the identification every inverse-side
    # route rests on
    series = inverse_series("exp", 9)
    values = [
        series.egf_coefficient(2 * k + 1) / (2**k * math.factorial(k))
        for k in range(5)
    ]
    assert values == KNOWN_EXPANSION
    assert coefficient_table("inverse-table", 4) == tuple(values)


@pytest.mark.parametrize("power", [4, 5, 13])
def test_inverse_table_detects_a_corrupt_recurrence(monkeypatch, power):
    # reversion and recurrence are compared at every power, even and odd,
    # through x^13, the top one at index 6
    original = coefficients.inverse_series_by_recurrence

    def corrupted(kind, order):
        coeffs = list(original(kind, order).coeffs)
        coeffs[power] += 1
        return TruncatedSeries(coeffs, order=order)

    monkeypatch.setattr(coefficients, "inverse_series_by_recurrence", corrupted)
    with pytest.raises(ArithmeticError, match=rf"at x\^{power}:"):
        coefficient_table("inverse-table", 6)


def test_expansion_coefficients_helper():
    assert expansion_coefficients(4) == tuple(KNOWN_EXPANSION)
    # each table is a prefix of the next: a_k does not depend on the order
    # of the exponential that yields it
    widest = expansion_coefficients(30)
    for index_max in range(31):
        assert expansion_coefficients(index_max) == widest[: index_max + 1]
    with pytest.raises(ValueError, match="coefficient index must be >= 0, got -1"):
        expansion_coefficients(-1)


def test_coefficient_table_dispatch():
    for method in COEFF_METHODS:
        assert coefficient_table(method, 4) == tuple(KNOWN_EXPANSION)
    with pytest.raises(ValueError):
        coefficient_table("kernel-of-doom", 4)


def test_cross_check_serialization():
    # one (method, values) pair per method asked for, in that order, a
    # repeated method included, and one JSON table per pair
    check = verify_all(3, ["bernoulli", "log-kernel", "bernoulli"])
    values = (Fraction(1), Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840))
    assert check.tables == (
        ("bernoulli", values),
        ("log-kernel", values),
        ("bernoulli", values),
    )
    text = ["1", "1/12", "1/288", "-139/51840"]
    assert check.to_json_dict() == {
        "index_max": 3,
        "agreed": True,
        "mismatches": [],
        "tables": [
            {"method": "bernoulli", "values": text},
            {"method": "log-kernel", "values": text},
            {"method": "bernoulli", "values": text},
        ],
    }


def test_cross_check_needs_a_method():
    # with no table, "every method gives the same a_k" holds nowhere
    with pytest.raises(ValueError, match="at least one method"):
        verify_all(3, [])
    # the method list is checked first, the index by coefficient_table
    with pytest.raises(ValueError, match="at least one method"):
        verify_all(-1, [])
    with pytest.raises(ValueError, match="coefficient index must be >= 0, got -1"):
        verify_all(-1)


def test_verify_all_reports_agreement():
    check = verify_all(6)
    assert check.agreed
    assert check.mismatches == ()
    assert len(check.tables) == len(COEFF_METHODS)
    payload = check.to_json_dict()
    assert payload["agreed"] is True
    assert payload["tables"][0]["values"][1] == "1/12"


def test_first_coefficient_is_one_for_every_method():
    for method in COEFF_METHODS:
        assert coefficient_table(method, 0)[0] == 1


# the six routes to a_k, each through the table that ends at a_k
ROUTES = {method: _route(method) for method in COEFF_METHODS}
ROUTE_PAIRS = st.sampled_from(list(combinations(COEFF_METHODS, 2)))


def _routes_agree(k, pair):
    first, second = pair
    assert ROUTES[first](k) == ROUTES[second](k), (k, pair)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=24), ROUTE_PAIRS)
def test_two_random_routes_agree_exactly(k, pair):
    _routes_agree(k, pair)


@pytest.mark.slow
@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=25, max_value=100), ROUTE_PAIRS)
def test_two_random_routes_agree_exactly_at_larger_k(k, pair):
    _routes_agree(k, pair)


# What coefficient_table(method, 6) runs in the package on cold caches,
# besides coefficient_table and _require_index, which every route runs.
# A method is Class.name, a function module.name.  FIRST_ORDER is the
# series core that every route through TruncatedSeries stands on.  This
# is the one statement of the table, to which the coefficients docstring
# points; a helper that a route starts to share shows up here as an edit
# of its row.
FIRST_ORDER = {
    "TruncatedSeries.__init__", "TruncatedSeries.order",
    "TruncatedSeries._first_order", "series._lift", "series.as_fraction",
    "_Running.__init__", "_Running.append",
}
REACH = {
    "exp-kernel": {
        "coefficients._kernel_table", "coefficients._lagrange",
        "coefficients.kernel", "coefficients._from_inverse",
        "TruncatedSeries.truncate", "TruncatedSeries.power_rational",
        "TruncatedSeries.egf_coefficient", *FIRST_ORDER,
    },
    "log-kernel": {
        "coefficients._kernel_table", "coefficients._lagrange",
        "coefficients.kernel", "coefficients._from_inverse",
        "TruncatedSeries.truncate", "TruncatedSeries.power_rational",
        "TruncatedSeries.egf_coefficient", *FIRST_ORDER,
    },
    "partition-sum": {
        "coefficients._sum_table", "coefficients.generalized_sums",
        "coefficients._from_inverse", "combinat._rows", "combinat._first_read",
    },
    "derangement-sum": {
        "coefficients._sum_table", "coefficients.generalized_sums",
        "coefficients._from_inverse", "combinat._rows", "combinat._first_read",
    },
    "bernoulli": {
        "coefficients.expansion_coefficients",
        "coefficients._bernoulli_exponent", "coefficients.bernoulli_numbers",
        "TruncatedSeries.exp", "TruncatedSeries.__add__",
        "TruncatedSeries.coeffs", *FIRST_ORDER,
    },
    "inverse-table": {
        "coefficients._inverse_table", "coefficients.inverse_series",
        "coefficients.kernel", "coefficients.inverse_series_by_recurrence",
        "coefficients._from_inverse",
        "TruncatedSeries.power_rational", "TruncatedSeries.reversion",
        "TruncatedSeries._bell_rows", "TruncatedSeries.coeffs",
        "TruncatedSeries.__getitem__", "TruncatedSeries.egf_coefficient",
        *FIRST_ORDER,
    },
}
PACKAGE = str(Path(coefficients.__file__).parent)


def _reached(method):
    """The package functions coefficient_table(method, 6) calls."""
    seen = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event != "call" or not code.co_filename.startswith(PACKAGE):
            return
        if code.co_name.startswith("<"):  # a comprehension or lambda
            return
        if code.co_argcount and code.co_varnames[0] == "self":
            owner = type(frame.f_locals["self"]).__name__
        else:
            owner = Path(code.co_filename).stem
        seen.add(f"{owner}.{code.co_name}")

    sys.setprofile(record)
    try:
        coefficient_table(method, 6)
    finally:
        sys.setprofile(None)
    return seen - {"coefficients.coefficient_table", "coefficients._require_index"}


@pytest.mark.parametrize("method", COEFF_METHODS)
def test_each_route_reaches_only_its_row(method):
    # cold caches: the coefficients caches are cleared for every test
    assert _reached(method) == REACH[method]
