"""Cross-checks between all coefficient routes plus frozen reference values."""

import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stirlingexp import coefficients
from stirlingexp.coefficients import (
    COEFF_METHODS,
    coeff_via_exp_kernel,
    coeff_via_log_kernel,
    coefficient_table,
    expansion_coefficients,
    inverse_egf_by_lagrange,
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


# the count-sum routes compute whole tables; a_k alone is the last entry
# of the table that ends at it
def coeff_via_partition_sum(k):
    return coefficient_table("partition-sum", k)[k]


def coeff_via_derangement_sum(k):
    return coefficient_table("derangement-sum", k)[k]


ENGINES = [
    coeff_via_exp_kernel,
    coeff_via_log_kernel,
    coeff_via_partition_sum,
    coeff_via_derangement_sum,
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
    with pytest.raises(ValueError):
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
        assert inverse_egf_by_lagrange("exp", k) == exp_series.egf_coefficient(k)
        assert inverse_egf_by_lagrange("log", k) == log_series.egf_coefficient(k)
    with pytest.raises(ValueError):
        inverse_egf_by_lagrange("exp", 0)


def test_recurrences_match_reversion():
    for kind in ("exp", "log"):
        by_recurrence = inverse_series_by_recurrence(kind, 60)
        assert by_recurrence.order == 60
        assert by_recurrence.coeffs == inverse_series(kind, 60).coeffs


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["exp", "log"])
def test_recurrences_match_reversion_at_order_201(kind):
    by_recurrence = inverse_series_by_recurrence(kind, 201)
    assert by_recurrence.coeffs == inverse_series(kind, 201).coeffs


def test_recurrence_guards():
    with pytest.raises(ValueError):
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


@pytest.mark.parametrize("power", [4, 5])
def test_inverse_table_detects_a_corrupt_recurrence(monkeypatch, power):
    # reversion and recurrence are compared at every power, even and odd
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
    with pytest.raises(ValueError):
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


# the six routes to a_k, each computing a_k alone (the four table routes
# through the table that ends at a_k)
ROUTES = {
    "exp-kernel": coeff_via_exp_kernel,
    "log-kernel": coeff_via_log_kernel,
    "partition-sum": coeff_via_partition_sum,
    "derangement-sum": coeff_via_derangement_sum,
    "bernoulli": lambda k: coefficient_table("bernoulli", k)[k],
    "inverse-table": lambda k: coefficient_table("inverse-table", k)[k],
}
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
# series core that every route through TruncatedSeries stands on.  The
# coefficients docstring holds the same table; a helper that a route
# starts to share shows up here as an edit of its row.
FIRST_ORDER = {
    "TruncatedSeries.__init__", "TruncatedSeries.order",
    "TruncatedSeries._first_order", "series._lift", "series.as_fraction",
    "_Running.__init__", "_Running.append",
}
REACH = {
    "exp-kernel": {
        "coefficients.coeff_via_exp_kernel",
        "coefficients.inverse_egf_by_lagrange", "coefficients.kernel",
        "coefficients._from_inverse", "series.exp_kernel",
        "TruncatedSeries.power_rational", "TruncatedSeries.egf_coefficient",
        *FIRST_ORDER,
    },
    "log-kernel": {
        "coefficients.coeff_via_log_kernel",
        "coefficients.inverse_egf_by_lagrange", "coefficients.kernel",
        "coefficients._from_inverse", "series.log_kernel",
        "TruncatedSeries.power_rational", "TruncatedSeries.egf_coefficient",
        *FIRST_ORDER,
    },
    "partition-sum": {
        "coefficients._sum_table", "coefficients.generalized_sums",
        "coefficients._from_inverse", "combinat._rows",
    },
    "derangement-sum": {
        "coefficients._sum_table", "coefficients.generalized_sums",
        "coefficients._from_inverse", "combinat._rows",
    },
    "bernoulli": {
        "coefficients.expansion_coefficients",
        "coefficients._bernoulli_exponent", "combinat.bernoulli_numbers",
        "TruncatedSeries.inverse", "TruncatedSeries.egf_coefficient",
        "TruncatedSeries.exp", "TruncatedSeries.__add__",
        "TruncatedSeries.coeffs", *FIRST_ORDER,
    },
    "inverse-table": {
        "coefficients._inverse_table", "coefficients.inverse_series",
        "coefficients.kernel", "coefficients.inverse_series_by_recurrence",
        "coefficients._from_inverse", "series.exp_kernel",
        "TruncatedSeries.power_rational", "TruncatedSeries.reversion",
        "TruncatedSeries.coeffs", "TruncatedSeries.__getitem__",
        "TruncatedSeries.egf_coefficient", *FIRST_ORDER,
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
