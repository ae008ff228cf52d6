"""Cross-checks between all coefficient routes plus frozen reference values."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from stirlingexp.coefficients import (
    COEFF_METHODS,
    CoeffTable,
    coeff_from_inverse_table,
    coeff_via_bernoulli,
    coeff_via_derangement_sum,
    coeff_via_exp_kernel,
    coeff_via_log_kernel,
    coeff_via_partition_sum,
    coefficient_table,
    double_factorial_odd,
    expansion_coefficients,
    inverse_egf_by_lagrange,
    inverse_egf_by_recurrence,
    inverse_egf_by_reversion,
    inverse_series,
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

ENGINES = [
    coeff_via_exp_kernel,
    coeff_via_log_kernel,
    coeff_via_partition_sum,
    coeff_via_derangement_sum,
    coeff_via_bernoulli,
]


@pytest.mark.parametrize("engine", ENGINES, ids=lambda f: f.__name__)
def test_each_engine_reproduces_known_values(engine):
    assert [engine(k) for k in range(5)] == KNOWN_EXPANSION


def test_engines_agree_through_k8():
    for k in range(9):
        values = {engine(k) for engine in ENGINES}
        assert len(values) == 1, (k, values)


def test_negative_index_rejected():
    for engine in ENGINES:
        with pytest.raises(ValueError):
            engine(-1)


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


def test_reversion_tables():
    assert inverse_egf_by_reversion("exp", 6).values == KNOWN_EXP_TABLE
    assert inverse_egf_by_reversion("log", 6).values == KNOWN_LOG_TABLE


def test_lagrange_matches_reversion():
    exp_table = inverse_egf_by_reversion("exp", 9)
    log_table = inverse_egf_by_reversion("log", 9)
    for k in range(1, 10):
        assert inverse_egf_by_lagrange("exp", k) == exp_table[k]
        assert inverse_egf_by_lagrange("log", k) == log_table[k]
    with pytest.raises(ValueError):
        inverse_egf_by_lagrange("exp", 0)


def test_recurrences_match_reversion():
    for kind in ("exp", "log"):
        by_rev = inverse_egf_by_reversion(kind, 13)
        by_rec = inverse_egf_by_recurrence(kind, 13)
        assert by_rec.values == by_rev.values


def test_scaled_recurrences_are_factorial_normalized():
    for kind in ("exp", "log"):
        plain = inverse_egf_by_recurrence(kind, 12)
        scaled = inverse_egf_by_recurrence(kind, 12, scaled=True)
        for k in range(13):
            assert scaled[k] == plain[k] / math.factorial(k)


def test_tables_differ_only_at_index_two():
    exp_table = inverse_egf_by_recurrence("exp", 15)
    log_table = inverse_egf_by_recurrence("log", 15)
    for k in range(16):
        if k == 2:
            assert log_table[k] - exp_table[k] == 1
        else:
            assert log_table[k] == exp_table[k], k


def test_coeff_from_inverse_table():
    table = inverse_egf_by_reversion("exp", 9)
    scaled = inverse_egf_by_recurrence("exp", 9, scaled=True)
    values = [coeff_from_inverse_table(k, table, scaled) for k in range(5)]
    assert values == KNOWN_EXPANSION


def test_coeff_from_inverse_table_depth_guard():
    table = inverse_egf_by_reversion("exp", 6)
    with pytest.raises(ValueError):
        coeff_from_inverse_table(3, table)


def test_coeff_from_inverse_table_detects_corrupt_scaled_route():
    table = inverse_egf_by_reversion("exp", 5)
    corrupted = CoeffTable(
        method="recurrence-exp-scaled",
        values=tuple(
            v + 1 if i == 3 else v
            for i, v in enumerate(
                inverse_egf_by_recurrence("exp", 5, scaled=True).values
            )
        ),
    )
    with pytest.raises(ArithmeticError):
        coeff_from_inverse_table(1, table, corrupted)


def test_double_factorial_odd():
    assert double_factorial_odd(-1) == 1
    assert double_factorial_odd(1) == 1
    assert double_factorial_odd(3) == 3
    assert double_factorial_odd(5) == 15
    assert double_factorial_odd(7) == 105
    with pytest.raises(ValueError):
        double_factorial_odd(4)
    with pytest.raises(ValueError):
        double_factorial_odd(-3)


def test_expansion_coefficients_helper():
    assert expansion_coefficients(4) == KNOWN_EXPANSION
    per_index = [coeff_via_bernoulli(k) for k in range(31)]
    for index_max in range(31):
        assert expansion_coefficients(index_max) == per_index[: index_max + 1]


def test_coefficient_table_dispatch():
    for method in COEFF_METHODS:
        table = coefficient_table(method, 4)
        assert table.method == method
        assert list(table.values) == KNOWN_EXPANSION
    with pytest.raises(ValueError):
        coefficient_table("kernel-of-doom", 4)


def test_coeff_table_accessors_and_serialization():
    table = coefficient_table("bernoulli", 3)
    assert table.index_max == 3
    assert table[1] == Fraction(1, 12)
    with pytest.raises(ValueError):
        table[4]
    assert table.to_json_dict() == {
        "method": "bernoulli",
        "values": ["1", "1/12", "1/288", "-139/51840"],
    }


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


# the six routes to a_k, each computing a_k alone
ROUTES = {
    "exp-kernel": coeff_via_exp_kernel,
    "log-kernel": coeff_via_log_kernel,
    "partition-sum": coeff_via_partition_sum,
    "derangement-sum": coeff_via_derangement_sum,
    "bernoulli": coeff_via_bernoulli,
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
