"""Restricted partition/permutation counts against the brute-force oracle."""

import decimal
import math
import time
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import pytest

from stirlingexp import combinat
from stirlingexp.combinat import (
    ENUMERATION_LIMIT,
    bernoulli_numbers,
    comb_table,
    derangement_assoc,
    derangement_from_series,
    enumerate_oracle,
    stirling2_assoc,
    stirling2_from_series,
)
from stirlingexp.series import TruncatedSeries


# hand-checkable counts; the enumeration oracle must reproduce each one
ORACLE_SPOT_VALUES = [
    ("partition", 3, 3, 1, 1),
    ("partition", 3, 4, 1, 1),
    ("partition", 3, 5, 2, 0),
    ("partition", 3, 6, 2, 10),   # choose 3 of 6, halve for block symmetry
    ("partition", 3, 9, 3, 280),  # 9!/(3!^3 * 3!)
    ("derangement", 3, 3, 1, 2),
    ("derangement", 3, 4, 1, 6),
    ("derangement", 3, 6, 2, 40),   # 10 splits * 2 * 2 cyclic orders
    ("derangement", 3, 7, 2, 420),  # C(7,3) * 2 * 3!
    ("partition", 2, 4, 2, 3),
    ("derangement", 2, 4, 2, 3),
]


@pytest.mark.parametrize("kind,r,n,k,expected", ORACLE_SPOT_VALUES)
def test_enumeration_matches_hand_counts(kind, r, n, k, expected):
    assert enumerate_oracle(r, n, k, kind) == expected


def test_empty_ground_case():
    for kind in ("partition", "derangement"):
        assert enumerate_oracle(1, 0, 0, kind) == 1
    assert stirling2_assoc(3, 0, 0) == 1
    assert derangement_assoc(3, 0, 0) == 1


@pytest.mark.parametrize("r", [2, 3])
def test_three_routes_agree_up_to_the_enumeration_cap(r):
    for n in range(ENUMERATION_LIMIT + 1):
        for k in range(n + 1):
            by_recurrence = stirling2_assoc(r, n, k)
            by_series = stirling2_from_series(r, n, k)
            by_enumeration = enumerate_oracle(r, n, k, "partition")
            assert by_recurrence == by_series == by_enumeration, (r, n, k)
            by_recurrence = derangement_assoc(r, n, k)
            by_series = derangement_from_series(r, n, k)
            by_enumeration = enumerate_oracle(r, n, k, "derangement")
            assert by_recurrence == by_series == by_enumeration, (r, n, k)


def test_vanishing_band_for_blocks_of_three():
    # with 2j elements and at least j blocks of size >= 3, nothing fits
    for j in range(1, 9):
        for k in range(j, 2 * j + 1):
            assert stirling2_assoc(3, 2 * j, k) == 0


def test_infeasible_region_is_zero():
    for r in (2, 3, 4):
        for n in range(12):
            for k in range(n + 1):
                if k > 0 and n < r * k:
                    assert stirling2_assoc(r, n, k) == 0
                    assert derangement_assoc(r, n, k) == 0


def test_derangement_row_sums_match_generating_function():
    # sum_k d_3(n, k) is n! [x^n] e^(-x - x^2/2) / (1 - x)
    K = 12
    geometric = TruncatedSeries([1] * (K + 1))
    gaussian_factor = TruncatedSeries(
        [0, -1, Fraction(-1, 2)], order=K
    ).exp()
    row_gf = geometric * gaussian_factor
    for n in range(K + 1):
        row_sum = sum(derangement_assoc(3, n, k) for k in range(n + 1))
        assert row_sum == row_gf.egf_coefficient(n), n


def test_series_extraction_recovers_larger_tables():
    # past the enumeration cap the series route still pins the recurrence
    for n in range(10, 14):
        for k in range(5):
            assert stirling2_from_series(3, n, k) == stirling2_assoc(3, n, k)
            assert derangement_from_series(3, n, k) == derangement_assoc(3, n, k)


@pytest.mark.parametrize("extract", [stirling2_from_series, derangement_from_series])
def test_series_extraction_rejects_a_non_integral_count(extract, monkeypatch):
    # a guard that must survive python -O, so an error and not an assert
    monkeypatch.setattr(
        TruncatedSeries,
        "power_rational",
        lambda self, exponent: TruncatedSeries([Fraction(7, 3)], order=self.order),
    )
    with pytest.raises(ArithmeticError, match="not an integer"):
        extract(3, 6, 2)


def test_enumeration_cap_enforced():
    with pytest.raises(ValueError):
        enumerate_oracle(3, ENUMERATION_LIMIT + 1, 1, "partition")


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        enumerate_oracle(3, 4, 1, "cycles")


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        stirling2_assoc(0, 3, 1)
    with pytest.raises(ValueError):
        derangement_assoc(3, -1, 0)


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
    # are classically defined by; the package reads them off a series
    # inverse instead, so this is an independent oracle.  The sums are
    # taken in integers over the common denominator of B_0..B_200
    numbers = bernoulli_numbers(201)
    den = math.lcm(*(b.denominator for b in numbers))
    nums = [b.numerator * (den // b.denominator) for b in numbers]
    for m in range(1, 201):
        assert sum(math.comb(m + 1, j) * nums[j] for j in range(m + 1)) == 0, m


def test_bernoulli_odd_indices_vanish():
    numbers = bernoulli_numbers(29)
    assert all(numbers[2 * t + 1] == 0 for t in range(1, 15))
    with pytest.raises(ValueError):
        bernoulli_numbers(-1)


def test_comb_table_layout():
    rows = list(comb_table(3, 6, "partition"))
    assert [len(row) for row in rows] == [n // 3 + 1 for n in range(7)]
    assert rows[0] == [1]
    assert rows[6][2] == 10
    assert all(
        value == 0
        for n, row in enumerate(rows)
        for k, value in enumerate(row)
        if 0 < n < 3 * k
    )


def test_comb_table_names_only_the_argument_out_of_range():
    with pytest.raises(ValueError) as excinfo:
        comb_table(3, -1, "partition")
    # no word of a k the caller never gave
    assert str(excinfo.value) == "max_n must be >= 0, got -1"
    with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
        stirling2_assoc(3, 4, -1)


@pytest.mark.parametrize(
    "count,r,n,k,expected",
    [
        (stirling2_assoc, 1, 3000, 2, 2**2999 - 1),
        (derangement_assoc, 1, 3000, 1, math.factorial(2999)),
        (stirling2_assoc, 3, 3000, 5, None),
    ],
    ids=["S_1(3000,2)", "D_1(3000,1)", "S_3(3000,5)"],
)
def test_deep_cold_call_is_quick(count, r, n, k, expected):
    # a cold call walks n rows cut at column k: no recursion, O(n k) work
    start = time.perf_counter()
    value = count(r, n, k)
    assert time.perf_counter() - start < 1.0
    assert value > 0
    if expected is not None:
        assert value == expected


@pytest.mark.parametrize("kind", ["partition", "derangement"])
@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_cut_rows_match_the_full_table(kind, r):
    # single values come from rows cut at the requested column, streamed
    # afresh by each call; the table comes from full rows
    count = stirling2_assoc if kind == "partition" else derangement_assoc
    rows = list(comb_table(r, 40, kind))
    assert [len(row) for row in rows] == [n // r + 1 for n in range(41)]
    for n, row in enumerate(rows):
        for k, value in enumerate(row):
            assert count(r, n, k) == value, (n, k)


@pytest.mark.parametrize("kind", ["partition", "derangement"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_table_entries_are_exact_decimal_integers(kind, r):
    count = stirling2_assoc if kind == "partition" else derangement_assoc
    for n, row in enumerate(comb_table(r, 60, kind)):
        for k, value in enumerate(row):
            assert type(value) is Decimal, (n, k)
            assert value.as_tuple().exponent == 0, (n, k)
            assert value == count(r, n, k), (n, k)


def _settings(context):
    return (context.prec, context.rounding, context.Emin, context.Emax,
            context.capitals, context.clamp, dict(context.traps),
            dict(context.flags))


@pytest.mark.parametrize("kind", ["partition", "derangement"])
def test_table_is_exact_under_a_low_caller_precision(kind):
    # the rows run in their own exact context; the caller's is not read,
    # changed or left replaced, after a partial or a full iteration
    count = stirling2_assoc if kind == "partition" else derangement_assoc
    with decimal.localcontext() as caller:
        caller.prec = 5
        before = _settings(caller)
        rows = comb_table(1, 40, kind)
        head = list(islice(rows, 20))
        assert decimal.getcontext() is caller
        assert _settings(caller) == before
        table = head + list(rows)
        assert decimal.getcontext() is caller
        assert _settings(caller) == before
    assert len(table) == 41
    for n, row in enumerate(table):
        for k, value in enumerate(row):
            assert value == count(1, n, k), (n, k)


def test_single_values_stay_int():
    with decimal.localcontext() as caller:
        caller.prec = 5
        assert type(stirling2_assoc(1, 40, 2)) is int
        assert type(derangement_assoc(1, 40, 1)) is int
        assert derangement_assoc(1, 40, 1) == math.factorial(39)


def test_a_rounding_context_raises_instead_of_rounding(monkeypatch):
    # the exactness check can fail: at 20 digits 39! (47 digits) is rounded
    rounding = combinat.EXACT.copy()
    rounding.prec = 20
    monkeypatch.setattr(combinat, "EXACT", rounding)
    with pytest.raises(decimal.Inexact):
        list(comb_table(1, 40, "derangement"))
