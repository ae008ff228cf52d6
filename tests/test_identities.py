"""Identity checks: positive ranges, the k == 2 anomaly, failure witnesses."""

from fractions import Fraction

import pytest

from stirlingexp.coefficients import generalized_sums, inverse_egf_by_lagrange
from stirlingexp.identities import (
    check_derivative_vs_partition_sum,
    check_differential_equations,
    check_generalized_sum_identity,
    check_implicit_equations,
    check_inverse_difference,
    check_sum_identity,
    report_from_pairs,
    run_all,
)


def _one_report_per_index(reports, identity, lo, hi):
    assert [(r.identity, r.lo, r.hi) for r in reports] == [
        (identity, k, k) for k in range(lo, hi + 1)
    ]


def test_sum_identity_holds_through_twelve():
    reports = check_sum_identity(12)
    _one_report_per_index(reports, "sum-identity", 0, 12)
    for report in reports:
        assert report.ok, (report.lo, report.failures)


def test_generalized_sums_have_unit_seed():
    # at m = 1 only the j = 0 term survives: the empty structure counts
    # once; at m = 0 there is no term
    assert generalized_sums("partition", 1) == (0, 1)
    assert generalized_sums("derangement", 1) == (0, 1)


def test_generalized_sums_reproduce_inverse_coefficients():
    partition = generalized_sums("partition", 40)
    derangement = generalized_sums("derangement", 40)
    for k in range(1, 41):
        assert partition[k] == inverse_egf_by_lagrange("exp", k)
        assert derangement[k] == inverse_egf_by_lagrange("log", k)


def test_generalized_sums_do_not_depend_on_the_size_asked_for():
    # a pass to m_max skips the counts of larger m; each shorter table is
    # a prefix of a longer one
    for kind in ("partition", "derangement"):
        widest = generalized_sums(kind, 30)
        for m_max in range(1, 31):
            assert generalized_sums(kind, m_max) == widest[: m_max + 1], m_max


def test_generalized_sums_guards():
    with pytest.raises(ValueError):
        generalized_sums("partition", 0)
    with pytest.raises(ValueError):
        generalized_sums("composition", 5)


def test_generalized_sum_identity_range():
    reports = check_generalized_sum_identity(25)
    _one_report_per_index(reports, "sum-identity-general", 1, 25)
    for report in reports:
        assert report.ok, (report.lo, report.failures)


def test_generalized_sum_identity_gap_at_two():
    # the sides genuinely differ at k = 2, by exactly one
    partition = generalized_sums("partition", 2)[2]
    derangement = generalized_sums("derangement", 2)[2]
    assert derangement - partition == 1
    assert partition == Fraction(-1, 3)
    assert derangement == Fraction(2, 3)


def test_inverse_difference_is_half_square():
    report = check_inverse_difference(20)
    assert report.ok
    assert report.identity == "inverse-difference"
    assert (report.lo, report.hi) == (0, 20)


def test_implicit_equations():
    reports = check_implicit_equations(15)
    assert [r.identity for r in reports] == [
        "implicit-exp",
        "implicit-log",
        "implicit-exp-log",
    ]
    assert all(r.ok for r in reports)


def test_differential_equations():
    reports = check_differential_equations(15)
    assert [r.identity for r in reports] == ["diffeq-exp", "diffeq-log"]
    assert all(r.ok for r in reports)
    # derivative comparison runs one order lower than the input series
    assert all((r.lo, r.hi) == (0, 14) for r in reports)


def test_derivative_vs_partition_sum():
    reports = check_derivative_vs_partition_sum(10)
    _one_report_per_index(reports, "derivative-vs-partition-sum", 0, 10)
    for report in reports:
        assert report.ok, (report.lo, report.failures)


def test_run_all_aggregates_everything():
    reports = run_all(6)
    assert all(r.ok for r in reports)
    names = {r.identity for r in reports}
    assert names == {
        "sum-identity",
        "sum-identity-general",
        "inverse-difference",
        "implicit-exp",
        "implicit-log",
        "implicit-exp-log",
        "diffeq-exp",
        "diffeq-log",
        "derivative-vs-partition-sum",
        "reciprocal-consistency",
    }


def test_index_guards():
    with pytest.raises(ValueError):
        check_sum_identity(-1)
    with pytest.raises(ValueError):
        check_generalized_sum_identity(0)
    with pytest.raises(ValueError):
        check_derivative_vs_partition_sum(-1)
    with pytest.raises(ValueError):
        check_inverse_difference(1)
    with pytest.raises(ValueError):
        check_differential_equations(2)
    with pytest.raises(ValueError):
        run_all(2)


def test_failure_witness_is_recorded():
    report = report_from_pairs(
        "example", [(3, Fraction(1, 2), Fraction(1, 3)), (4, Fraction(1), Fraction(1))]
    )
    assert not report.ok
    assert report.failures == ((3, Fraction(1, 2), Fraction(1, 3)),)
    payload = report.to_json_dict()
    assert payload == {
        "identity": "example",
        "range": [3, 4],
        "failures": [{"index": 3, "left": "1/2", "right": "1/3"}],
    }


def test_report_requires_nonempty_range():
    with pytest.raises(ValueError):
        report_from_pairs("empty", [])
