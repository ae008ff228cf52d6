"""Acceptance gate: one test per contract-level criterion.

Each test prints exactly one PASS/FAIL line (past pytest's capture) so
the verdict for every criterion is readable straight from the log, then
asserts so pytest bookkeeping agrees with the printed line.
"""

import time
from fractions import Fraction

from mpmath import mp

from stirlingexp import asymptotic, coefficients, combinat, identities
from stirlingexp import COEFF_METHODS

XSQ_HALF = Fraction(1, 2)

EXP_SIDE_LISTING = (
    Fraction(0),
    Fraction(1),
    Fraction(-1, 6),
    Fraction(1, 36),
    Fraction(-1, 270),
    Fraction(1, 4320),
    Fraction(1, 17010),
)
LOG_SIDE_LISTING = (
    EXP_SIDE_LISTING[0],
    EXP_SIDE_LISTING[1],
    EXP_SIDE_LISTING[2] + XSQ_HALF,
) + EXP_SIDE_LISTING[3:]


def _verdict(capsys, label, ok):
    with capsys.disabled():
        print(f"[criterion] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def test_criterion_1_inverse_series_listings(capsys):
    """Both reversion-built inverse series match their frozen tables."""
    start = time.perf_counter()
    b = coefficients.inverse_series("exp", 6)
    c = coefficients.inverse_series("log", 6)
    elapsed = time.perf_counter() - start
    ok = (
        b.coeffs == EXP_SIDE_LISTING
        and c.coeffs == LOG_SIDE_LISTING
        and elapsed < 1.0
    )
    _verdict(capsys, "inverse-series listings through x^6", ok)


def test_criterion_2_six_way_coefficient_agreement(capsys):
    start = time.perf_counter()
    tables = [coefficients.coefficient_table(m, 20) for m in COEFF_METHODS]
    elapsed = time.perf_counter() - start
    agree = all(
        len({t[k] for t in tables}) == 1 for k in range(21)
    )
    ok = agree and len(tables) == 6 and elapsed < 60.0
    _verdict(capsys, "six coefficient routes agree for k <= 20", ok)


def test_criterion_3_inverse_difference(capsys):
    b = coefficients.inverse_series("exp", 40)
    c = coefficients.inverse_series("log", 40)
    [report] = identities.check_inverse_difference(b, c)
    _verdict(capsys, "log-side minus exp-side inverse is x^2/2 to order 40", report.ok)


def test_criterion_4_alternating_sum_identities(capsys):
    plain = identities.check_sum_identity(12)
    general = identities.check_generalized_sum_identity(25)
    covered = (
        [r.lo for r in plain] == list(range(13))
        and [r.lo for r in general] == list(range(1, 26))
    )
    gap = (
        coefficients.generalized_sums("derangement", 2)[2]
        - coefficients.generalized_sums("partition", 2)[2]
    )
    ok = covered and all(r.ok for r in plain + general) and gap == 1
    _verdict(
        capsys,
        "sum identity k <= 12; generalized form k <= 25 with unit gap at k = 2",
        ok,
    )


def test_criterion_5_implicit_and_differential_equations(capsys):
    b = coefficients.inverse_series("exp", 30)
    c = coefficients.inverse_series("log", 30)
    reports = identities.check_implicit_equations(b, c)
    reports += identities.check_differential_equations(b, c)
    ok = len(reports) == 5 and all(r.ok for r in reports)
    _verdict(capsys, "implicit and differential equations through order 30", ok)


def test_criterion_6_combinatorics_three_route_equivalence(capsys):
    ok = True
    for n in range(10):
        for k in range(n + 1):
            rec_s = combinat.stirling2_assoc(3, n, k)
            ser_s = combinat.stirling2_from_series(3, n, k)
            enu_s = combinat.enumerate_oracle(3, n, k, "partition")
            rec_d = combinat.derangement_assoc(3, n, k)
            ser_d = combinat.derangement_from_series(3, n, k)
            enu_d = combinat.enumerate_oracle(3, n, k, "derangement")
            ok = ok and rec_s == ser_s == enu_s and rec_d == ser_d == enu_d
    ok = (
        ok
        and combinat.stirling2_assoc(3, 6, 2) == 10
        and combinat.derangement_assoc(3, 6, 2) == 40
        and combinat.derangement_assoc(3, 3, 1) == 2
    )
    _verdict(capsys, "recurrence == series == enumeration, r = 3, n <= 9", ok)


def test_criterion_7_quadrature_matches_closed_form(capsys):
    worst = mp.mpf(0)
    with mp.workprec(128):
        for n in range(1, 21):
            quad = asymptotic.stirling_ratio_quadrature(n, 128)
            exact = asymptotic.stirling_ratio_exact(n, 128)
            worst = max(worst, abs(quad - exact) / exact)
    ok = worst <= mp.mpf(10) ** -8
    _verdict(
        capsys,
        f"oscillatory quadrature vs exact ratio, n <= 20 (worst {mp.nstr(worst, 3)})",
        ok,
    )


def test_criterion_8_remainder_scaling(capsys):
    hi = asymptotic.approx_factorial(20, 3, 128)
    lo = asymptotic.approx_factorial(10, 3, 128)
    with mp.workprec(128):
        ratio = hi.scaled_error / lo.scaled_error
        ok = mp.mpf(1) / mp.mpf("1.5") <= ratio <= mp.mpf("1.5")
    _verdict(
        capsys,
        f"scaled remainder steady from n = 10 to n = 20 (ratio {mp.nstr(ratio, 5)})",
        ok,
    )


def test_criterion_9_reciprocal_consistency(capsys):
    [report] = identities.reciprocal_consistency(20)
    ok = report.ok and report.hi == 20
    _verdict(capsys, "reciprocal of alternating series returns the expansion, k <= 20", ok)
