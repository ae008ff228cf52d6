"""Numeric behavior: quadrature accuracy, error scaling, precision plumbing."""

import math

import mpmath
import pytest
from mpmath import mp

from stirlingexp import asymptotic
from stirlingexp.asymptotic import (
    ApproxReport,
    approx_factorial,
    composite_gauss,
    expansion_vs_quadrature,
    quadrature_integrand,
    reciprocal_consistency,
    stirling_ratio_exact,
    stirling_ratio_quadrature,
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


def test_integrand_is_even():
    with mp.workprec(140):
        for n in (1, 5, 12):
            for t in ("0.37", "1.91", "2.6"):
                theta = mp.mpf(t)
                left = quadrature_integrand(n, theta)
                right = quadrature_integrand(n, -theta)
                assert left == right


def test_half_interval_doubled_equals_full():
    with mp.workprec(140):
        limit = mp.pi * mp.sqrt(6)

        def f(theta):
            return quadrature_integrand(6, theta)

        full = composite_gauss(f, -limit, limit, 32)
        half = composite_gauss(f, mp.mpf(0), limit, 32)
        assert abs(full - 2 * half) < mpmath.mpf(2) ** -110


def test_integrand_matches_the_complex_form():
    with mp.workprec(140):
        for n in (1, 5, 12):
            for t in ("0", "0.37", "-1.91", "2.6", "9.5"):
                theta = mp.mpf(t)
                u = theta / mp.sqrt(n)
                expected = mp.re(mp.exp(n * (mp.expj(u) - 1 - 1j * u)))
                got = quadrature_integrand(n, theta)
                assert abs(got - expected) <= mpmath.mpf(2) ** -125, (n, t)


@pytest.mark.parametrize(
    "n, bits, full_panels",
    [(1, 128, (8, 16)), (20, 128, (8, 16)), (30, 256, (8, 16, 32, 64))],
)
def test_quadrature_panel_sequence_on_the_half_range(
    monkeypatch, n, bits, full_panels
):
    calls = []
    original = asymptotic.composite_gauss

    def recording(f, lo, hi, panels, points=20):
        calls.append((lo, panels))
        return original(f, lo, hi, panels, points)

    monkeypatch.setattr(asymptotic, "composite_gauss", recording)
    stirling_ratio_quadrature(n, bits)
    assert all(lo == 0 for lo, _ in calls)
    assert tuple(2 * panels for _, panels in calls) == full_panels


@pytest.mark.parametrize("n, bits", [(1, 128), (7, 128), (20, 128), (30, 256)])
def test_quadrature_within_the_convergence_tolerance(n, bits):
    quad = stirling_ratio_quadrature(n, bits)
    exact = stirling_ratio_exact(n, bits)
    assert abs(quad - exact) <= mpmath.mpf(2) ** -(bits // 2)


@pytest.mark.parametrize("panels", [3, 7, 9])
def test_quadrature_rejects_odd_panels(panels):
    with pytest.raises(ValueError, match="even"):
        stirling_ratio_quadrature(5, 128, panels)


@pytest.mark.parametrize("panels", [-2, 0, 1])
def test_quadrature_rejects_panels_below_two(panels):
    with pytest.raises(ValueError, match=">= 2"):
        stirling_ratio_quadrature(5, 128, panels)


def test_quadrature_non_finite_integrand_raises(monkeypatch):
    monkeypatch.setattr(asymptotic, "_integrand_at", lambda n, u: mp.nan)
    with pytest.raises(ArithmeticError, match="non-finite"):
        stirling_ratio_quadrature(5, 128)


def test_quadrature_that_does_not_settle_raises(monkeypatch):
    # n = 30 at 256 bits settles only at 64 full-range panels
    half_panels = []
    original = asymptotic.composite_gauss

    def recording(f, lo, hi, panels, points=20):
        half_panels.append(panels)
        return original(f, lo, hi, panels, points)

    monkeypatch.setattr(asymptotic, "composite_gauss", recording)
    monkeypatch.setattr(asymptotic, "_MAX_PANELS", 16)
    with pytest.raises(ArithmeticError, match="failed to settle within 16 panels"):
        stirling_ratio_quadrature(30, 256)
    # 8 half-range panels are 16 full-range ones: nothing past the cap
    assert max(half_panels) == 8


def test_quadrature_rejects_panels_above_the_cap(monkeypatch):
    monkeypatch.setattr(asymptotic, "_MAX_PANELS", 16)
    with pytest.raises(ValueError, match="<= 16"):
        stirling_ratio_quadrature(5, 128, 32)


def test_composite_gauss_rejects_zero_panels():
    with pytest.raises(ValueError):
        composite_gauss(lambda t: t, mp.mpf(0), mp.mpf(1), 0)


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
    ratio = abs(qb - sb) / abs(qa - sa)
    assert mpmath.mpf(1) / 16 / 1.5 <= ratio <= mpmath.mpf(1) / 16 * 1.5


def test_reciprocal_consistency_report():
    report = reciprocal_consistency(20)
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
    with pytest.raises(ValueError):
        approx_factorial(5, -1)
    with pytest.raises(ValueError):
        approx_factorial(5, 2, 32)
    with pytest.raises(ValueError):
        stirling_ratio_quadrature(0)
    with pytest.raises(ValueError):
        expansion_vs_quadrature(1, 2)
    with pytest.raises(ValueError):
        quadrature_integrand(0, mp.mpf(1))


def test_report_is_frozen():
    report = approx_factorial(5, 1)
    assert isinstance(report, ApproxReport)
    with pytest.raises(AttributeError):
        report.n = 7
