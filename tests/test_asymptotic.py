"""Numeric behavior: quadrature accuracy, error scaling, precision plumbing."""

import math
import time

import mpmath
import pytest
from mpmath import mp

from stirlingexp import asymptotic
from stirlingexp.asymptotic import (
    ApproxReport,
    approx_factorial,
    expansion_vs_quadrature,
    stirling_ratio_exact,
    stirling_ratio_quadrature,
)
from stirlingexp.coefficients import CrossCheck, verify_all
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


def _integrand(n, u):
    """Re(z(u)^n) through the quadrature's two seams: the node value z(u),
    made fixed point here, and its integer power."""
    with mp.workprec(_WP):
        z = asymptotic._z_at(u)
        pair = (int(mp.ldexp(z.real, _WP)), int(mp.ldexp(z.imag, _WP)))
        return mp.ldexp(asymptotic._real_power(pair, n, _WP), -_WP)


def test_integrand_is_even():
    with mp.workprec(_WP):
        for n in (1, 5, 12):
            for t in ("0.37", "1.91", "2.6"):
                u = mp.mpf(t) / mp.sqrt(n)
                # z(-u) is the conjugate of z(u), to the bit ...
                assert asymptotic._z_at(-u) == mp.conj(asymptotic._z_at(u))
                # ... and the power of the conjugate has the same real
                # part, but for the rounding of its products
                assert abs(_integrand(n, u) - _integrand(n, -u)) <= (
                    mpmath.mpf(2) ** -(_WP - 8)
                ), (n, t)


def test_integrand_is_two_pi_periodic():
    # z itself is 2 pi-periodic: e^(iu) is, and -iu moves by -2 pi i
    with mp.workprec(_WP):
        for n in (1, 6, 12):
            for t in ("0", "0.37", "-1.91", "2.6"):
                u = mp.mpf(t)
                shifted = asymptotic._z_at(u + 2 * mp.pi)
                assert abs(shifted - asymptotic._z_at(u)) <= mpmath.mpf(2) ** -125
                assert abs(_integrand(n, u + 2 * mp.pi) - _integrand(n, u)) <= (
                    mpmath.mpf(2) ** -125
                ), (n, t)


def test_integrand_matches_the_complex_form():
    with mp.workprec(_WP):
        for n in (1, 5, 12):
            for t in ("0", "0.37", "-1.91", "2.6", "9.5"):
                u = mp.mpf(t) / mp.sqrt(n)
                expected = mp.re(mp.exp(n * (mp.expj(u) - 1 - 1j * u)))
                got = _integrand(n, u)
                assert abs(got - expected) <= mpmath.mpf(2) ** -125, (n, t)


def _record(monkeypatch, name) -> list:
    """The first argument of every call the quadrature makes to the
    asymptotic function ``name``: the points u of _z_at, the node values
    z of _real_power."""
    seen = []
    original = getattr(asymptotic, name)

    def recording(first, *rest):
        seen.append(first)
        return original(first, *rest)

    monkeypatch.setattr(asymptotic, name, recording)
    return seen


@pytest.mark.parametrize(
    "n, bits, full_panels",
    [
        (1, 128, (8, 16, 32, 64)),
        (20, 128, (8, 16, 32, 64, 128)),
        (30, 256, (8, 16, 32, 64, 128, 256)),
    ],
)
def test_quadrature_panel_sequence_on_the_half_range(
    monkeypatch, n, bits, full_panels
):
    points = _record(monkeypatch, "_z_at")
    powers = _record(monkeypatch, "_real_power")
    stirling_ratio_quadrature(n, bits)
    # every point is evaluated once, and only on [0, pi], and each pass
    # raises only its new node values to the power n
    assert len(set(points)) == len(points) == full_panels[-1] // 2 + 1
    assert len(powers) == len(points)
    with mp.workprec(bits + asymptotic._GUARD_BITS):
        assert all(0 <= u <= mp.pi for u in points)
    # each pass adds only the midpoints of the one before, so the first
    # P/2 + 1 points are the grid of P full-range panels
    with mp.workprec(bits):
        for panels in full_panels:
            half = panels // 2
            grid = sorted(u * half / mp.pi for u in points[: half + 1])
            assert all(
                abs(x - j) <= mpmath.mpf(2) ** -(bits // 2)
                for j, x in enumerate(grid)
            ), panels


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
    # the node's two transcendentals, one cos_sin and one complex exp
    calls = {"mpf_cos_sin": 0, "mpc_exp": 0}
    for name in calls:
        original = getattr(asymptotic, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(asymptotic, name, counting)
    for n in range(1, 21):
        stirling_ratio_quadrature(n, 128)
    # n = 20 settles at 128 full-range panels, 65 nodes on the half range;
    # one evaluation per (n, node) made 1172 of each
    assert calls == {"mpf_cos_sin": 65, "mpc_exp": 65}


@pytest.mark.parametrize("n", [10**5, pytest.param(10**6, marks=pytest.mark.slow)])
def test_quadrature_settles_at_large_n(n):
    quad = stirling_ratio_quadrature(n, 128)
    assert abs(quad - stirling_ratio_exact(n, 128)) <= mpmath.mpf(2) ** -64


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 5000])
def test_exact_mpf_matches_the_direct_conversion(n):
    factorial = math.factorial(n)
    value = asymptotic._exact_mpf(factorial)
    with mp.workprec(factorial.bit_length()):
        assert value.man_exp == mp.mpf(factorial).man_exp
    with mp.workprec(128):
        assert mp.mpf(value).man_exp == mp.mpf(factorial).man_exp
    assert int(value) == factorial


def test_exact_ratio_at_large_n_takes_well_under_a_second():
    # converting 100000! by mp.mpf alone took 0.9 s, the factorial itself
    # takes about 0.2 s
    start = time.perf_counter()
    stirling_ratio_exact(10**5, 128)
    assert time.perf_counter() - start < 1.0


def test_quadrature_non_finite_integrand_raises(monkeypatch):
    # a node value is checked before it is made an integer, which would
    # turn a NaN into a plain number
    monkeypatch.setattr(asymptotic, "_z_at", lambda u: mp.mpc(mp.nan, 0))
    with pytest.raises(ArithmeticError, match="non-finite value at n=5"):
        stirling_ratio_quadrature(5, 128)
    # nothing of the failed pass stays cached
    monkeypatch.undo()
    quad, exact = stirling_ratio_quadrature(5, 128), stirling_ratio_exact(5, 128)
    assert abs(quad - exact) / exact <= mpmath.mpf(2) ** -126


def test_quadrature_that_does_not_settle_raises(monkeypatch):
    # n = 30 at 256 bits settles only at 256 full-range panels
    points = _record(monkeypatch, "_z_at")
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
