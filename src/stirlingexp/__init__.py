"""Exact coefficients of the Stirling expansion of n!.

The expansion  n! ~ sqrt(2 pi n) e^-n n^n (1 + 1/(12n) + 1/(288n^2) + ...)
has rational coefficients.  This package computes them by six
independent exact methods, proves their agreement, verifies the
combinatorial identities underlying them, and validates the expansion
numerically at arbitrary precision.

``import stirlingexp`` loads no submodule.  Each public name, and each
of the five submodules, is imported on first use (PEP 562), so a
command loads only the modules it runs, and only the numeric validation
(the asymptotic module) loads mpmath.
"""

__version__ = "0.1.0"

_SUBMODULES = ("series", "combinat", "coefficients", "identities", "asymptotic")

# each public name -> the submodule that defines it
_HOME = {
    name: module
    for module, names in {
        "series": (
            "TruncatedSeries", "exp_kernel", "log_kernel",
            "format_rational", "parse_rational",
        ),
        "combinat": (
            "stirling2_assoc", "derangement_assoc", "stirling2_from_series",
            "derangement_from_series", "enumerate_oracle", "bernoulli",
        ),
        "coefficients": (
            "CoeffTable", "COEFF_METHODS", "coeff_via_exp_kernel",
            "coeff_via_log_kernel", "coeff_via_partition_sum",
            "coeff_via_derangement_sum", "coeff_via_bernoulli",
            "expansion_coefficients", "inverse_series",
            "inverse_egf_by_lagrange", "inverse_series_by_recurrence",
            "verify_all",
        ),
        "identities": (
            "IdentityReport", "check_sum_identity",
            "check_generalized_sum_identity", "check_inverse_difference",
            "check_implicit_equations", "check_differential_equations",
            "check_derivative_vs_partition_sum", "reciprocal_consistency",
        ),
        "asymptotic": (
            "ApproxReport", "approx_factorial", "stirling_ratio_quadrature",
            "stirling_ratio_exact", "expansion_vs_quadrature",
        ),
    }.items()
    for name in names
}

__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name: str):
    # called only for a name not (yet) in the module namespace; importing
    # a submodule binds it here, so later uses of it skip this call
    if name in _SUBMODULES or name in _HOME:
        import importlib

        module = importlib.import_module("." + _HOME.get(name, name), __name__)
        return module if name in _SUBMODULES else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
