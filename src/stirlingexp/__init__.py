"""Exact coefficients of the Stirling expansion of n!.

The expansion  n! ~ sqrt(2 pi n) e^-n n^n (1 + 1/(12n) + 1/(288n^2) + ...)
has rational coefficients.  This package computes them by six
independent exact methods, proves their agreement, verifies the
combinatorial identities underlying them, and validates the expansion
numerically at arbitrary precision.

Only the numeric validation (the asymptotic module) needs mpmath, so it
and its names are imported on first use (PEP 562) and the exact layers
start without mpmath.
"""

from .series import (
    TruncatedSeries,
    exp_kernel,
    log_kernel,
    format_rational,
    parse_rational,
)
from .combinat import (
    stirling2_assoc,
    derangement_assoc,
    stirling2_from_series,
    derangement_from_series,
    enumerate_oracle,
    bernoulli,
)
from .coefficients import (
    CoeffTable,
    COEFF_METHODS,
    coeff_via_exp_kernel,
    coeff_via_log_kernel,
    coeff_via_partition_sum,
    coeff_via_derangement_sum,
    coeff_via_bernoulli,
    expansion_coefficients,
    inverse_series,
    inverse_egf_by_lagrange,
    inverse_series_by_recurrence,
    verify_all,
)
from .identities import (
    IdentityReport,
    check_sum_identity,
    check_generalized_sum_identity,
    check_inverse_difference,
    check_implicit_equations,
    check_differential_equations,
    check_derivative_vs_partition_sum,
    reciprocal_consistency,
)

__version__ = "0.1.0"

_NUMERIC = (
    "ApproxReport",
    "approx_factorial",
    "stirling_ratio_quadrature",
    "stirling_ratio_exact",
    "expansion_vs_quadrature",
)

# the public names: those imported above, the submodules they come from,
# and asymptotic with its numeric names, loaded or not
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += ["asymptotic", *_NUMERIC]


def __getattr__(name: str):
    # called only for a name not (yet) in the module namespace
    if name == "asymptotic" or name in _NUMERIC:
        import importlib

        asymptotic = importlib.import_module(".asymptotic", __name__)
        return asymptotic if name == "asymptotic" else getattr(asymptotic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
