"""Exact coefficients of the Stirling expansion of n!.

The expansion  n! ~ sqrt(2 pi n) e^-n n^n (1 + 1/(12n) + 1/(288n^2) + ...)
has rational coefficients.  This package computes them by six
independent exact methods, proves their agreement, verifies the
combinatorial identities underlying them, and validates the expansion
numerically at arbitrary precision.
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
    coeff_from_inverse_table,
    expansion_coefficients,
    inverse_series,
    inverse_egf_by_reversion,
    inverse_egf_by_lagrange,
    inverse_egf_by_recurrence,
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
)
from .asymptotic import (
    ApproxReport,
    approx_factorial,
    stirling_ratio_quadrature,
    stirling_ratio_exact,
    expansion_vs_quadrature,
    reciprocal_consistency,
)

__version__ = "0.1.0"
