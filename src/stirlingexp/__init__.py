"""Exact coefficients of the Stirling expansion of n!.

The expansion  n! ~ sqrt(2 pi n) e^-n n^n (1 + 1/(12n) + 1/(288n^2) + ...)
has rational coefficients.  This package computes them by six
independent exact methods, proves their agreement, verifies the
combinatorial identities underlying them, and validates the expansion
numerically at arbitrary precision.

Each name lives in the submodule that defines it (series, combinat,
coefficients, identities, asymptotic) and is reached through that
submodule, as in ``from stirlingexp import coefficients``.  The package
itself defines only its version, the names of the six coefficient
methods and of the two count kinds, and the default and least binary
precision of the numeric validation: the values that the CLI's parser
offers or checks before any command runs, so ``import stirlingexp``
loads no submodule and each command compiles only the layers it runs.
mpmath is loaded only by asymptotic's approx_factorial and
stirling_ratio_exact, on their first call, and approx_factorial loads
the exact layers first (asymptotic's docstring says why); the
quadrature settles and rounds in integers.
"""

__version__ = "0.1.0"

# the names of coefficients' six routes, in the order every table lists
# them, and of combinat's two count kinds (set partitions and
# permutations); kept here, with the precision defaults below, so that
# the CLI's parser offers them without compiling either layer
COEFF_METHODS = (
    "exp-kernel",
    "log-kernel",
    "partition-sum",
    "derangement-sum",
    "bernoulli",
    "inverse-table",
)
KINDS = ("partition", "derangement")

# default and least binary precision of asymptotic's numeric validation;
# kept here, where every process has them, so that neither the CLI nor
# asymptotic loads another module to read two ints
DEFAULT_PRECISION_BITS = 128
_MIN_PRECISION_BITS = 64
