"""Exact coefficients of the Stirling expansion of n!.

The expansion  n! ~ sqrt(2 pi n) e^-n n^n (1 + 1/(12n) + 1/(288n^2) + ...)
has rational coefficients.  This package computes them by six
independent exact methods, proves their agreement, verifies the
combinatorial identities underlying them, and validates the expansion
numerically at arbitrary precision.

Each name lives in the submodule that defines it (series, combinat,
coefficients, identities, asymptotic) and is reached through that
submodule, as in ``from stirlingexp import coefficients``.  The package
itself defines only its version, so ``import stirlingexp`` loads no
submodule, and only asymptotic loads mpmath.
"""

__version__ = "0.1.0"
