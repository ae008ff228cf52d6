"""What each command imports, and the public names of the package."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stirlingexp
from stirlingexp import asymptotic, identities

SRC = str(Path(stirlingexp.__file__).resolve().parent.parent)

# imports the package, runs the CLI on the given arguments (if any) with
# its output discarded, and prints which stirlingexp submodules and which
# of mpmath, dataclasses, inspect, fractions and decimal got loaded.
# mpmath is for approx alone; dataclasses and inspect (12-15 ms of
# start-up together) are for no command
PROBE = """
import contextlib, io, sys
import stirlingexp
if sys.argv[1:]:
    from stirlingexp import cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(sys.argv[1:])
        except SystemExit:
            pass
watched = ("mpmath", "dataclasses", "inspect", "fractions", "decimal")
print(*sorted(
    m for m in sys.modules if m in watched or m.startswith("stirlingexp.")
))
"""


def _fresh(code, *args):
    """stdout of a fresh interpreter running code with the given argv."""
    path = filter(None, [SRC, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(*argv):
    """What PROBE reports loaded after running the CLI on argv."""
    return set(_fresh(PROBE, *argv).split())


COEFFS = ["coeffs", "--max", "6"]
SERIES = ["series", "--which", "inv-exp", "--order", "6"]
COMB = ["comb", "--r", "3", "--max-n", "9", "--kind", "derangement"]
VERIFY = ["verify", "--max", "4"]


@pytest.mark.parametrize(
    "argv",
    [[], COEFFS, SERIES, COMB, VERIFY, ["approx", "--help"]],
    ids=lambda argv: "-".join(argv[:2]) or "import",
)
def test_exact_commands_start_without_mpmath(argv):
    assert _loaded(*argv) & {"mpmath", "dataclasses", "inspect"} == set()


def test_import_loads_no_submodule():
    # every public name resolves on first use, so a bare import compiles
    # and runs none of the layers
    assert _loaded() == set()


@pytest.mark.parametrize(
    "argv, checkers",
    [
        (COEFFS, set()),
        (SERIES, set()),
        (COMB, set()),
        (VERIFY, {"stirlingexp.identities"}),
    ],
    ids=["coeffs", "series", "comb", "verify"],
)
def test_exact_commands_load_identities_only_for_verify(argv, checkers):
    loaded = _loaded(*argv)
    assert loaded & {"stirlingexp.identities", "stirlingexp.asymptotic"} == checkers


def test_numeric_layer_loads_no_checker():
    # asymptotic needs the coefficients, not the identity checks
    code = (
        "import sys, stirlingexp.asymptotic\n"
        "print(*sorted(m for m in sys.modules if m.startswith('stirlingexp.')))\n"
    )
    assert set(_fresh(code).split()) == {
        "stirlingexp.series",
        "stirlingexp.combinat",
        "stirlingexp.coefficients",
        "stirlingexp.asymptotic",
    }


def test_approx_loads_mpmath():
    loaded = _loaded("approx", "--n", "5")
    assert {"mpmath", "stirlingexp.asymptotic"} <= loaded
    assert loaded & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize(
    "name",
    [
        "ApproxReport",
        "approx_factorial",
        "stirling_ratio_quadrature",
        "stirling_ratio_exact",
        "expansion_vs_quadrature",
    ],
)
def test_numeric_names_resolve_to_the_asymptotic_objects(name):
    assert getattr(stirlingexp, name) is getattr(asymptotic, name)
    assert name in dir(stirlingexp)


@pytest.mark.parametrize("name", stirlingexp.__all__)
def test_every_public_name_resolves_to_its_home_object(name):
    value = getattr(stirlingexp, name)
    if name in ("series", "combinat", "coefficients", "identities", "asymptotic"):
        assert value is importlib.import_module(f"stirlingexp.{name}")
    else:
        home = importlib.import_module(f"stirlingexp.{stirlingexp._HOME[name]}")
        assert value is getattr(home, name)
        # the home defines the object; it does not merely import it
        assert getattr(value, "__module__", home.__name__) == home.__name__
    assert name in dir(stirlingexp)


def test_reciprocal_check_has_one_definition():
    assert stirlingexp.reciprocal_consistency is identities.reciprocal_consistency
    assert not hasattr(asymptotic, "reciprocal_consistency")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stirlingexp.no_such_name


# what `from stirlingexp import *` binds: every public function and class
# of the layers, and the submodules they live in
STAR_NAMES = [
    "ApproxReport", "COEFF_METHODS", "CoeffTable", "IdentityReport",
    "TruncatedSeries", "approx_factorial", "asymptotic", "bernoulli",
    "check_derivative_vs_partition_sum", "check_differential_equations",
    "check_generalized_sum_identity", "check_implicit_equations",
    "check_inverse_difference", "check_sum_identity",
    "coeff_via_bernoulli",
    "coeff_via_derangement_sum", "coeff_via_exp_kernel",
    "coeff_via_log_kernel", "coeff_via_partition_sum", "coefficients",
    "combinat", "derangement_assoc", "derangement_from_series",
    "enumerate_oracle", "exp_kernel", "expansion_coefficients",
    "expansion_vs_quadrature", "format_rational", "identities",
    "inverse_egf_by_lagrange", "inverse_series",
    "inverse_series_by_recurrence", "log_kernel",
    "parse_rational", "reciprocal_consistency", "series", "stirling2_assoc",
    "stirling2_from_series", "stirling_ratio_exact",
    "stirling_ratio_quadrature", "verify_all",
]


def test_star_import_binds_the_public_names():
    code = (
        "import stirlingexp\n"
        "assert 'asymptotic' not in vars(stirlingexp)\n"
        "assert stirlingexp.asymptotic.__name__ == 'stirlingexp.asymptotic'\n"
        "namespace = {}\n"
        "exec('from stirlingexp import *', namespace)\n"
        "print(' '.join(sorted(set(namespace) - {'__builtins__'})))\n"
    )
    assert _fresh(code).split() == sorted(STAR_NAMES)
    assert sorted(stirlingexp.__all__) == sorted(STAR_NAMES)
