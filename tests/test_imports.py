"""What each command imports, and where each public name lives.

The package root defines only its version and the precision defaults;
every public name is reached through the one submodule that defines and
exports it.
"""

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
    # the root imports nothing, so a bare import compiles and runs none
    # of the layers
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


EXACT = {"stirlingexp.series", "stirlingexp.combinat", "stirlingexp.coefficients"}

# runs the given statement after importing asymptotic, then prints what
# got loaded, in sys.modules order: the other package modules and mpmath,
# fractions and decimal
NUMERIC_PROBE = """
import sys
from stirlingexp import asymptotic
{}
watched = ("mpmath", "fractions", "decimal")
print(*(m for m in sys.modules if m in watched or m.startswith("stirlingexp.")))
"""


def _numeric_loads(statement):
    """What a fresh interpreter has loaded after statement, in order."""
    return _fresh(NUMERIC_PROBE.format(statement)).split()


def test_numeric_layer_import_loads_nothing_else():
    # every numeric function imports what it uses on its first call; the
    # module itself needs only fractions (and the decimal it imports), the
    # base of the Dyadic values that the quadrature returns
    loaded = _numeric_loads("")
    assert set(loaded) == {"stirlingexp.asymptotic", "fractions", "decimal"}


def test_quadrature_loads_no_mpmath_and_no_exact_layer():
    # it settles and rounds in integers
    loaded = _numeric_loads("asymptotic.stirling_ratio_quadrature(5)")
    assert set(loaded) == {"stirlingexp.asymptotic", "fractions", "decimal"}


def test_series_vs_quadrature_loads_the_exact_layers_but_no_mpmath():
    # the coefficients need no identity check, and the series sum is
    # rounded in integers like the quadrature
    loaded = _numeric_loads("asymptotic.expansion_vs_quadrature(5, 3)")
    assert EXACT <= set(loaded)
    assert "stirlingexp.identities" not in loaded
    assert "mpmath" not in loaded


@pytest.mark.parametrize("call", ["approx_factorial(5, 3)"])
def test_coefficient_calls_load_the_exact_layers_ahead_of_mpmath(call):
    # the order and its reason are stated in asymptotic's docstring; the
    # coefficients need no identity check
    loaded = _numeric_loads(f"asymptotic.{call}")
    assert EXACT <= set(loaded)
    assert "stirlingexp.identities" not in loaded
    assert all(loaded.index(m) < loaded.index("mpmath") for m in EXACT)


def test_approx_loads_mpmath():
    loaded = _loaded("approx", "--n", "5")
    assert {"mpmath", "stirlingexp.asymptotic"} <= loaded
    assert loaded & {"dataclasses", "inspect"} == set()


LAYERS = ("series", "combinat", "coefficients", "identities", "asymptotic")

# (layer, name) for every name a layer exports
EXPORTS = [
    (layer, name)
    for layer in LAYERS
    for name in importlib.import_module(f"stirlingexp.{layer}").__all__
]


@pytest.mark.parametrize("name", [*LAYERS, *sorted(name for _, name in EXPORTS)])
def test_every_public_name_resolves_to_its_home_object(name):
    if name in LAYERS:
        # the import system binds a submodule on the package, no hook needed
        namespace = {}
        exec(f"from stirlingexp import {name}", namespace)
        assert namespace[name] is importlib.import_module(f"stirlingexp.{name}")
        return
    # one layer exports the name, that layer defines it, and the package
    # root does not alias it
    (home,) = [layer for layer, exported in EXPORTS if exported == name]
    module = importlib.import_module(f"stirlingexp.{home}")
    value = getattr(module, name)
    assert getattr(value, "__module__", module.__name__) == module.__name__
    assert not hasattr(stirlingexp, name)


def test_import_binds_only_the_version():
    code = (
        "import stirlingexp\n"
        "print(*sorted(n for n in vars(stirlingexp) if not n.startswith('__')))\n"
        "print(stirlingexp.__version__)\n"
        "print(hasattr(stirlingexp, 'verify_all'))\n"
        "from stirlingexp import coefficients, asymptotic\n"
        "print(coefficients.verify_all.__module__, asymptotic.__name__)\n"
    )
    assert _fresh(code).splitlines() == [
        "DEFAULT_PRECISION_BITS _MIN_PRECISION_BITS",
        stirlingexp.__version__,
        "False",
        "stirlingexp.coefficients stirlingexp.asymptotic",
    ]


def test_reciprocal_check_has_one_definition():
    assert identities.reciprocal_consistency.__module__ == identities.__name__
    assert not hasattr(asymptotic, "reciprocal_consistency")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stirlingexp.no_such_name
