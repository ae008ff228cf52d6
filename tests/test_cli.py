"""End-to-end checks of the command-line front end.

Most tests drive ``cli.main`` directly with an argv list and inspect
exit code, stdout, and stderr.  The comb writer is also driven with a
counting handle, and run as ``python -u -m stirlingexp.cli`` in a
subprocess, because capsys never writes through to a file.
"""

import csv
import errno
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from stirlingexp import asymptotic, cli, coefficients, combinat, identities
from stirlingexp import COEFF_METHODS
from stirlingexp.identities import report_from_pairs
from stirlingexp.series import TruncatedSeries


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# coeffs


def test_coeffs_csv_all_methods(capsys):
    code, out, err = run_cli(
        capsys, ["coeffs", "--max", "5", "--format", "csv"]
    )
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "k," + ",".join(COEFF_METHODS) + ",agree"
    assert len(lines) == 7
    row_k1 = lines[2].split(",")
    assert row_k1[0] == "1"
    assert set(row_k1[1:-1]) == {"1/12"}
    assert row_k1[-1] == "yes"
    assert all(line.endswith(",yes") for line in lines[1:])


def test_coeffs_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["coeffs", "--max", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["index_max"] == 4
    assert payload["agreed"] is True
    assert [t["method"] for t in payload["tables"]] == list(COEFF_METHODS)
    for table in payload["tables"]:
        values = [Fraction(v) for v in table["values"]]
        assert values[0] == 1
        assert values[1] == Fraction(1, 12)
        assert values[4] == Fraction(-571, 2488320)


def test_coeffs_single_method_plain(capsys):
    code, out, _ = run_cli(
        capsys, ["coeffs", "--max", "2", "--methods", "bernoulli"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a_0: bernoulli=1 [ok]"
    assert lines[1] == "a_1: bernoulli=1/12 [ok]"
    assert lines[2] == "a_2: bernoulli=1/288 [ok]"


def test_coeffs_at_max_zero_prints_one_row(capsys):
    # the floor of --max: a_0 alone, by every method
    code, out, err = run_cli(capsys, ["coeffs", "--max", "0"])
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "a_0: " + ", ".join(f"{m}=1" for m in COEFF_METHODS) + " [ok]"
    ]


def test_coeffs_negative_max_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["coeffs", "--max", "-1"])
    assert code == 2
    assert err.startswith("error:")


def test_coeffs_mismatch_is_flagged_at_its_index_only(capsys, monkeypatch):
    """a_3 off by one in the bernoulli route: only index 3 disagrees."""
    original = coefficients.expansion_coefficients

    def corrupted(index_max):
        values = list(original(index_max))
        values[3] += 1
        return tuple(values)

    monkeypatch.setitem(coefficients._TABLES, "bernoulli", corrupted)

    code, out, _ = run_cli(capsys, ["coeffs", "--max", "5"])
    assert code == 1
    flagged = [line.split(":")[0] for line in out.splitlines()
               if line.endswith("[MISMATCH]")]
    assert flagged == ["a_3"]
    assert sum(line.endswith("[ok]") for line in out.splitlines()) == 5

    code, out, _ = run_cli(capsys, ["coeffs", "--max", "5", "--format", "csv"])
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["k"] for row in rows if row["agree"] == "no"] == ["3"]
    assert [row["agree"] for row in rows].count("yes") == 5

    code, out, _ = run_cli(capsys, ["coeffs", "--max", "5", "--format", "json"])
    assert code == 1
    assert json.loads(out)["agreed"] is False


def _corrupt_recurrence_at_x3(monkeypatch):
    original = coefficients.inverse_series_by_recurrence

    def corrupted(kind, order):
        coeffs = list(original(kind, order).coeffs)
        coeffs[3] += 1
        return TruncatedSeries(coeffs, order=order)

    monkeypatch.setattr(coefficients, "inverse_series_by_recurrence", corrupted)


@pytest.mark.parametrize("command", ["coeffs", "verify"])
def test_inverse_table_disagreement_is_an_identity_failure(
    capsys, monkeypatch, command
):
    """x^3 off by one in the recurrence: exit 1 naming x^3, not a traceback."""
    _corrupt_recurrence_at_x3(monkeypatch)
    code, out, err = run_cli(capsys, [command, "--max", "3"])
    assert code == 1
    assert out == ""
    assert "inverse-table routes disagree at x^3:" in err


def test_arithmetic_error_subclass_is_not_an_identity_failure(monkeypatch):
    # a ZeroDivisionError in a route is a bug, so it is not turned into exit 1
    def broken(method, index_max):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(coefficients, "coefficient_table", broken)
    with pytest.raises(ZeroDivisionError):
        cli.main(["coeffs", "--max", "3"])


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--max", str(cli.COEFFS_MAX_K + 1)],
        ["coeffs", "--max", "1000000", "--methods", "bernoulli"],
        ["series", "--which", "inv-exp", "--order", str(cli.SERIES_MAX_ORDER + 1)],
        ["series", "--which", "exp-kernel", "--order", "1700"],
        ["verify", "--max", str(cli.VERIFY_MAX_K + 1)],
        ["verify", "--max", "1000000", "--format", "json"],
        ["approx", "--n", "20", "--terms", "601"],
        ["approx", "--n", "20", "--precision-bits",
         str(cli.APPROX_MAX_PRECISION_BITS + 1)],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-1:]),
)
def test_size_above_the_ceiling_is_usage_error(capsys, monkeypatch, argv):
    # rejected before any work: the larger sizes would otherwise run for
    # hours or end in an int-to-str ValueError
    def no_work(*args):
        raise AssertionError("work started above the ceiling")

    for module, name in [(coefficients, "verify_all"), (identities, "run_all"),
                         (coefficients, "inverse_series"), (coefficients, "kernel"),
                         (asymptotic, "approx_factorial")]:
        monkeypatch.setattr(module, name, no_work)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be <=" in err


@pytest.mark.slow
@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--max", str(cli.COEFFS_MAX_K)],
        ["verify", "--max", str(cli.VERIFY_MAX_K)],
    ],
    ids=["coeffs", "verify"],
)
def test_the_ceiling_runs_to_agreement(capsys, argv):
    # the largest K each command serves: the six routes agree at every
    # index, and verify's every identity holds
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    lines, k = out.splitlines(), int(argv[-1])
    if argv[0] == "coeffs":
        assert len(lines) == k + 1
        assert all(line.endswith(" [ok]") for line in lines)
    else:
        assert all(line.startswith("ok   ") for line in lines)
        assert lines[-1] == f"ok   coefficient-cross-check [0..{k}]"


# ---------------------------------------------------------------------------
# series


def test_series_plain_inverse_exp(capsys):
    code, out, _ = run_cli(capsys, ["series", "--which", "inv-exp"])
    assert code == 0
    assert out.startswith("inv-exp(x) = x - x^2/6 + x^3/36 - x^4/270")


def test_series_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, ["series", "--which", "inv-log", "--order", "5", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload.pop("which") == "inv-log"
    rebuilt = TruncatedSeries.from_json_dict(payload)
    assert rebuilt == coefficients.inverse_series("log", 5)


@pytest.mark.parametrize("which", cli.SERIES_CHOICES)
def test_series_csv_row_count(capsys, which):
    code, out, _ = run_cli(
        capsys, ["series", "--which", which, "--order", "6", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    # header plus powers 0..6
    assert len(lines) == 8
    assert lines[0] == "power,coeff"


def test_series_order_zero_rejected_for_inverse(capsys):
    code, _, err = run_cli(
        capsys, ["series", "--which", "inv-exp", "--order", "0"]
    )
    assert code == 2
    assert "order" in err


def test_series_kernel_order_zero_allowed(capsys):
    code, out, _ = run_cli(
        capsys, ["series", "--which", "exp-kernel", "--order", "0"]
    )
    assert code == 0
    assert out.strip() == "exp-kernel(x) = 1"


# ---------------------------------------------------------------------------
# verify


def test_verify_small_range_passes(capsys):
    code, out, err = run_cli(capsys, ["verify", "--max", "6"])
    assert code == 0
    assert err == ""
    assert "FAIL" not in out
    assert "coefficient-cross-check" in out


def test_verify_json_ok_flag(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--max", "6", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["cross_check"]["agreed"] is True
    names = {r["identity"] for r in payload["identities"]}
    assert "reciprocal-consistency" in names


def test_verify_cross_check_covers_the_requested_range(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--max", "14", "--format", "json"])
    assert code == 0
    cross = json.loads(out)["cross_check"]
    assert cross["index_max"] == 14
    assert all(len(t["values"]) == 15 for t in cross["tables"])
    code, out, _ = run_cli(capsys, ["verify", "--max", "14"])
    assert out.splitlines()[-1] == "ok   coefficient-cross-check [0..14]"


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["verify", "--max", "6", "--format", "json"])
    _, second, _ = run_cli(capsys, ["verify", "--max", "6", "--format", "json"])
    assert first == second


def test_verify_computes_each_route_and_inverse_series_once(
    capsys, monkeypatch
):
    # verify --max K runs identities.run_all(K), then
    # coefficients.verify_all(K).  On cold caches that is one reversion
    # per inverse series (exp and log at order K, exp at 2K+1 for the
    # inverse table), one kernel per inverse series and per kernel route,
    # each a_k once per kernel route, one pass of the generalized sums
    # per kind for the count-sum tables (m <= 2K+1) and one for the
    # generalized identity (m <= K), and one Bernoulli table for both the
    # reciprocal check and the bernoulli column.  A second size computes
    # all of it again: tables are kept per (method, K)
    seen = []

    def counting(name, func):
        def counted(*args):
            seen.append(name)
            return func(*args)
        return counted

    sums = coefficients.generalized_sums

    def summing(kind, m_max):
        seen.append(f"sums {kind} {m_max}")
        return sums(kind, m_max)

    monkeypatch.setattr(
        TruncatedSeries, "reversion",
        counting("reversion", TruncatedSeries.reversion),
    )
    for name, key in [("_lagrange", "lagrange"), ("kernel", "kernel"),
                      ("_bernoulli_exponent", "bernoulli")]:
        monkeypatch.setattr(
            coefficients, name, counting(key, getattr(coefficients, name))
        )
    monkeypatch.setattr(coefficients, "generalized_sums", summing)
    monkeypatch.setattr(identities, "generalized_sums", summing)
    for size in (6, 4):
        seen.clear()
        code, _, _ = run_cli(capsys, ["verify", "--max", str(size)])
        assert code == 0
        assert Counter(seen) == {
            "reversion": 3, "kernel": 5, "lagrange": 2 * (size + 1),
            "bernoulli": 1,
            f"sums partition {2 * size + 1}": 1,
            f"sums derangement {2 * size + 1}": 1,
            f"sums partition {size}": 1, f"sums derangement {size}": 1,
        }, size


def test_verify_reports_failure_with_exit_code_one(capsys, monkeypatch):
    """A failing identity must surface as exit code 1, not an exception."""
    broken = report_from_pairs(
        "sum-identity", [(3, Fraction(1, 2), Fraction(1, 3))]
    )

    def fake_run_all(max_index):
        return [broken]

    monkeypatch.setattr(identities, "run_all", fake_run_all)
    code, out, err = run_cli(capsys, ["verify", "--max", "6"])
    assert code == 1
    assert "FAIL sum-identity" in out
    assert "identity failure detected" in err


def test_corrupted_derangement_route_fails_both_checks_that_use_it(
    capsys, monkeypatch
):
    """a_5 off by one in the derangement-sum route, wherever it is read."""
    original = coefficients._TABLES["derangement-sum"]

    def corrupted(index_max):
        values = list(original(index_max))
        if index_max >= 5:
            values[5] += 1
        return tuple(values)

    monkeypatch.setitem(coefficients._TABLES, "derangement-sum", corrupted)

    reports = identities.check_sum_identity(5)
    assert [i for r in reports for i, _, _ in r.failures] == [5]

    code, out, _ = run_cli(capsys, ["verify", "--max", "6", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    sum_failures = [
        f["index"]
        for r in payload["identities"]
        if r["identity"] == "sum-identity"
        for f in r["failures"]
    ]
    assert sum_failures == [5]
    assert payload["cross_check"]["agreed"] is False
    assert payload["cross_check"]["mismatches"] == [5]

    code, out, _ = run_cli(capsys, ["verify", "--max", "6"])
    assert code == 1
    lines = out.splitlines()
    assert "FAIL sum-identity [5..5]" in lines
    assert "FAIL coefficient-cross-check [0..6]" in lines


def test_verify_rejects_csv_format(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--max", "6", "--format", "csv"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def test_verify_below_its_floor_is_usage_error(capsys, monkeypatch):
    # the identity checks start at index 3: rejected before any work
    def no_work(*args):
        raise AssertionError("work started below the floor")

    monkeypatch.setattr(coefficients, "verify_all", no_work)
    monkeypatch.setattr(identities, "run_all", no_work)
    assert run_cli(capsys, ["verify", "--max", "2"]) == (
        2, "", "error: --max must be >= 3\n"
    )


def _corrupt_entry(name, key, index, check, size):
    # entry index of one table off by one, through the name the check
    # reads: identities.coefficient_table(method, K) or
    # identities.generalized_sums(kind, m_max), with key the method or kind
    def corrupt(monkeypatch):
        original = getattr(identities, name)

        def corrupted(first, last):
            values = list(original(first, last))
            if first == key:
                values[index] += 1
            return tuple(values)

        monkeypatch.setattr(identities, name, corrupted)
        return check(size)

    return corrupt


def _corrupt_series(side, check):
    # x^4 of one inverse series off by one, handed to the check with the
    # true series of the other side
    def corrupt(monkeypatch):
        pair = {kind: coefficients.inverse_series(kind, 6) for kind in ("exp", "log")}
        coeffs = list(pair[side].coeffs)
        coeffs[4] += 1
        pair[side] = TruncatedSeries(coeffs, order=6)
        return check(pair["exp"], pair["log"])

    return corrupt


# (identity, corruption returning what the check returns, witness index);
# the table corruptions patch the name the check reads, so verify sees
# them too
TABLE_MUTATIONS = [
    ("sum-identity-general",
     _corrupt_entry("generalized_sums", "partition", 5,
                    identities.check_generalized_sum_identity, 5), 5),
    ("derivative-vs-partition-sum",
     _corrupt_entry("coefficient_table", "exp-kernel", 5,
                    identities.check_derivative_vs_partition_sum, 5), 5),
    # an even index: at an odd one the inverse moves by the same amount
    ("reciprocal-consistency",
     _corrupt_entry("coefficient_table", "bernoulli", 4,
                    identities.reciprocal_consistency, 6), 4),
]
# the implicit equations first see a change at x^4 of the inverse series
# at x^5, the differential equations and the difference at x^4
MUTATIONS = TABLE_MUTATIONS + [
    ("inverse-difference",
     _corrupt_series("log", identities.check_inverse_difference), 4),
    ("implicit-exp",
     _corrupt_series("exp", identities.check_implicit_equations), 5),
    ("implicit-exp-log",
     _corrupt_series("exp", identities.check_implicit_equations), 5),
    ("implicit-log",
     _corrupt_series("log", identities.check_implicit_equations), 5),
    ("diffeq-exp",
     _corrupt_series("exp", identities.check_differential_equations), 4),
    ("diffeq-log",
     _corrupt_series("log", identities.check_differential_equations), 4),
]


@pytest.mark.parametrize(
    "identity,corrupt,witness", MUTATIONS, ids=[m[0] for m in MUTATIONS]
)
def test_each_check_fails_on_a_corrupted_value(
    monkeypatch, identity, corrupt, witness
):
    failures = [
        failure
        for r in corrupt(monkeypatch)
        if r.identity == identity
        for failure in r.failures
    ]
    assert failures[0][0] == witness


@pytest.mark.parametrize(
    "identity,corrupt,witness", TABLE_MUTATIONS,
    ids=[m[0] for m in TABLE_MUTATIONS],
)
def test_verify_shows_a_corrupted_table_at_its_witness(
    capsys, monkeypatch, identity, corrupt, witness
):
    corrupt(monkeypatch)
    code, out, _ = run_cli(capsys, ["verify", "--max", "6", "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    indices = [
        f["index"]
        for r in payload["identities"]
        if r["identity"] == identity
        for f in r["failures"]
    ]
    assert indices[:1] == [witness]


# ---------------------------------------------------------------------------
# approx


def test_approx_csv_header_and_values(capsys):
    code, out, _ = run_cli(
        capsys, ["approx", "--n", "6", "--terms", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,terms,precision_bits,approx,exact,rel_error,scaled_error"
    row = lines[1].split(",")
    assert row[0] == "6"
    assert row[1] == "2"
    assert row[2] == "128"
    assert row[4] == "720"


def test_approx_json_precision_from_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.PRECISION_ENV_VAR, "96")
    code, out, _ = run_cli(capsys, ["approx", "--n", "5", "--format", "json"])
    assert code == 0
    assert json.loads(out)["precision_bits"] == 96


def test_approx_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.PRECISION_ENV_VAR, "96")
    code, out, _ = run_cli(
        capsys,
        ["approx", "--n", "5", "--precision-bits", "192", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["precision_bits"] == 192


def test_approx_bad_env_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.PRECISION_ENV_VAR, "lots")
    code, _, err = run_cli(capsys, ["approx", "--n", "5"])
    assert code == 2
    assert cli.PRECISION_ENV_VAR in err


def test_approx_env_precision_above_the_ceiling_is_usage_error(
    capsys, monkeypatch
):
    def no_work(*args):
        raise AssertionError("work started above the ceiling")

    monkeypatch.setattr(asymptotic, "approx_factorial", no_work)
    monkeypatch.setenv(
        cli.PRECISION_ENV_VAR, str(cli.APPROX_MAX_PRECISION_BITS + 1)
    )
    code, out, err = run_cli(capsys, ["approx", "--n", "5"])
    assert code == 2
    assert out == ""
    assert cli.PRECISION_ENV_VAR in err and "must be <=" in err


def test_approx_rejects_n_zero(capsys):
    code, _, err = run_cli(capsys, ["approx", "--n", "0"])
    assert code == 2
    assert err == "error: --n must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["--terms", "-1"], None, "--terms must be >= 0, got -1"),
        (["--precision-bits", "10"], None,
         "--precision-bits must be >= 64, got 10"),
        ([], "10", f"{cli.PRECISION_ENV_VAR} must be >= 64, got 10"),
    ],
)
def test_approx_below_a_floor_names_the_option(
    capsys, monkeypatch, argv, env, message
):
    # the CLI checks its floors itself, before any work, in its own terms
    def no_work(*args):
        raise AssertionError("work started below the floor")

    monkeypatch.setattr(asymptotic, "approx_factorial", no_work)
    if env is not None:
        monkeypatch.setenv(cli.PRECISION_ENV_VAR, env)
    code, out, err = run_cli(capsys, ["approx", "--n", "5", *argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_approx_n_ceiling_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["approx", "--n", "1001"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "1000" in err


def test_approx_at_the_terms_ceiling_runs(capsys, monkeypatch):
    # 600 terms are accepted and reach the library (601 is a usage
    # error, above); the stand-in keeps the run short
    calls, original = [], asymptotic.approx_factorial

    def recorded(n, terms, precision_bits):
        calls.append(terms)
        return original(n, 1, precision_bits)

    monkeypatch.setattr(asymptotic, "approx_factorial", recorded)
    code, _, err = run_cli(capsys, ["approx", "--n", "20", "--terms", "600"])
    assert (code, err, calls) == (0, "", [600])


def test_approx_at_the_n_ceiling_prints_the_exact_factorial(capsys):
    code, out, err = run_cli(
        capsys, ["approx", "--n", "1000", "--format", "json"]
    )
    assert code == 0
    assert err == ""
    exact = json.loads(out)["exact"]
    assert len(exact) == 2568
    assert int(exact) == math.factorial(1000)


# ---------------------------------------------------------------------------
# comb


def test_comb_csv_partition_spot_value(capsys):
    code, out, _ = run_cli(
        capsys, ["comb", "--r", "3", "--max-n", "6", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,n,k,value"
    assert "3,6,2,10" in lines


def test_comb_json_derangement_spot_values(capsys):
    code, out, _ = run_cli(
        capsys,
        ["comb", "--r", "3", "--max-n", "7", "--kind", "derangement",
         "--format", "json"],
    )
    assert code == 0
    rows = {(e["r"], e["n"], e["k"]): e["value"] for e in json.loads(out)}
    assert rows[(3, 6, 2)] == "40"
    assert rows[(3, 7, 2)] == "420"


def _materialised_comb(r, max_n, kind, fmt):
    # from the int single-value counts, not from the Decimal rows under test
    count = (
        combinat.stirling2_assoc if kind == "partition"
        else combinat.derangement_assoc
    )
    entries = [
        (r, n, k, count(r, n, k))
        for n in range(max_n + 1)
        for k in range(n // r + 1)
    ]
    if fmt == "json":
        dicts = [
            {"r": r, "n": n, "k": k, "value": str(value)}
            for r, n, k, value in entries
        ]
        return json.dumps(dicts, indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["r", "n", "k", "value"])
        writer.writerows(entries)
        return buffer.getvalue()
    return "".join(
        f"{kind} r={r} n={n} k={k}: {value}\n" for r, n, k, value in entries
    )


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
@pytest.mark.parametrize("kind", ["partition", "derangement"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_comb_streamed_output_matches_the_materialised_table(
    capsys, tmp_path, r, kind, fmt
):
    target = tmp_path / "comb.txt"
    for max_n in (0, 1, 5, 12):
        argv = ["comb", "--r", str(r), "--max-n", str(max_n), "--kind", kind,
                "--format", fmt]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == _materialised_comb(r, max_n, kind, fmt), max_n
        code, written, _ = run_cli(capsys, ["--output", str(target)] + argv)
        assert code == 0
        assert written == ""
        assert target.read_bytes() == out.encode("utf-8")


class _CountingText:
    """A text stream that keeps what is written and counts the writes."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_comb_writes_once_per_row(fmt):
    # head, one write per row and tail; one write per count made 37
    max_n = 12
    handle = _CountingText()
    rows = combinat.comb_table(3, max_n, "partition")
    cli._write_comb(handle, 3, rows, fmt, "partition")
    assert len(handle.parts) <= max_n + 3
    assert "".join(handle.parts) == _materialised_comb(3, max_n, "partition", fmt)


def _python(*args, **streams):
    """A fresh interpreter run on args, with the package on its path.

    stdout is buffered unless args ask for -u, whatever the environment
    says.
    """
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **streams)


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_comb_on_a_write_through_stdout_matches_the_materialised_table(fmt):
    # python -u makes sys.stdout write through to the pipe on every write
    done = _python(
        "-u", "-m", "stirlingexp.cli", "comb", "--r", "2", "--max-n", "12",
        "--format", fmt, capture_output=True,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    expected = _materialised_comb(2, 12, "partition", fmt)
    assert done.stdout == expected.encode("utf-8")


class _Sha256Text:
    """A text stream that keeps only the sha256 of what is written."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode("utf-8"))

    def flush(self):
        pass


def _assert_comb_csv_is_text_from_int_rows(monkeypatch, r, max_n, kind):
    """comb's csv output hashes to csv.writer's text of the int rows."""
    argv = ["comb", "--r", str(r), "--max-n", str(max_n), "--kind", kind,
            "--format", "csv"]
    printed = _Sha256Text()
    monkeypatch.setattr(sys, "stdout", printed)
    assert cli.main(argv) == 0
    expected = _Sha256Text()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["r", "n", "k", "value"])
    for n, row in enumerate(islice(combinat._rows(r, kind, one=1), max_n + 1)):
        writer.writerows((r, n, k, value) for k, value in enumerate(row))
    assert printed.digest.hexdigest() == expected.digest.hexdigest()


@pytest.mark.parametrize("kind", ["partition", "derangement"])
def test_comb_at_the_benchmark_size_matches_text_from_int_rows(
    monkeypatch, kind
):
    # the benchmark's table: 42,084 counts per kind, the Decimal rows and
    # the writer against int rows and csv.writer
    _assert_comb_csv_is_text_from_int_rows(monkeypatch, 3, 500, kind)


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["partition", "derangement"])
def test_comb_at_the_ceiling_matches_text_from_int_rows(monkeypatch, kind):
    # r = 1 at the ceiling: about 500k counts, up to 2568 digits (1000!),
    # still within the int-to-str limit, so int rows can be the reference
    _assert_comb_csv_is_text_from_int_rows(
        monkeypatch, 1, cli.COMB_MAX_N, kind
    )


def test_comb_huge_cycle_length_has_only_empty_rows(capsys):
    # (r-1)! is needed only once n reaches r, so it must never be evaluated here
    code, out, _ = run_cli(
        capsys,
        ["comb", "--r", "1000000000", "--max-n", "5", "--kind", "derangement",
         "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines()[1:] == [f"1000000000,{n},0,{int(n == 0)}" for n in range(6)]


def test_comb_max_n_ceiling_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["comb", "--max-n", "1001"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "1000" in err


def test_comb_invalid_block_size_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["comb", "--r", "0"])
    assert code == 2
    assert err.startswith("error:")


def test_comb_negative_max_n_names_the_option(capsys):
    code, out, err = run_cli(capsys, ["comb", "--max-n", "-1"])
    assert code == 2
    assert out == ""
    assert err == "error: --max-n must be >= 0\n"


# ---------------------------------------------------------------------------
# parser-level behaviour


def test_unknown_format_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["coeffs", "--format", "nope"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_output_flag_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "series.txt"
    code, out, _ = run_cli(
        capsys,
        ["--output", str(target), "series", "--which", "inv-exp"],
    )
    assert code == 0
    assert out == ""
    _, direct, _ = run_cli(capsys, ["series", "--which", "inv-exp"])
    assert target.read_text(encoding="utf-8") == direct


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--max", "5"],
        ["series", "--which", "inv-exp", "--order", "6"],
        ["verify", "--max", "40"],
        ["comb", "--r", "3", "--max-n", "9"],
        ["approx", "--n", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    # exit 1 is kept for an identity failure; the path is opened before
    # the work, so none of it runs
    def no_work(*args):
        raise AssertionError("work started before --output was opened")

    for module, name in [(coefficients, "verify_all"), (identities, "run_all"),
                         (coefficients, "inverse_series"),
                         (asymptotic, "approx_factorial")]:
        monkeypatch.setattr(module, name, no_work)
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, ["--output", str(target)] + argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot open --output:")
    assert str(target) in err
    assert not target.exists()


def test_failed_command_leaves_an_existing_output_intact(
    capsys, monkeypatch, tmp_path
):
    # the inverse table's self-check raises after --output was opened; the
    # file keeps its bytes and mode, and no temporary file is left beside it
    target = tmp_path / "table.txt"
    target.write_text("an earlier table\n", encoding="utf-8")
    target.chmod(0o640)
    _corrupt_recurrence_at_x3(monkeypatch)
    code, out, err = run_cli(capsys, ["--output", str(target), "coeffs", "--max", "3"])
    assert (code, out) == (1, "")
    assert "inverse-table routes disagree at x^3:" in err
    assert target.read_text(encoding="utf-8") == "an earlier table\n"
    assert target.stat().st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["table.txt"]


def test_an_existing_output_that_cannot_be_written_is_usage_error(
    capsys, monkeypatch, tmp_path
):
    # an existing file is opened for writing before the work, as an open
    # in place would need; mode bits do not stop root, so os.open refuses
    target = tmp_path / "table.txt"
    target.write_text("an earlier table\n", encoding="utf-8")
    real_open = os.open

    def refusing(path, flags, *rest):
        if os.fspath(path) == os.path.realpath(target) and flags & os.O_WRONLY:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, *rest)

    def no_work(*args):
        raise AssertionError("work started before --output was opened")

    monkeypatch.setattr(os, "open", refusing)
    monkeypatch.setattr(coefficients, "verify_all", no_work)
    code, out, err = run_cli(capsys, ["--output", str(target), "coeffs", "--max", "3"])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot open --output:")
    assert str(target) in err
    assert target.read_text(encoding="utf-8") == "an earlier table\n"
    assert os.listdir(tmp_path) == ["table.txt"]


@pytest.mark.parametrize(
    "failure",
    [BrokenPipeError(errno.EPIPE, "Broken pipe"),
     OSError(errno.ENOSPC, "No space left on device")],
    ids=["broken-pipe", "full"],
)
def test_a_write_failure_under_output_leaves_stdout_alone(
    capsys, monkeypatch, tmp_path, failure
):
    # only a closed stdout is pointed at os.devnull; under --output, fd 1
    # is not the stream that failed, even for a reader gone from a FIFO
    def failing(*args):
        raise failure

    redirected = []
    monkeypatch.setattr(cli, "_write_comb", failing)
    monkeypatch.setattr(os, "dup2", lambda *args: redirected.append(args))
    target = tmp_path / "table.txt"
    code, out, err = run_cli(capsys, ["--output", str(target), "comb"])
    assert (code, out, redirected) == (2, "", [])
    assert err == f"error: cannot write the output: {failure}\n"
    assert os.listdir(tmp_path) == []


def test_output_replaces_a_file_and_keeps_its_mode(capsys, monkeypatch, tmp_path):
    # through a symlink the file it names is replaced; a table with a
    # mismatch (exit 1) is still data, so it replaces the file too
    target = tmp_path / "table.txt"
    target.write_text("x" * 10000, encoding="utf-8")
    target.chmod(0o604)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    _, direct, _ = run_cli(capsys, ["coeffs", "--max", "3"])
    code, out, _ = run_cli(capsys, ["--output", str(link), "coeffs", "--max", "3"])
    assert (code, out) == (0, "")
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == direct
    assert target.stat().st_mode & 0o777 == 0o604
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "table.txt"]

    # the tables above are kept per (method, K), so the corrupt one must
    # be computed anew
    coefficients.coefficient_table.cache_clear()
    monkeypatch.setitem(coefficients._TABLES, "bernoulli", lambda k: (0,) * (k + 1))
    code, _, _ = run_cli(capsys, ["--output", str(link), "coeffs", "--max", "3"])
    assert code == 1
    assert target.read_text(encoding="utf-8").count("[MISMATCH]") == 4


def test_new_output_file_gets_the_umask_mode(capsys, tmp_path):
    target = tmp_path / "new.txt"
    old_mask = os.umask(0o027)
    try:
        code, _, _ = run_cli(capsys, ["--output", str(target), "coeffs", "--max", "2"])
    finally:
        os.umask(old_mask)
    assert code == 0
    assert target.stat().st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["new.txt"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_output_to_a_fifo_is_written_in_place(tmp_path):
    # a rename over a FIFO would replace the node, and its reader would
    # never see the data
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; print(open(sys.argv[1]).read(), end='')",
         str(fifo)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        code = cli.main(["--output", str(fifo), "series", "--which", "inv-exp"])
        text, _ = child.communicate(timeout=60)
    finally:
        child.kill()
    assert code == 0
    assert text.startswith("inv-exp(x) = x")
    assert os.listdir(tmp_path) == ["pipe"]


@pytest.mark.parametrize(
    "argv",
    [["coeffs", "--max", "3"], ["comb", "--r", "1", "--max-n", "300"]],
    ids=["at-the-last-flush", "mid-table"],
)
def test_closed_pipe_is_a_write_failure(argv):
    # the reader is gone before the first byte: a short table fails only
    # when stdout is flushed, a long one on a write in mid-table.  Exit 1
    # is kept for an identity failure
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _python(
            "-m", "stirlingexp.cli", *argv, stdout=write_end,
            stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: cannot write the output:")


def test_full_output_device_is_a_write_failure(dev_full):
    done = _python(
        "-m", "stirlingexp.cli", "--output", dev_full, "coeffs", "--max",
        "3", capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (2, "")
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: cannot write the output:")


# ---------------------------------------------------------------------------
# process entry


def test_identity_failure_exits_one_through_the_process_entry():
    # exit 0 and 2 reach the interpreter's exit through run() in the
    # write-through, closed-pipe and full-device tests; here the child
    # corrupts a_3 of one route, then runs the module as python -m does
    code = (
        "import runpy\n"
        "from stirlingexp import coefficients\n"
        "right = coefficients._TABLES['bernoulli']\n"
        "def wrong(k):\n"
        "    table = right(k)\n"
        "    return (*table[:-1], table[-1] + 1)\n"
        "coefficients._TABLES['bernoulli'] = wrong\n"
        "runpy.run_module('stirlingexp.cli', run_name='__main__')\n"
    )
    done = _python(
        "-c", code, "coeffs", "--max", "3", capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (1, "")
    flags = [line.rsplit(" ", 1)[1] for line in done.stdout.splitlines()]
    assert flags == ["[ok]"] * 3 + ["[MISMATCH]"]


@pytest.mark.parametrize("code", [0, 1, 2])
def test_process_entry_freezes_then_exits_with_the_code_of_main(
    monkeypatch, code
):
    monkeypatch.setattr(cli, "main", lambda: code)
    frozen = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert exit_info.value.code == code


def test_main_leaves_the_collector_unfrozen(capsys):
    # in process, cyclic garbage must still be collected and finalized:
    # pytest sees an unclosed file only through its finalizer
    frozen = gc.get_freeze_count()
    try:
        code, out, _ = run_cli(capsys, ["coeffs", "--max", "3"])
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
    assert (code, len(out.splitlines())) == (0, 4)
