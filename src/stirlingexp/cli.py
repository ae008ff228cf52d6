"""Command-line front end.

Subcommands: coeffs (coefficient tables by method with an agreement
column), series (the four named series as exact fractions), verify (the
full identity suite), approx (factorial approximation reports), comb
(restricted partition/permutation tables).

Data goes to stdout or --output; diagnostics go to stderr.  Exit codes:
0 success, 1 identity failure, 2 usage error.  Output is deterministic
for a fixed invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from typing import Iterator, Sequence, TextIO

from . import asymptotic, combinat, coefficients, identities
from .coefficients import COEFF_METHODS
from .series import TruncatedSeries, exp_kernel, log_kernel, format_rational

PRECISION_ENV_VAR = "STIRLINGEXP_PRECISION_BITS"

FORMATS = ("plain", "csv", "json")

SERIES_CHOICES = ("inv-exp", "inv-log", "exp-kernel", "log-kernel")

# ceiling on n for comb --max-n and approx --n: every comb count and n!
# itself up to n = 1000 has at most 2568 digits (1000!), below the
# 4300-digit limit on converting an int to decimal text
DECIMAL_TEXT_MAX_N = 1000

# ceilings that keep one command within a budget of 10 s of wall time;
# the cost grows about as K^5 (the order-2K+1 reversion for coeffs, the
# order-K reversions for series and verify).  Measured at the ceiling on
# a 2-vCPU machine, Python 3.11: coeffs --max 100 took 8.8 s, series
# --which inv-exp --order 220 8.4 s, verify --max 90 8.9 s
COEFFS_MAX_K = 100
SERIES_MAX_ORDER = 220
VERIFY_MAX_K = 90


class _UsageError(Exception):
    """Invalid invocation detected after argparse; mapped to exit code 2."""


def _check_ceiling(option: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise _UsageError(f"{option} must be <= {ceiling}, got {value}")


def _default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return asymptotic.DEFAULT_PRECISION_BITS
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(
            f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirlingexp",
        description="Exact coefficients of the factorial asymptotic expansion, "
        "cross-verified by independent methods.",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write data here instead of stdout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser(
        "coeffs", help="expansion coefficients a_k by one or more methods"
    )
    p_coeffs.add_argument("--max", type=int, default=5, metavar="K")
    p_coeffs.add_argument(
        "--methods",
        nargs="+",
        choices=COEFF_METHODS + ("all",),
        default=["all"],
    )
    p_coeffs.add_argument("--format", choices=FORMATS, default="plain")

    p_series = sub.add_parser(
        "series", help="one of the named series as exact fractions"
    )
    p_series.add_argument("--which", choices=SERIES_CHOICES, required=True)
    p_series.add_argument("--order", type=int, default=6, metavar="K")
    p_series.add_argument("--format", choices=FORMATS, default="plain")

    p_verify = sub.add_parser("verify", help="run the whole identity suite")
    p_verify.add_argument("--max", type=int, default=12, metavar="K")
    p_verify.add_argument(
        "--format", choices=("plain", "json"), default="plain"
    )

    p_approx = sub.add_parser("approx", help="truncated-expansion report for n!")
    p_approx.add_argument("--n", type=int, required=True)
    p_approx.add_argument("--terms", type=int, default=3, metavar="N")
    p_approx.add_argument(
        "--precision-bits",
        type=int,
        default=None,
        help=f"binary precision (default {PRECISION_ENV_VAR} or "
        f"{asymptotic.DEFAULT_PRECISION_BITS})",
    )
    p_approx.add_argument("--format", choices=FORMATS, default="plain")

    p_comb = sub.add_parser(
        "comb", help="restricted partition / permutation count tables"
    )
    p_comb.add_argument("--r", type=int, default=3)
    p_comb.add_argument("--max-n", type=int, default=9)
    p_comb.add_argument(
        "--kind", choices=combinat.KINDS, default="partition"
    )
    p_comb.add_argument("--format", choices=FORMATS, default="plain")

    return parser


@contextlib.contextmanager
def _data_out(output: str | None) -> Iterator[TextIO]:
    """stdout, or the --output file opened for writing and closed after."""
    if output is None:
        yield sys.stdout
    else:
        with open(output, "w", encoding="utf-8") as handle:
            yield handle


def _emit(text: str, output: str | None) -> None:
    with _data_out(output) as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _run_coeffs(args) -> int:
    if args.max < 0:
        raise _UsageError("--max must be >= 0")
    _check_ceiling("--max", args.max, COEFFS_MAX_K)
    methods = COEFF_METHODS if "all" in args.methods else args.methods
    cross = coefficients.verify_all(args.max, methods)
    if args.format == "json":
        payload = {
            "index_max": args.max,
            "agreed": cross.agreed,
            "tables": [t.to_json_dict() for t in cross.tables],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.format == "csv":
        header = ["k"] + [t.method for t in cross.tables] + ["agree"]
        rows = [
            [k]
            + [format_rational(t[k]) for t in cross.tables]
            + ["no" if k in cross.mismatches else "yes"]
            for k in range(args.max + 1)
        ]
        _emit(_csv_text(header, rows), args.output)
    else:
        lines = []
        for k in range(args.max + 1):
            cells = ", ".join(
                f"{t.method}={format_rational(t[k])}" for t in cross.tables
            )
            flag = "MISMATCH" if k in cross.mismatches else "ok"
            lines.append(f"a_{k}: {cells} [{flag}]")
        _emit("\n".join(lines), args.output)
    return 0 if cross.agreed else 1


def _named_series(which: str, order: int) -> TruncatedSeries:
    if which == "inv-exp":
        return coefficients.inverse_series("exp", order)
    if which == "inv-log":
        return coefficients.inverse_series("log", order)
    if which == "exp-kernel":
        return exp_kernel(order)
    return log_kernel(order)


def _run_series(args) -> int:
    min_order = 1 if args.which.startswith("inv") else 0
    if args.order < min_order:
        raise _UsageError(f"--order must be >= {min_order} for {args.which}")
    _check_ceiling("--order", args.order, SERIES_MAX_ORDER)
    series = _named_series(args.which, args.order)
    if args.format == "json":
        payload = {"which": args.which, **series.to_json_dict()}
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.format == "csv":
        rows = [(i, format_rational(c)) for i, c in enumerate(series.coeffs)]
        _emit(_csv_text(["power", "coeff"], rows), args.output)
    else:
        _emit(f"{args.which}(x) = {series}", args.output)
    return 0


def _run_verify(args) -> int:
    if args.max < 3:
        raise _UsageError("--max must be >= 3")
    _check_ceiling("--max", args.max, VERIFY_MAX_K)
    reports = identities.run_all(args.max)
    reports.append(asymptotic.reciprocal_consistency(args.max))
    cross = coefficients.verify_all(args.max)
    ok = all(r.ok for r in reports) and cross.agreed
    if args.format == "json":
        payload = {
            "ok": ok,
            "identities": [r.to_json_dict() for r in reports],
            "cross_check": cross.to_json_dict(),
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = []
        for r in reports:
            status = "ok  " if r.ok else "FAIL"
            lines.append(f"{status} {r.identity} [{r.lo}..{r.hi}]")
        status = "ok  " if cross.agreed else "FAIL"
        lines.append(
            f"{status} coefficient-cross-check [0..{cross.index_max}]"
        )
        _emit("\n".join(lines), args.output)
    if not ok:
        print("identity failure detected", file=sys.stderr)
        return 1
    return 0


def _run_approx(args) -> int:
    _check_ceiling("--n", args.n, DECIMAL_TEXT_MAX_N)
    precision = (
        args.precision_bits
        if args.precision_bits is not None
        else _default_precision()
    )
    try:
        report = asymptotic.approx_factorial(args.n, args.terms, precision)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    d = report.to_json_dict()
    if args.format == "json":
        _emit(json.dumps(d, indent=2), args.output)
    elif args.format == "csv":
        _emit(_csv_text(list(d), [list(d.values())]), args.output)
    else:
        lines = [
            f"n = {d['n']}, terms = {d['terms']}, precision = "
            f"{d['precision_bits']} bits",
            f"approx       = {d['approx']}",
            f"exact        = {d['exact']}",
            f"rel_error    = {d['rel_error']}",
            f"scaled_error = {d['scaled_error']}",
        ]
        _emit("\n".join(lines), args.output)
    return 0


def _write_comb(handle, r: int, rows, fmt: str, kind: str) -> None:
    """Write the table's entries one at a time as the rows arrive.

    Head, line, separator and tail reproduce json.dumps(..., indent=2),
    csv.writer and the plain lines of the whole table byte for byte,
    without building the table or its text.
    """
    head, separator, tail = "", "\n", "\n"
    if fmt == "json":
        head, separator, tail = "[\n", ",\n", "\n]\n"
        line = lambda n, k, value: (
            f'  {{\n    "r": {r},\n    "n": {n},\n    "k": {k},\n'
            f'    "value": "{value}"\n  }}'
        )
    elif fmt == "csv":
        head = "r,n,k,value\n"
        line = lambda n, k, value: f"{r},{n},{k},{value}"
    else:
        line = lambda n, k, value: f"{kind} r={r} n={n} k={k}: {value}"
    handle.write(head)
    lead = ""
    for n, row in enumerate(rows):
        for k, value in enumerate(row):
            handle.write(lead + line(n, k, value))
            lead = separator
    handle.write(tail)


def _run_comb(args) -> int:
    _check_ceiling("--max-n", args.max_n, DECIMAL_TEXT_MAX_N)
    try:
        rows = combinat.comb_table(args.r, args.max_n, args.kind)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    with _data_out(args.output) as handle:
        _write_comb(handle, args.r, rows, args.format, args.kind)
    return 0


_RUNNERS = {
    "coeffs": _run_coeffs,
    "series": _run_series,
    "verify": _run_verify,
    "approx": _run_approx,
    "comb": _run_comb,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
