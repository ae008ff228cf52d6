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


class _UsageError(Exception):
    """Invalid invocation detected after argparse; mapped to exit code 2."""


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
    p_verify.add_argument("--format", choices=FORMATS, default="plain")

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
    methods = list(COEFF_METHODS) if "all" in args.methods else args.methods
    tables = [coefficients.coefficient_table(m, args.max) for m in methods]
    agreement = [
        len({t[k] for t in tables}) == 1 for k in range(args.max + 1)
    ]
    if args.format == "json":
        payload = {
            "index_max": args.max,
            "agreed": all(agreement),
            "tables": [t.to_json_dict() for t in tables],
        }
        _emit(json.dumps(payload, indent=2), args.output)
    elif args.format == "csv":
        header = ["k"] + [t.method for t in tables] + ["agree"]
        rows = [
            [k]
            + [format_rational(t[k]) for t in tables]
            + ["yes" if agreement[k] else "no"]
            for k in range(args.max + 1)
        ]
        _emit(_csv_text(header, rows), args.output)
    else:
        lines = []
        for k in range(args.max + 1):
            cells = ", ".join(
                f"{t.method}={format_rational(t[k])}" for t in tables
            )
            flag = "ok" if agreement[k] else "MISMATCH"
            lines.append(f"a_{k}: {cells} [{flag}]")
        _emit("\n".join(lines), args.output)
    return 0 if all(agreement) else 1


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
    if args.n > DECIMAL_TEXT_MAX_N:
        raise _UsageError(f"--n must be <= {DECIMAL_TEXT_MAX_N}, got {args.n}")
    precision = (
        args.precision_bits
        if args.precision_bits is not None
        else _default_precision()
    )
    try:
        report = asymptotic.approx_factorial(args.n, args.terms, precision)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2), args.output)
    elif args.format == "csv":
        header = [
            "n",
            "terms",
            "precision_bits",
            "approx",
            "exact",
            "rel_error",
            "scaled_error",
        ]
        _emit(_csv_text(header, [report.to_csv_row()]), args.output)
    else:
        d = report.to_json_dict()
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


def _write_comb(handle, entries, fmt: str, kind: str) -> None:
    """Write comb entries one at a time as the iterator yields them.

    Head, line, separator and tail reproduce json.dumps(..., indent=2),
    csv.writer and the plain lines of the whole table byte for byte,
    without building the table or its text.
    """
    head, separator, tail = "", "\n", "\n"
    if fmt == "json":
        head, separator, tail = "[\n", ",\n", "\n]\n"
        line = lambda e: (
            f'  {{\n    "r": {e.r},\n    "n": {e.n},\n    "k": {e.k},\n'
            f'    "value": "{e.value}"\n  }}'
        )
    elif fmt == "csv":
        head = "r,n,k,value\n"
        line = lambda e: f"{e.r},{e.n},{e.k},{e.value}"
    else:
        line = lambda e: f"{kind} r={e.r} n={e.n} k={e.k}: {e.value}"
    handle.write(head)
    lead = ""
    for entry in entries:
        handle.write(lead + line(entry))
        lead = separator
    handle.write(tail)


def _run_comb(args) -> int:
    if args.max_n > DECIMAL_TEXT_MAX_N:
        raise _UsageError(
            f"--max-n must be <= {DECIMAL_TEXT_MAX_N}, got {args.max_n}"
        )
    try:
        entries = combinat.comb_table(args.r, args.max_n, args.kind)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    with _data_out(args.output) as handle:
        _write_comb(handle, entries, args.format, args.kind)
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
