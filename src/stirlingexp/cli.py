"""Command-line front end.

Subcommands: coeffs (coefficient tables by method with an agreement
column), series (the four named series as exact fractions), verify (the
full identity suite), approx (factorial approximation reports), comb
(restricted partition/permutation tables).

Data goes to stdout or --output; diagnostics go to stderr.  Exit codes:
0 success, 1 identity failure, 2 usage error or data that could not be
written (a closed pipe, a full disk).  Output is deterministic for a
fixed invocation.

A process enters through run(), as python -m stirlingexp.cli and the
installed stirlingexp command both do: it calls main(), freezes the
collector's generations with gc.freeze() and exits with main's code, so
interpreter exit does not spend its final full collections (about
10 ms) on objects that die with the process.  main() itself does not
freeze: in-process callers keep a collector that still finalizes their
cyclic garbage, unclosed files included.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import sys
from collections.abc import Iterator, Sequence

# the parser's choices and defaults come from the package root, and each
# runner imports the layers it runs: comb compiles combinat alone, and
# series and approx never compile combinat.  Where bytecode is not
# cached, coeffs and verify then compile their layers after argparse,
# which raised their peak RSS by 0.20 and 0.14 MB against compiling them
# first (medians of three bench/run.py pairs, Python 3.11.7, one CPU of
# a shared 2-vCPU machine); comb, which compiled coefficients and series
# without running them, fell 5.8% in wall time and 0.40 MB in peak RSS
# (ten pairs)
from . import _MIN_PRECISION_BITS, COEFF_METHODS, DEFAULT_PRECISION_BITS, KINDS

PRECISION_ENV_VAR = "STIRLINGEXP_PRECISION_BITS"

FORMATS = ("plain", "csv", "json")

SERIES_CHOICES = ("inv-exp", "inv-log", "exp-kernel", "log-kernel")

# ceilings that keep one command within a budget of 10 s of wall time;
# the cost grows about as K^4, in series reversion (order 2K+1 for coeffs
# and verify, order K for series and verify's inverse series) and in the
# kernel powers.  Fresh processes at the ceiling, pinned to one CPU of a
# shared 2-vCPU machine, Python 3.11.7, three runs each: coeffs --max 110
# took 2.8-3.1 s, verify --max 110 2.9-3.2 s, and series --order 260
# 1.9-2.0 s (inv-exp) and 2.6-3.0 s (inv-log).  Single runs of
# coeffs --max 120 (8.9 s), series --order 300 (9.2 s) and verify --max
# 120 (9.0 s), timed when these three took 5.2-5.3 s, came too close to
# the budget
COEFFS_MAX_K = 110
SERIES_MAX_ORDER = 260
VERIFY_MAX_K = 110

# ceiling on comb --max-n, for output size and for the 10 s budget above:
# the table has about n^2/(2r) counts of up to 2568 digits (1000!), and
# comb --r 1 --max-n 1000 --format json, stdout to a file and
# PYTHONUNBUFFERED=1, wrote 442 MB in 3.5 s for partitions and 518 MB in
# 3.9 s for derangements (medians of five, pinned to one CPU), at a peak
# RSS of 20.4 and 21.0 MB: the largest row is about 2.6 MB of text.  The
# counts are Decimals, so the int-to-str digit limit does not apply
COMB_MAX_N = 1000

# ceiling on approx --n: the report prints n! as an int, and n! up to
# n = 1000 has at most 2568 digits, below the 4300-digit limit on
# converting an int to decimal text (approx --n 1000 took 0.16 s)
APPROX_MAX_N = 1000

# ceilings on approx --terms and the precision (--precision-bits or its
# environment default), within the 10 s budget above even together.  On
# the machine and day above: approx --n 1000 --terms 600 took 1.2-1.3 s
# (five runs), --precision-bits 262144 1.9-2.1 s (three), both at once
# 2.2-3.0 s (five); approx_factorial(1000, 800, 64) took 7.5 s
# (--precision-bits 1048576 took 24 s, timed earlier)
APPROX_MAX_TERMS = 600
APPROX_MAX_PRECISION_BITS = 262144


class _UsageError(Exception):
    """Invalid invocation detected after argparse; mapped to exit code 2."""


def _check_ceiling(option: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise _UsageError(f"{option} must be <= {ceiling}, got {value}")


def _check_range(option: str, value: int, floor: int, ceiling: int) -> None:
    if value < floor:
        raise _UsageError(f"{option} must be >= {floor}, got {value}")
    _check_ceiling(option, value, ceiling)


def _default_precision() -> int:
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return DEFAULT_PRECISION_BITS
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
    p_coeffs.set_defaults(run=_run_coeffs)

    p_series = sub.add_parser(
        "series", help="one of the named series as exact fractions"
    )
    p_series.add_argument("--which", choices=SERIES_CHOICES, required=True)
    p_series.add_argument("--order", type=int, default=6, metavar="K")
    p_series.add_argument("--format", choices=FORMATS, default="plain")
    p_series.set_defaults(run=_run_series)

    p_verify = sub.add_parser("verify", help="run the whole identity suite")
    p_verify.add_argument("--max", type=int, default=12, metavar="K")
    p_verify.add_argument(
        "--format", choices=("plain", "json"), default="plain"
    )
    p_verify.set_defaults(run=_run_verify)

    p_approx = sub.add_parser("approx", help="truncated-expansion report for n!")
    p_approx.add_argument("--n", type=int, required=True)
    p_approx.add_argument("--terms", type=int, default=3, metavar="N")
    p_approx.add_argument(
        "--precision-bits",
        type=int,
        default=None,
        help=f"binary precision (default {PRECISION_ENV_VAR} or "
        f"{DEFAULT_PRECISION_BITS})",
    )
    p_approx.add_argument("--format", choices=FORMATS, default="plain")
    p_approx.set_defaults(run=_run_approx)

    p_comb = sub.add_parser(
        "comb", help="restricted partition / permutation count tables"
    )
    p_comb.add_argument("--r", type=int, default=3)
    p_comb.add_argument("--max-n", type=int, default=9)
    p_comb.add_argument(
        "--kind", choices=KINDS, default="partition"
    )
    p_comb.add_argument("--format", choices=FORMATS, default="plain")
    p_comb.set_defaults(run=_run_comb)

    return parser


@contextlib.contextmanager
def _data_out(output: str | None) -> Iterator[io.TextIOBase]:
    """stdout, flushed after, or a handle on the --output path.

    A regular file or a new path is written to a temporary file beside
    it (beside a symlink's target), which replaces it when the work
    returns, MISMATCH or not; after an exception the temporary file goes
    and the target keeps its bytes.  A device or a FIFO is written in
    place: a rename would replace the node.  The path is opened after
    the usage checks and before the work, so an unopenable one is a
    usage error (exit 2) before any work, and creates nothing.
    """
    if output is None:
        yield sys.stdout
        sys.stdout.flush()  # a late EPIPE, caught by main, not at exit
        return
    in_place = os.path.exists(output) and not os.path.isfile(output)
    target = output if in_place else os.path.realpath(output)
    temp = target if in_place else f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        if in_place:
            fd = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        else:
            exists = os.path.exists(target)
            if exists:  # as writable as an open in place would need
                os.close(os.open(target, os.O_WRONLY))
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            if exists:  # else the umask sets the new file's mode
                os.chmod(fd, os.stat(target).st_mode & 0o7777)
    except OSError as exc:
        # named by the path given, never by the temporary file
        exc = OSError(exc.errno, exc.strerror, output)
        raise _UsageError(f"cannot open --output: {exc}") from None
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            yield handle
        if not in_place:
            os.replace(temp, target)
    except BaseException:
        if not in_place:
            os.remove(temp)
        raise


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    # no field (an int, a p/q rational, a method or column name, mpmath
    # nstr text) holds a comma, quote or newline, so none needs quoting
    return "\n".join(",".join(map(str, row)) for row in [header, *rows])


def _json_text(payload) -> str:
    # json is loaded here, by a run that prints JSON, and by no other:
    # comb writes its JSON by hand, and the plain and csv text need none
    import json

    return json.dumps(payload, indent=2)


def _run_coeffs(args) -> int:
    if args.max < 0:
        raise _UsageError("--max must be >= 0")
    _check_ceiling("--max", args.max, COEFFS_MAX_K)
    from . import coefficients

    methods = COEFF_METHODS if "all" in args.methods else args.methods
    with _data_out(args.output) as out:
        cross = coefficients.verify_all(args.max, methods)
        if args.format == "json":
            payload = cross.to_json_dict()
            del payload["mismatches"]
            print(_json_text(payload), file=out)
        elif args.format == "csv":
            header = ["k"] + [method for method, _ in cross.tables] + ["agree"]
            rows = [
                [k]
                + [values[k] for _, values in cross.tables]
                + ["no" if k in cross.mismatches else "yes"]
                for k in range(args.max + 1)
            ]
            print(_csv_text(header, rows), file=out)
        else:
            lines = []
            for k in range(args.max + 1):
                cells = ", ".join(
                    f"{method}={values[k]}" for method, values in cross.tables
                )
                flag = "MISMATCH" if k in cross.mismatches else "ok"
                lines.append(f"a_{k}: {cells} [{flag}]")
            print("\n".join(lines), file=out)
    return 0 if cross.agreed else 1


def _run_series(args) -> int:
    min_order = 1 if args.which.startswith("inv") else 0
    if args.order < min_order:
        raise _UsageError(f"--order must be >= {min_order} for {args.which}")
    _check_ceiling("--order", args.order, SERIES_MAX_ORDER)
    head, tail = args.which.split("-")
    from . import coefficients

    with _data_out(args.output) as out:
        if head == "inv":
            series = coefficients.inverse_series(tail, args.order)
        else:
            series = coefficients.kernel(head, args.order)
        if args.format == "json":
            payload = {"which": args.which, **series.to_json_dict()}
            print(_json_text(payload), file=out)
        elif args.format == "csv":
            rows = list(enumerate(series.coeffs))
            print(_csv_text(["power", "coeff"], rows), file=out)
        else:
            print(f"{args.which}(x) = {series}", file=out)
    return 0


def _run_verify(args) -> int:
    if args.max < 3:
        raise _UsageError("--max must be >= 3")
    _check_ceiling("--max", args.max, VERIFY_MAX_K)
    from . import coefficients, identities

    with _data_out(args.output) as out:
        reports = identities.run_all(args.max)
        cross = coefficients.verify_all(args.max)
        ok = all(r.ok for r in reports) and cross.agreed
        if args.format == "json":
            payload = {
                "ok": ok,
                "identities": [r.to_json_dict() for r in reports],
                "cross_check": cross.to_json_dict(),
            }
            print(_json_text(payload), file=out)
        else:
            lines = []
            for r in reports:
                status = "ok  " if r.ok else "FAIL"
                lines.append(f"{status} {r.identity} [{r.lo}..{r.hi}]")
            status = "ok  " if cross.agreed else "FAIL"
            lines.append(
                f"{status} coefficient-cross-check [0..{cross.index_max}]"
            )
            print("\n".join(lines), file=out)
    if not ok:
        print("identity failure detected", file=sys.stderr)
        return 1
    return 0


def _run_approx(args) -> int:
    _check_range("--n", args.n, 1, APPROX_MAX_N)
    _check_range("--terms", args.terms, 0, APPROX_MAX_TERMS)
    if args.precision_bits is None:
        option, precision = PRECISION_ENV_VAR, _default_precision()
    else:
        option, precision = "--precision-bits", args.precision_bits
    _check_range(
        option, precision, _MIN_PRECISION_BITS, APPROX_MAX_PRECISION_BITS
    )
    # the only command that needs mpmath, so the only one that imports
    # asymptotic, whose approx_factorial loads it after the exact layers
    # (asymptotic's docstring says why)
    from . import asymptotic

    with _data_out(args.output) as out:
        report = asymptotic.approx_factorial(args.n, args.terms, precision)
        d = report.to_json_dict()
        if args.format == "json":
            print(_json_text(d), file=out)
        elif args.format == "csv":
            print(_csv_text(list(d), [list(d.values())]), file=out)
        else:
            lines = [
                f"n = {d['n']}, terms = {d['terms']}, precision = "
                f"{d['precision_bits']} bits",
                f"approx       = {d['approx']}",
                f"exact        = {d['exact']}",
                f"rel_error    = {d['rel_error']}",
                f"scaled_error = {d['scaled_error']}",
            ]
            print("\n".join(lines), file=out)
    return 0


def _write_comb(handle, r: int, rows, fmt: str, kind: str) -> None:
    """Write the table one row at a time, with one write per row.

    Head, line, separator and tail reproduce json.dumps(..., indent=2),
    csv.writer and the plain lines of the whole table byte for byte.
    A line is the row's prefix (r, n and the format's text up to k),
    then k, a fixed middle, the count and a fixed end; the prefix is
    built once per row, so each count pays one f-string of its own
    fields.  Each row's text is built whole and written as soon as the
    row is computed, so neither the table nor its text is ever held
    whole, and a write-through stream (python -u) makes one system call
    per row, not one per count.
    """
    head, separator, tail = "", "\n", "\n"
    if fmt == "json":
        head, separator, tail = "[\n", ",\n", "\n]\n"
        before_n, before_k = f'  {{\n    "r": {r},\n    "n": ', ',\n    "k": '
        mid, end = ',\n    "value": "', '"\n  }'
    elif fmt == "csv":
        head = "r,n,k,value\n"
        before_n, before_k, mid, end = f"{r},", ",", ",", ""
    else:
        before_n, before_k, mid, end = f"{kind} r={r} n=", " k=", ": ", ""
    handle.write(head)
    parts = []
    for n, row in enumerate(rows):
        prefix = f"{before_n}{n}{before_k}"
        parts += [f"{prefix}{k}{mid}{value!s}{end}" for k, value in enumerate(row)]
        handle.write(separator.join(parts))
        # an empty first part puts the separator ahead of the next row
        # without a second copy of its text
        parts = [""]
    handle.write(tail)


def _run_comb(args) -> int:
    if args.max_n < 0:
        raise _UsageError("--max-n must be >= 0")
    _check_ceiling("--max-n", args.max_n, COMB_MAX_N)
    from . import combinat

    try:
        rows = combinat.comb_table(args.r, args.max_n, args.kind)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    with _data_out(args.output) as handle:
        _write_comb(handle, args.r, rows, args.format, args.kind)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    # the parser is dropped before the runner compiles its layers
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a closed pipe or a full disk
        if isinstance(exc, BrokenPipeError) and args.output is None:
            # stdout's buffer empties into os.devnull at exit (signal docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a route's own self-check failed (the inverse table's reversion
        # against its recurrence); a subclass such as ZeroDivisionError
        # is a bug and propagates
        if type(exc) is not ArithmeticError:
            raise
        print(f"identity failure detected: {exc}", file=sys.stderr)
        return 1


def run():
    """The process entry: main(), then exit without collecting the heap.

    Never returns.  Unlike os._exit, sys.exit still runs the atexit
    handlers and the interpreter's last flush of stdout.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
