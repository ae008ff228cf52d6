"""Entry point of one benchmark operation, run in a fresh interpreter.

    python child.py cli TRACE OP_ID ARG...    cli.main(ARG...) with tracing
    python child.py numeric TRACE OP_ID SPEC  a library session (SPEC is JSON)

TRACE is the span file to write, or "-" for an untraced run.  An
untraced cli operation does not come here: run.py starts
``python -m stirlingexp.cli`` directly, exactly as a user would.

A numeric session is a JSON list of calls, run in order:
    ["quadrature", n, bits]   stirling_ratio_quadrature(n, bits)
    ["evq", n, terms, bits]   expansion_vs_quadrature(n, terms, bits)
    ["approx", n, terms, bits] approx_factorial(n, terms, bits)
Results go to stdout as JSON, each mpf as its exact (mantissa, exponent).
"""

from __future__ import annotations

import json
import sys


def _exact(value) -> list[int]:
    man, exp = value.man_exp
    return [int(man), int(exp)]


def run_session(calls: list) -> None:
    """Run the calls in order and print their results as one JSON list."""
    from stirlingexp import asymptotic

    results = []
    for call in calls:
        kind = call[0]
        if kind == "quadrature":
            n, bits = call[1:]
            value = asymptotic.stirling_ratio_quadrature(n, bits)
            results.append({"ratio": _exact(value)})
        elif kind == "evq":
            n, terms, bits = call[1:]
            ratio, series_value = asymptotic.expansion_vs_quadrature(n, terms, bits)
            results.append({"ratio": _exact(ratio), "series": _exact(series_value)})
        elif kind == "approx":
            n, terms, bits = call[1:]
            report = asymptotic.approx_factorial(n, terms, bits)
            results.append(
                {
                    "approx": _exact(report.approx),
                    "exact": str(report.exact),
                    "rel_error": _exact(report.rel_error),
                }
            )
        else:
            raise ValueError(f"unknown session call {kind!r}")
    json.dump(results, sys.stdout)
    sys.stdout.write("\n")


def main(argv: list[str]) -> int:
    mode, trace_path, op_id, rest = argv[0], argv[1], int(argv[2]), argv[3:]
    tracer = None
    if trace_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer(op_id)
        tracing.install(tracer)
    try:
        if mode == "cli":
            from stirlingexp import cli

            return cli.main(rest)
        session = run_session
        if tracer is not None:
            session = tracer.wrap(run_session, "session.run")
        session(json.loads(rest[0]))
        return 0
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
