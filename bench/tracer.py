"""Spans around the calls into each stirlingexp module, installed from outside.

install() replaces the public functions of cli, coefficients, identities,
asymptotic, series and combinat with wrappers that record one span per
call: (span id, parent span id, name, start ns, end ns, operation id).
Spans stay in memory; dump() writes them, with a few sums and maxima
read from arguments and results, to one JSON file when the operation
ends.  Nothing is written to stdout and nothing under src/ changes.

A wrapped function is rebound everywhere the package holds a reference
to it: in its own module, in every module that imported it with
``from .x import y``, and in module-level dispatch tables such as
coefficients._METHOD_FUNCS.  A name missing from the package is skipped,
so a later refactor that drops a helper does not break the traced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

import stirlingexp
from stirlingexp import asymptotic, cli, coefficients, combinat, identities, series

MODULES = (stirlingexp, cli, coefficients, identities, asymptotic, series, combinat)

# (module, attribute, span name); a "{}" in the name is filled with the
# call's first argument
FUNCTIONS = (
    (cli, "main", "cli.main"),
    (coefficients, "coefficient_table", "coefficients.{}"),
    (coefficients, "inverse_series", "coefficients.inverse_series"),
    (coefficients, "expansion_coefficients", "coefficients.expansion_coefficients"),
    (coefficients, "verify_all", "coefficients.verify_all"),
    (coefficients, "coeff_via_exp_kernel", "coefficients.coeff_via_exp_kernel"),
    (coefficients, "coeff_via_log_kernel", "coefficients.coeff_via_log_kernel"),
    (coefficients, "coeff_via_partition_sum", "coefficients.coeff_via_partition_sum"),
    (coefficients, "coeff_via_derangement_sum", "coefficients.coeff_via_derangement_sum"),
    (coefficients, "coeff_via_bernoulli", "coefficients.coeff_via_bernoulli"),
    (coefficients, "coeff_from_inverse_table", "coefficients.coeff_from_inverse_table"),
    (coefficients, "inverse_egf_by_reversion", "coefficients.inverse_egf_by_reversion"),
    (coefficients, "inverse_egf_by_lagrange", "coefficients.inverse_egf_by_lagrange"),
    (coefficients, "inverse_egf_by_recurrence", "coefficients.inverse_egf_by_recurrence"),
    (identities, "check_sum_identity", "identities.sum_identity"),
    (identities, "check_generalized_sum_identity", "identities.generalized_sum"),
    (identities, "check_inverse_difference", "identities.inverse_difference"),
    (identities, "check_implicit_equations", "identities.implicit"),
    (identities, "check_differential_equations", "identities.diffeq"),
    (identities, "check_derivative_vs_partition_sum", "identities.derivative_vs_partition_sum"),
    (identities, "run_all", "identities.run_all"),
    (identities, "generalized_partition_sum", "identities.generalized_partition_sum"),
    (identities, "generalized_derangement_sum", "identities.generalized_derangement_sum"),
    (identities, "report_from_pairs", "identities.report_from_pairs"),
    (asymptotic, "stirling_ratio_quadrature", "asymptotic.quadrature"),
    (asymptotic, "composite_gauss", "asymptotic.composite_gauss"),
    (asymptotic, "approx_factorial", "asymptotic.approx"),
    (asymptotic, "reciprocal_consistency", "asymptotic.reciprocal"),
    (asymptotic, "expansion_vs_quadrature", "asymptotic.expansion_vs_quadrature"),
    (asymptotic, "stirling_ratio_exact", "asymptotic.stirling_ratio_exact"),
    (series, "exp_kernel", "series.exp_kernel"),
    (series, "log_kernel", "series.log_kernel"),
    (combinat, "stirling2_assoc", "combinat.assoc"),
    (combinat, "derangement_assoc", "combinat.assoc"),
    (combinat, "comb_table", "combinat.comb_table"),
    (combinat, "bernoulli", "combinat.bernoulli"),
    (combinat, "stirling2_from_series", "combinat.stirling2_from_series"),
    (combinat, "derangement_from_series", "combinat.derangement_from_series"),
    (combinat, "enumerate_oracle", "combinat.enumerate_oracle"),
)

# TruncatedSeries methods; __rmul__ is the same operation as __mul__
SERIES_METHODS = (
    ("__mul__", "series.mul"),
    ("__rmul__", "series.mul"),
    ("__pow__", "series.pow"),
    ("__truediv__", "series.truediv"),
    ("inverse", "series.inverse"),
    ("exp", "series.exp"),
    ("log1p", "series.log1p"),
    ("power_rational", "series.power_rational"),
    ("reversion", "series.reversion"),
    ("compose", "series.compose"),
)


# checks whose reports count toward identities.indices_checked
CHECK_SPANS = frozenset(
    (
        "identities.sum_identity",
        "identities.generalized_sum",
        "identities.inverse_difference",
        "identities.implicit",
        "identities.diffeq",
        "identities.derivative_vs_partition_sum",
    )
)


def _coeff_bits(result) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coeffs),
        default=0,
    )


def _report_indices(result) -> int:
    reports = result if isinstance(result, list) else [result]
    return sum(r.hi - r.lo + 1 for r in reports)


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[tuple] = []
        self.sums: dict[str, int] = defaultdict(int)
        self.maxes: dict[str, int] = defaultdict(int)
        self._stack = [0]
        self._next_id = 1

    def wrap(self, func, name: str):
        """A function that runs func inside a span called name."""
        templated = "{" in name
        observe = self._observer(name, func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = name
            if templated:
                span_name = name.format(args[0] if args else next(iter(kwargs.values())))
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.monotonic_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, span_name, start, end, self.op_id))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _max(self, key: str, value: int) -> None:
        self.maxes[key] = max(self.maxes[key], value)

    def _observer(self, name: str, func):
        """What a span of this name records from its arguments or result."""
        if name.startswith("series."):
            def observe(args, kwargs, result):
                if isinstance(result, series.TruncatedSeries):
                    self._max("series.max_coeff_bits", _coeff_bits(result))
            return observe
        if name == "combinat.assoc":
            def observe(args, kwargs, result):
                self._max("combinat.max_value_bits", result.bit_length())
            return observe
        if name == "coefficients.inverse_series":
            signature = inspect.signature(func)
            def observe(args, kwargs, result):
                order = signature.bind(*args, **kwargs).arguments["order"]
                self._max("coefficients.inverse_series_max_order", order)
            return observe
        if name == "asymptotic.composite_gauss":
            signature = inspect.signature(func)
            def observe(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                evals = bound.arguments["panels"] * bound.arguments["points"]
                self.sums["asymptotic.integrand_evals"] += evals
            return observe
        if name in CHECK_SPANS:
            def observe(args, kwargs, result):
                self.sums["identities.indices_checked"] += _report_indices(result)
            return observe
        return None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "op": self.op_id,
                    "spans": self.spans,
                    "sums": dict(self.sums),
                    "maxes": dict(self.maxes),
                },
                handle,
            )


def install(tracer: Tracer) -> None:
    """Wrap every listed function and rebind each reference the package holds."""
    wrappers: dict[int, object] = {}
    for module, attr, name in FUNCTIONS:
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(original, name)
        wrappers[id(original)] = wrapper
        setattr(module, attr, wrapper)
    cls = series.TruncatedSeries
    for attr, name in SERIES_METHODS:
        original = cls.__dict__.get(attr)
        if original is not None:
            setattr(cls, attr, tracer.wrap(original, name))
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        value[key] = wrappers[id(item)]
