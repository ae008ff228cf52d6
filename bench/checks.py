"""Output checks for every benchmark operation.

Every expected value comes from bench/reference.json (written by
make_reference.py with code of its own) or is computed here with mpmath
and math.factorial; none is produced by the package under test.  A check
raises CheckFailed with a short reason, or returns a dict of coverage
counts read from the output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
from mpmath import mp

from make_reference import PUBLISHED_A

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class CheckFailed(Exception):
    """An operation's output does not match the reference."""


@lru_cache(maxsize=None)
def reference() -> dict:
    data = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if tuple(data["a"][: len(PUBLISHED_A)]) != PUBLISHED_A:
        raise ValueError(f"{REFERENCE_PATH} disagrees with the published a_0..a_9")
    data["a"] = [Fraction(v) for v in data["a"]]
    return data


def expansion(k_max: int) -> list[Fraction]:
    """Reference a_0 .. a_k_max."""
    a = reference()["a"]
    if k_max >= len(a):
        raise ValueError(f"reference table stops at a_{len(a) - 1}; rerun make_reference.py")
    return a[: k_max + 1]


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _compare_table(method: str, values: list[str], k_max: int) -> None:
    expected = expansion(k_max)
    _require(len(values) == k_max + 1, f"{method}: {len(values)} values, expected {k_max + 1}")
    for k, (text, want) in enumerate(zip(values, expected)):
        _require(Fraction(text) == want, f"{method}: a_{k} = {text}, expected {want}")


def check_coeffs(out: str, fmt: str, k_max: int, methods: list[str]) -> dict:
    """coeffs --max k_max: every method's table equals the reference."""
    if fmt == "json":
        payload = json.loads(out)
        _require(payload["index_max"] == k_max, f"index_max {payload['index_max']} != {k_max}")
        _require(payload["agreed"] is True, "agreed is not true")
        tables = {t["method"]: t["values"] for t in payload["tables"]}
        _require(list(tables) == methods, f"methods {list(tables)} != {methods}")
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        _require(rows[0] == ["k", *methods, "agree"], f"csv header {rows[0]}")
        _require(all(row[-1] == "yes" for row in rows[1:]), "a row does not agree")
        tables = {m: [row[i + 1] for row in rows[1:]] for i, m in enumerate(methods)}
    else:
        lines = out.splitlines()
        tables = {m: [] for m in methods}
        for k, line in enumerate(lines):
            head, _, rest = line.partition(": ")
            _require(head == f"a_{k}", f"line {k} starts {head!r}")
            _require(rest.endswith(" [ok]"), f"a_{k} not flagged ok")
            cells = rest[: -len(" [ok]")].split(", ")
            _require([c.split("=")[0] for c in cells] == methods, f"a_{k} methods differ")
            for cell in cells:
                method, value = cell.split("=")
                tables[method].append(value)
    for method, values in tables.items():
        _compare_table(method, values, k_max)
    return {}


_VERIFY_LINE = re.compile(r"(ok  |FAIL) (\S+) \[(\d+)\.\.(\d+)\]$")


def check_verify(out: str, fmt: str, k_max: int) -> dict:
    """verify --max k_max: ok, no failure witnesses, cross-check equals the reference."""
    if fmt == "json":
        payload = json.loads(out)
        _require(payload["ok"] is True, "ok is not true")
        reports = payload["identities"]
        _require(len(reports) > 0, "no identity reports")
        for report in reports:
            _require(report["failures"] == [], f"{report['identity']} has failures")
        cross = payload["cross_check"]
        _require(cross["agreed"] is True and cross["mismatches"] == [], "cross-check disagrees")
        for table in cross["tables"]:
            _compare_table(table["method"], table["values"], cross["index_max"])
        return {"coefficients.verify_all_max_k": cross["index_max"]}
    lines = [_VERIFY_LINE.match(line) for line in out.splitlines()]
    _require(len(lines) > 1 and all(lines), "unparsable verify output")
    _require(all(m.group(1) == "ok  " for m in lines), "a check reports FAIL")
    last = lines[-1]
    _require(last.group(2) == "coefficient-cross-check", "no cross-check line")
    return {"coefficients.verify_all_max_k": int(last.group(4))}


def _comb_rows(out: str, fmt: str, kind: str):
    """(r, n, k, value) for each row, every field kept as decimal text."""
    if fmt == "json":
        for row in json.loads(out):
            yield str(row["r"]), str(row["n"]), str(row["k"]), row["value"]
        return
    lines = out.splitlines()
    if fmt == "csv":
        _require(lines[0] == "r,n,k,value", "csv header")
        for line in lines[1:]:
            yield line.split(",")
        return
    prefix = f"{kind} r="
    for line in lines:
        _require(line.startswith(prefix), f"bad line {line[:60]!r}")
        r, n, k, value = line[len(prefix):].split(" ")
        _require(n.startswith("n=") and k.startswith("k=") and k.endswith(":"), f"bad line {line[:60]!r}")
        yield r, n[2:], k[2:-1], value


def check_comb(out: str, fmt: str, r: int, max_n: int, kind: str) -> dict:
    """comb --r r --max-n max_n --kind kind: rows hash to the reference digest."""
    want = reference()["comb"].get(f"{r}:{max_n}:{kind}")
    if want is None:
        raise ValueError(f"no reference for comb r={r} max_n={max_n} {kind}")
    lines = []
    for row_r, n, k, value in _comb_rows(out, fmt, kind):
        _require(row_r == str(r), f"row with r={row_r}")
        lines.append(f"{n} {k} {value}\n")
    _require(len(lines) == want["rows"], f"{len(lines)} rows, expected {want['rows']}")
    digest = hashlib.sha256("".join(lines).encode("ascii")).hexdigest()
    _require(digest == want["sha256"], "counts differ from the reference")
    return {}


def _mpf(pair: list[int]) -> mpmath.mpf:
    return mpmath.mpf((pair[0], pair[1]))


def _ratio(n: int, bits: int) -> mpmath.mpf:
    """sqrt(2 pi n) e^-n n^n / n!, well beyond the requested precision."""
    with mp.workprec(bits + 64):
        return mp.sqrt(2 * mp.pi * n) * mp.exp(-n) * mp.mpf(n) ** n / math.factorial(n)


def _tail(n: int, terms: int, sign: int) -> Fraction:
    return sum((sign**k * a / Fraction(n**k) for k, a in enumerate(expansion(terms))), Fraction(0))


def check_numeric(out: str, calls: list) -> dict:
    """A library session: quadrature within 2^-(bits/2) of the true ratio,
    series sums and factorial approximations equal to the reference."""
    results = json.loads(out)
    _require(len(results) == len(calls), f"{len(results)} results for {len(calls)} calls")
    for call, result in zip(calls, results):
        kind, n, bits = call[0], call[1], call[-1]
        with mp.workprec(bits + 64):
            if kind in ("quadrature", "evq"):
                error = abs(_ratio(n, bits) - _mpf(result["ratio"]))
                _require(error <= mp.mpf(2) ** -(bits // 2), f"quadrature n={n} off by {error}")
            if kind == "evq":
                tail = _tail(n, call[2], -1)
                want = mp.mpf(tail.numerator) / tail.denominator
                error = abs(want - _mpf(result["series"]))
                _require(error <= mp.mpf(2) ** -(bits - 4), f"series sum n={n} off by {error}")
            if kind == "approx":
                exact = math.factorial(n)
                _require(result["exact"] == str(exact), f"exact {n}! differs")
                tail = _tail(n, call[2], 1)
                prefactor = mp.sqrt(2 * mp.pi * n) * mp.exp(-n) * mp.mpf(n) ** n
                want = prefactor * tail.numerator / tail.denominator
                got = _mpf(result["approx"])
                _require(abs(got - want) <= abs(want) * mp.mpf(2) ** -(bits - 8), f"approx n={n} off")
                rel = abs(want - exact) / exact
                got_rel = _mpf(result["rel_error"])
                _require(abs(got_rel - rel) <= rel * mp.mpf(2) ** -32, f"rel_error n={n} off")
    return {}
