"""Regenerate bench/reference.json, the answers the benchmark checks against.

The reference is computed here with code of its own, so that the
benchmark never takes its expected values from the package it measures:

  * a_0 .. a_A_MAX by exponentiating the log-gamma correction series
    sum_m B_2m / (2m (2m-1)) x^(2m-1), with Bernoulli numbers from the
    Akiyama-Tanigawa algorithm; a_0 .. a_9 must equal the published
    values (OEIS A001163 / A001164);
  * SHA-256 digests of every restricted partition / permutation count
    table the comb workload requests, from iterative row tables.

Run from the repository root:  python3 bench/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# a_k with k <= A_MAX is checked exactly; the numeric workload uses up to 80
A_MAX = 100

# (r, max_n, kind) for every comb table the benchmark requests
COMB_TABLES = [
    (3, n, kind)
    for n in (12, 500)
    for kind in ("partition", "derangement")
]

PUBLISHED_A = (
    "1",
    "1/12",
    "1/288",
    "-139/51840",
    "-571/2488320",
    "163879/209018880",
    "5246819/75246796800",
    "-534703531/902961561600",
    "-4483131259/86684309913600",
    "432261921612371/514904800886784000",
)


def bernoulli_numbers(m_max: int) -> list[Fraction]:
    """B_0 .. B_m_max by Akiyama-Tanigawa (B_1 = +1/2; only even ones are used)."""
    out = []
    row: list[Fraction] = []
    for m in range(m_max + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def stirling_coefficients(k_max: int) -> list[Fraction]:
    """a_0 .. a_k_max as [x^k] exp(sum_m B_2m/(2m(2m-1)) x^(2m-1))."""
    bern = bernoulli_numbers(k_max + 1)
    g = [Fraction(0)] * (k_max + 1)
    for m in range(1, k_max // 2 + 2):
        if 2 * m - 1 <= k_max:
            g[2 * m - 1] = bern[2 * m] / (2 * m * (2 * m - 1))
    # E' = g' E  gives  n E_n = sum_{j=1..n} j g_j E_{n-j}
    e = [Fraction(1)]
    for n in range(1, k_max + 1):
        e.append(sum((j * g[j] * e[n - j] for j in range(1, n + 1)), Fraction(0)) / n)
    return e


def count_table(r: int, max_n: int, kind: str) -> list[list[int]]:
    """rows[n][k]: partitions into k blocks / permutations with k cycles, all >= r."""
    rows = [[1]]
    for n in range(1, max_n + 1):
        row = [0] * (n // r + 1)
        for k in range(1, n // r + 1):
            if kind == "partition":
                grow = k * rows[n - 1][k] if k < len(rows[n - 1]) else 0
                new = math.comb(n - 1, r - 1) * rows[n - r][k - 1]
            else:
                grow = (n - 1) * rows[n - 1][k] if k < len(rows[n - 1]) else 0
                new = (
                    math.comb(n - 1, r - 1)
                    * math.factorial(r - 1)
                    * rows[n - r][k - 1]
                )
            row[k] = grow + new
        rows.append(row)
    return rows


def table_digest(rows: list[list[int]]) -> str:
    """Digest of the lines 'n k value' in table order (the checker's form)."""
    digest = hashlib.sha256()
    for n, row in enumerate(rows):
        for k, value in enumerate(row):
            digest.update(f"{n} {k} {value}\n".encode("ascii"))
    return digest.hexdigest()


def build() -> dict:
    coeffs = stirling_coefficients(A_MAX)
    head = tuple(str(c) for c in coeffs[: len(PUBLISHED_A)])
    if head != PUBLISHED_A:
        raise ArithmeticError(f"generated a_0..a_9 {head} differ from the published values")
    comb = {}
    for r, max_n, kind in COMB_TABLES:
        rows = count_table(r, max_n, kind)
        comb[f"{r}:{max_n}:{kind}"] = {
            "rows": sum(len(row) for row in rows),
            "sha256": table_digest(rows),
        }
    return {"a": [str(c) for c in coeffs], "comb": comb}


if __name__ == "__main__":
    REFERENCE_PATH.write_text(json.dumps(build(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
