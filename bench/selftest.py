"""Self-tests of the benchmark; kept out of the package's test suite.

    python3 bench/selftest.py

A tiny-size run of every workload, untraced and traced; the per-operation
time accounting of a traced run; the checker catching an altered a_k and
a perturbed quadrature value, both counted as failed; and the reference
generator against the published values and brute-force enumeration.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from itertools import permutations
from pathlib import Path

import mpmath

import checks
import make_reference
import run

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def run_bench(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload]
    argv += ["--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRun(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            names = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, names)

    def test_refuses_to_run_without_sources(self):
        run.RUN_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
            bare = Path(tmp)
            (bare / "bench").mkdir()
            for path in run.BENCH.iterdir():
                if path.is_file():
                    (bare / "bench" / path.name).write_bytes(path.read_bytes())
            (bare / "BENCHMARK.json").write_bytes(BENCHMARK_JSON.read_bytes())
            argv = [sys.executable, "bench/run.py", "--workload", "coeffs", "--seed", "1"]
            proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


class TracedAccounting(unittest.TestCase):
    def test_layer_self_times_and_interp_add_up_to_wall(self):
        ops = run.coeffs_deck(run.random.Random(1), tiny=True) + run.numeric_deck(
            run.random.Random(1), tiny=True
        )
        run.RUN_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp, run.Launcher(Path(tmp)) as launcher:
            for op_id, op in enumerate(ops):
                outcome = run.execute(op, launcher, 60, Path(tmp) / "spans.json", op_id)
                self.assertIsNone(outcome.error)
                layers = outcome.layers
                total = layers["cli.interp_s"] + layers["cli.exit_s"]
                total += sum(layers.get(f"{layer}.self_s", 0) for layer in run.LAYERS)
                self.assertAlmostEqual(total, outcome.wall_s, delta=1e-6)
                self.assertGreater(layers["cli.interp_s"], 0)


class SpeedScaling(unittest.TestCase):
    def test_samples_are_scaled_by_the_calibrations_around_them(self):
        ref = run.CALIB_REF_S
        got = run.at_reference_speed([1.0, 3.0], [ref, ref, 3 * ref])
        self.assertEqual(len(got), 2)
        self.assertAlmostEqual(got[0], 1.0)
        self.assertAlmostEqual(got[1], 1.5)


def altered_a3(out: str) -> str:
    payload = json.loads(out)
    payload["tables"][0]["values"][3] = "-139/51841"
    return json.dumps(payload)


def perturbed_ratio(out: str) -> str:
    results = json.loads(out)
    with mpmath.mp.workprec(200):
        ratio = mpmath.mpf(tuple(results[0]["ratio"]))
        ratio *= 1 + mpmath.mpf(2) ** -30
        results[0]["ratio"] = [int(x) for x in ratio.man_exp]
    return json.dumps(results)


class CheckerCatchesBadOutput(unittest.TestCase):
    def test_altered_coefficient_and_quadrature_count_as_failed(self):
        calls = [["quadrature", 3, 64]]
        good = run.Op("cli", ["coeffs", "--max", "4", "--format", "json"], None)
        good.check = lambda out: checks.check_coeffs(out, "json", 4, list(run.COEFF_METHODS))
        bad_a = run.Op("cli", good.args, lambda out: good.check(altered_a3(out)))
        quad = run.Op("numeric", [json.dumps(calls)], None)
        bad_quad = run.Op(
            "numeric", quad.args, lambda out: checks.check_numeric(perturbed_ratio(out), calls)
        )
        original = run.DECKS["coeffs"]
        run.DECKS["coeffs"] = lambda rng, tiny: [good, bad_a, bad_quad]
        try:
            result = run.run_workload("coeffs", seed=1, seconds=0, trace=False, tiny=True)
        finally:
            run.DECKS["coeffs"] = original
        summary = run.result_json(result)
        self.assertEqual((summary["attempted"], summary["failed"]), (3, 2))
        self.assertFalse(summary["correct"])
        self.assertTrue(any("a_3" in e for e in result.errors))
        self.assertTrue(any("quadrature n=3" in e for e in result.errors))

    def test_unaltered_outputs_pass(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stirlingexp.cli", "coeffs", "--max", "4", "--format", "json"],
            cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True, check=True,
        )
        checks.check_coeffs(proc.stdout, "json", 4, list(run.COEFF_METHODS))
        with self.assertRaises(checks.CheckFailed):
            checks.check_coeffs(altered_a3(proc.stdout), "json", 4, list(run.COEFF_METHODS))


class ReferenceGenerator(unittest.TestCase):
    def test_stored_reference_is_what_the_generator_writes(self):
        self.assertEqual(json.loads(checks.REFERENCE_PATH.read_text()), make_reference.build())

    def test_count_tables_match_brute_force(self):
        for n in range(9):
            parts = [0] * (n // 3 + 1)
            for blocks in _set_partitions(list(range(n))):
                if all(len(b) >= 3 for b in blocks):
                    parts[len(blocks)] += 1
            self.assertEqual(make_reference.count_table(3, n, "partition")[n], parts)
            cycles = [0] * (n // 3 + 1)
            for perm in permutations(range(n)):
                lengths = _cycle_lengths(perm)
                if all(length >= 3 for length in lengths):
                    cycles[len(lengths)] += 1
            self.assertEqual(make_reference.count_table(3, n, "derangement")[n], cycles)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[first], *partition]
        for i in range(len(partition)):
            yield partition[:i] + [[first, *partition[i]]] + partition[i + 1 :]


def _cycle_lengths(perm):
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


if __name__ == "__main__":
    unittest.main()
