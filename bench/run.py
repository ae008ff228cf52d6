"""Layered benchmark for stirlingexp.

    python3 bench/run.py --workload {coeffs,verify,numeric,comb,all}
                         [--seed N] [--seconds S] [--trace 0|1] [--out PATH]

Run from the repository root.  Each operation is a fresh interpreter,
started one at a time (a closed loop with one client): the CLI ops run
``python -m stirlingexp.cli ...`` and the numeric ops run a library
session through bench/child.py.  The seed fixes the order of the
operations and their output format and method order; the sizes come from
a fixed pool, so every run does close to the same work.  Whole passes
over the pool repeat while, at the mean pass time so far, the next pass
would end less than half a pass after --seconds, so a run holds every
operation of the pool equally often.  Every output is
checked against bench/reference.json or against values computed here.

The speed of one vCPU of a shared virtual machine wanders by half over
tens of seconds, so the whole benchmark runs on one CPU and times
bench/calib.py, a fixed piece of work that uses none of the package,
before every operation and once at the end.  wall_s and setup_s are the
times at the speed at which calib.py takes CALIB_REF_S: each sample is
divided by the mean of the calibrations on either side of it.

--trace 0 reports the end-to-end metrics; --trace 1 runs each operation
untraced and then traced (spans from bench/tracer.py) and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import mpmath

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
LAUNCHER = BENCH / "launcher.py"
CALIB = BENCH / "calib.py"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("coeffs", "verify", "numeric", "comb")
FORMATS = ("plain", "csv", "json")
COEFF_METHODS = (
    "exp-kernel",
    "log-kernel",
    "partition-sum",
    "derangement-sum",
    "bernoulli",
    "inverse-table",
)
COMB_KINDS = ("partition", "derangement")

OP_TIMEOUT_S = 60.0
# no operation starts later than this into a run, so a run ends well
# inside three minutes even when operations hang
RUN_DEADLINE_S = 140.0

# the wall time of bench/calib.py at the reference speed: about its median
# on the 2-vCPU virtual machine the benchmark was written on
CALIB_REF_S = 0.2

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, how one run combines its operations: mean per op or max)
PER_LAYER = (
    ("cli.interp_s", "s", "mean"),
    ("cli.exit_s", "s", "mean"),
    ("cli.self_s", "s", "mean"),
    ("cli.cpu_s", "s", "mean"),
    ("cli.output_bytes", "bytes", "mean"),
    *((f"coefficients.{m}_s", "s", "mean") for m in COEFF_METHODS),
    ("coefficients.inverse_series_calls", "count", "mean"),
    ("coefficients.inverse_series_s", "s", "mean"),
    ("coefficients.inverse_series_max_order", "count", "max"),
    ("coefficients.expansion_coefficients_s", "s", "mean"),
    ("coefficients.verify_all_s", "s", "mean"),
    ("coefficients.verify_all_max_k", "count", "max"),
    ("coefficients.self_s", "s", "mean"),
    ("identities.self_s", "s", "mean"),
    ("identities.sum_identity_s", "s", "mean"),
    ("identities.generalized_sum_s", "s", "mean"),
    ("identities.inverse_difference_s", "s", "mean"),
    ("identities.implicit_s", "s", "mean"),
    ("identities.diffeq_s", "s", "mean"),
    ("identities.derivative_vs_partition_sum_s", "s", "mean"),
    ("identities.indices_checked", "count", "mean"),
    ("asymptotic.self_s", "s", "mean"),
    ("asymptotic.quadrature_calls", "count", "mean"),
    ("asymptotic.quadrature_s", "s", "mean"),
    ("asymptotic.composite_gauss_calls", "count", "mean"),
    ("asymptotic.integrand_evals", "count", "mean"),
    ("asymptotic.approx_s", "s", "mean"),
    ("asymptotic.reciprocal_s", "s", "mean"),
    ("series.self_s", "s", "mean"),
    *(
        (f"series.{op}_{what}", unit, "mean")
        for op in ("mul", "power_rational", "reversion", "exp", "log1p", "inverse")
        for what, unit in (("calls", "count"), ("s", "s"))
    ),
    ("series.max_coeff_bits", "bits", "max"),
    ("combinat.self_s", "s", "mean"),
    ("combinat.assoc_calls", "count", "mean"),
    ("combinat.assoc_s", "s", "mean"),
    ("combinat.comb_table_s", "s", "mean"),
    ("combinat.bernoulli_calls", "count", "mean"),
    ("combinat.bernoulli_s", "s", "mean"),
    ("combinat.max_value_bits", "bits", "max"),
    ("session.self_s", "s", "mean"),
    ("trace.overhead_frac", "ratio", "mean"),
)

LAYERS = ("cli", "coefficients", "identities", "asymptotic", "series", "combinat", "session")

# spans whose self time has a metric of its own; the self time of any
# other span goes to its nearest such ancestor in the same layer
NAMED_SPANS = frozenset(
    name[: -len("_s")]
    for name, unit, _ in PER_LAYER
    if unit == "s" and not name.endswith(".self_s") and name.split(".")[0] in LAYERS[1:]
)
COUNTED_SPANS = frozenset(
    name[: -len("_calls")] for name, _, _ in PER_LAYER if name.endswith("_calls")
)


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    mode: str  # "cli" or "numeric"
    args: list[str]
    check: Callable[[str], dict]

    def label(self) -> str:
        return " ".join(self.args) if self.mode == "cli" else f"numeric {self.args[0]}"


def coeffs_deck(rng: random.Random, tiny: bool) -> list[Op]:
    """coeffs --max K with all six methods, named as "all" or in a drawn order."""
    ops = []
    for k in (4, 6) if tiny else (24, 25, 26):
        fmt = rng.choice(FORMATS)
        if rng.random() < 0.5:
            methods, chosen = list(COEFF_METHODS), ["all"]
        else:
            methods = rng.sample(COEFF_METHODS, len(COEFF_METHODS))
            chosen = methods
        args = ["coeffs", "--max", str(k), "--methods", *chosen, "--format", fmt]
        ops.append(Op("cli", args, partial(checks.check_coeffs, fmt=fmt, k_max=k, methods=methods)))
    return ops


def verify_deck(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    for k in (4, 5) if tiny else (24, 25, 26):
        fmt = rng.choice(("json", "plain"))
        args = ["verify", "--max", str(k), "--format", fmt]
        ops.append(Op("cli", args, partial(checks.check_verify, fmt=fmt, k_max=k)))
    return ops


def comb_deck(rng: random.Random, tiny: bool) -> list[Op]:
    """Every (kind, format): formats differ in both time and memory, so
    drawing them per operation would make peak_rss_mb depend on the seed."""
    n = 12 if tiny else 500
    ops = []
    for kind in COMB_KINDS:
        for fmt in FORMATS:
            args = ["comb", "--r", "3", "--max-n", str(n), "--kind", kind, "--format", fmt]
            ops.append(Op("cli", args, partial(checks.check_comb, fmt=fmt, r=3, max_n=n, kind=kind)))
    return ops


def numeric_deck(rng: random.Random, tiny: bool) -> list[Op]:
    """Quadrature sweeps, series-vs-quadrature and high-precision n!,
    sized so that each session takes about the same time."""
    if tiny:
        sessions = [
            [["quadrature", n, 64] for n in (1, 2, 3)],
            [["evq", n, 3, 64] for n in (4, 5)],
            [["approx", 50, 8, 128]],
        ]
    else:
        sessions = [
            [["quadrature", n, 128] for n in range(1, 21)],
            [["quadrature", n, 256] for n in (30, 40, 50)],
            [["evq", n, 32, 128] for n in range(10, 21)],
            [["approx", 1000, 80, 1024]],
        ]
    ops = []
    for calls in sessions:
        rng.shuffle(calls)
        ops.append(Op("numeric", [json.dumps(calls)], partial(checks.check_numeric, calls=calls)))
    return ops


DECKS = {
    "coeffs": coeffs_deck,
    "verify": verify_deck,
    "numeric": numeric_deck,
    "comb": comb_deck,
}


# ---------------------------------------------------------------------------
# running one child process


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    cpu_s: float
    out_bytes: int
    error: str | None
    info: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Launcher:
    """Starts operations through bench/launcher.py, a process that stays small.

    A child's peak RSS starts from the RSS of the process that spawns it,
    and this one grows while it parses large outputs.  The launcher reaps
    each child with os.wait4, so every figure belongs to that child alone.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, cmd: list[str], timeout: float) -> tuple[bytes, bytes, dict]:
        """(stdout, stderr, the launcher's report) of one finished command."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        request = {"cmd": cmd, "stdout": str(out_path), "stderr": str(err_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        report = json.loads(line)
        out, err = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        return out, err, report

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def execute(
    op: Op, launcher: Launcher, timeout: float, trace_path: Path | None = None, op_id: int = 0
) -> Outcome:
    if op.mode == "cli" and trace_path is None:
        cmd = [sys.executable, "-m", "stirlingexp.cli", *op.args]
    else:
        trace_arg = "-" if trace_path is None else str(trace_path)
        cmd = [sys.executable, str(CHILD), op.mode, trace_arg, str(op_id), *op.args]
    out, err, report = launcher.run(cmd, timeout)
    start, end = report["start_ns"], report["end_ns"]
    outcome = Outcome(
        wall_s=(end - start) / 1e9,
        rss_mb=report["maxrss_kb"] / 1024,
        cpu_s=report["cpu_s"],
        out_bytes=len(out),
        error=None,
    )
    if report["timed_out"]:
        outcome.error = f"timed out after {timeout:.0f} s"
    elif report["code"] != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        outcome.error = f"exit code {report['code']}: {tail[0]}"
    else:
        try:
            outcome.info = op.check(out.decode())
        except Exception as exc:  # a malformed output is a failed operation
            outcome.error = f"{type(exc).__name__}: {exc}"
    if trace_path is not None and outcome.error is None:
        try:
            data = json.loads(trace_path.read_text(encoding="utf-8"))
            outcome.layers = op_layers(data, start, end)
        except (OSError, ValueError, KeyError) as exc:
            outcome.error = f"unreadable trace: {exc}"
    return outcome


def op_layers(data: dict, start_ns: int, end_ns: int) -> dict:
    """Per-layer metrics of one traced operation from its spans.

    Self time is a span's duration minus its children's.  The root span
    (cli.main or session.run) opens after cli.interp_s and closes
    cli.exit_s before the process is reaped, so the self times of all
    layers plus those two add up to the traced wall time.
    """
    spans = {sid: (parent, name, t0, t1) for sid, parent, name, t0, t1, _ in data["spans"]}
    child_ns: dict[int, int] = defaultdict(int)
    for parent, _, t0, t1 in spans.values():
        child_ns[parent] += t1 - t0
    metrics: dict[str, float] = defaultdict(float)
    for sid, (parent, name, t0, t1) in spans.items():
        layer = name.split(".")[0]
        self_s = (t1 - t0 - child_ns[sid]) / 1e9
        metrics[f"{layer}.self_s"] += self_s
        owner = sid
        while owner and not (spans[owner][1] in NAMED_SPANS and spans[owner][1].startswith(layer + ".")):
            owner = spans[owner][0]
        if owner:
            metrics[f"{spans[owner][1]}_s"] += self_s
        if name in COUNTED_SPANS:
            metrics[f"{name}_calls"] += 1
    roots = [(t0, t1) for parent, _, t0, t1 in spans.values() if parent == 0]
    metrics["cli.interp_s"] = (min(t0 for t0, _ in roots) - start_ns) / 1e9
    metrics["cli.exit_s"] = (end_ns - max(t1 for _, t1 in roots)) / 1e9
    metrics.update(data["sums"])
    metrics.update(data["maxes"])
    return metrics


# ---------------------------------------------------------------------------
# one workload run


def check_import(launcher: Launcher) -> None:
    """Fail unless a fresh interpreter imports stirlingexp from SRC."""
    probe = "import stirlingexp, sys; sys.stdout.write(stirlingexp.__file__)"
    out, err, report = launcher.run([sys.executable, "-c", probe], OP_TIMEOUT_S)
    where = Path(out.decode().strip())
    if report["code"] != 0 or SRC not in where.parents:
        raise RuntimeError(f"stirlingexp does not import from {SRC}: {err.decode().strip() or where}")


def timed(launcher: Launcher, args: list[str], timeout: float) -> float:
    """Wall time of a fresh interpreter run with ``args``, which must succeed."""
    _, err, report = launcher.run([sys.executable, *args], timeout)
    if report["code"] != 0:
        raise RuntimeError(f"python {' '.join(args)} failed: {err.decode().strip()}")
    return (report["end_ns"] - report["start_ns"]) / 1e9


def setup_sample(launcher: Launcher, timeout: float) -> float:
    """Wall time of a fresh interpreter running ``import stirlingexp``."""
    return timed(launcher, ["-c", "import stirlingexp"], timeout)


def calib_sample(launcher: Launcher, timeout: float) -> float:
    """Wall time of bench/calib.py: how fast the machine is right now."""
    return timed(launcher, [str(CALIB)], timeout)


def at_reference_speed(samples: list[float], calibs: list[float]) -> list[float]:
    """Each sample scaled to the reference speed; calibs[i] and calibs[i + 1]
    were taken just before and just after samples[i]."""
    return [s * 2 * CALIB_REF_S / (c0 + c1) for s, c0, c1 in zip(samples, calibs, calibs[1:])]


def pool_median(samples: list[tuple[int, float]]) -> float:
    """Mean over the pool's entries of each entry's median time.

    The entries of a pool differ in cost by up to 2x, so the median of all
    samples would sit on the edge between two entries and jump with
    whichever of them ran faster; one median per entry does not.
    """
    by_entry: dict[int, list[float]] = defaultdict(list)
    for entry, value in samples:
        by_entry[entry].append(value)
    if not by_entry:
        return float("nan")
    return statistics.fmean(statistics.median(v) for v in by_entry.values())


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (len(values) - 10) / len(values), ordered[-11]


@dataclass
class RunResult:
    workload: str
    trace: bool
    outcomes: list[Outcome]
    elapsed_s: float
    passes: int
    metrics: dict
    wall_samples: list[float]
    setup_samples: list[float]
    raw_wall_samples: list[float]
    raw_setup_samples: list[float]
    calib_samples: list[float]
    errors: list[str]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> RunResult:
    rng = random.Random(f"{name}:{seed}")
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        with Launcher(Path(tmp)) as launcher:
            check_import(launcher)
            setup_times: list[float] = []
            calib_times: list[float] = []
            slots: list[int] = []  # the pool entry of each untraced operation
            plain: list[Outcome] = []
            traced: list[Outcome] = []
            errors: list[str] = []
            begin = time.monotonic()
            passes = 0
            # a run ends within half a pass of `seconds`, late or early
            while passes == 0 or (time.monotonic() - begin) * (passes + 0.5) / passes < seconds:
                deck = list(enumerate(DECKS[name](rng, tiny)))
                rng.shuffle(deck)
                passes += 1
                for slot, op in deck:
                    twins = [None, Path(tmp) / f"{len(traced)}.json"] if trace else [None]
                    for path in twins:
                        remaining = min(OP_TIMEOUT_S, RUN_DEADLINE_S - (time.monotonic() - begin))
                        if remaining <= 0:
                            outcome = Outcome(0.0, 0.0, 0.0, 0, "not started: run deadline passed")
                        else:
                            if not trace:
                                calib_times.append(calib_sample(launcher, remaining))
                                setup_times.append(setup_sample(launcher, remaining))
                            outcome = execute(op, launcher, remaining, path, len(traced))
                        (plain if path is None else traced).append(outcome)
                        if path is None:
                            slots.append(slot)
                        if outcome.error:
                            errors.append(f"{op.label()}: {outcome.error}")
            elapsed = time.monotonic() - begin
            if calib_times:
                calib_times.append(calib_sample(launcher, OP_TIMEOUT_S))
    with contextlib.suppress(OSError):
        RUN_DIR.rmdir()
    outcomes = plain + traced
    ok_plain = [o for o in plain if o.error is None]
    # the untraced operations that started, in order, each after one calibration
    started = plain[: len(setup_times)]
    ok_scaled = [
        (slot, o.wall_s, scaled)
        for slot, o, scaled in zip(
            slots, started, at_reference_speed([o.wall_s for o in started], calib_times)
        )
        if o.error is None
    ]
    raw_walls = [raw for _, raw, _ in ok_scaled]
    walls = [scaled for _, _, scaled in ok_scaled]
    setups = at_reference_speed(setup_times, calib_times)
    if trace:
        metrics = trace_metrics(plain, traced)
    else:
        metrics = {
            "wall_s": pool_median([(slot, scaled) for slot, _, scaled in ok_scaled]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max((o.rss_mb for o in ok_plain), default=float("nan")),
        }
    return RunResult(
        name, trace, outcomes, elapsed, passes, metrics,
        walls, setups, raw_walls, setup_times, calib_times, errors,
    )


def trace_metrics(plain: list[Outcome], traced: list[Outcome]) -> dict:
    """Per-layer metrics over the operations whose both runs succeeded."""
    pairs = [(p, t) for p, t in zip(plain, traced) if p.error is None and t.error is None]
    metrics: dict[str, float] = {}
    for name, _, how in PER_LAYER:
        if name == "trace.overhead_frac":
            untraced = sum(p.wall_s for p, _ in pairs)
            value = sum(t.wall_s for _, t in pairs) / untraced - 1 if untraced else float("nan")
        elif name == "cli.cpu_s":
            value = statistics.fmean(p.cpu_s for p, _ in pairs) if pairs else float("nan")
        elif name == "cli.output_bytes":
            value = statistics.fmean(p.out_bytes for p, _ in pairs) if pairs else float("nan")
        else:
            values = [t.layers.get(name, p.info.get(name, 0)) for p, t in pairs]
            if not values:
                value = float("nan")
            elif how == "max":
                value = max(values)
            else:
                value = statistics.fmean(values)
        metrics[name] = value
    return metrics


# ---------------------------------------------------------------------------
# reporting


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "benchmark_cpus": sorted(os.sched_getaffinity(0)),
        "seed": seed,
    }


def units(trace: bool) -> dict:
    return {name: unit for name, unit, *_ in (PER_LAYER if trace else END_TO_END)}


def summary_lines(result: RunResult) -> list[str]:
    attempted = len(result.outcomes)
    failed = sum(o.error is not None for o in result.outcomes)
    lines = [
        f"{result.workload}: {attempted} operations, {result.passes} passes, "
        f"{result.elapsed_s:.1f} s, trace={int(result.trace)}",
        f"  failed_frac = {failed / attempted:.4f} ({failed}/{attempted})",
    ]
    if not result.trace:
        walls = result.wall_samples
        lines.append(
            f"  wall_s = {result.metrics['wall_s']:.4f} s at reference speed "
            f"(mean over the pool of each entry's median; {len(walls)} operations, "
            f"median of all {statistics.median(walls) if walls else float('nan'):.4f} s)"
        )
        tail = tail_percentile(walls)
        if tail is None:
            lines.append(f"  wall_s tail: fewer than 11 samples ({len(walls)}), no percentile has 10 beyond it")
        else:
            lines.append(f"  wall_s p{tail[0]:.1f} = {tail[1]:.4f} s (10 of {len(walls)} samples beyond it)")
        lines.append(f"  setup_s = {result.metrics['setup_s']:.4f} s at reference speed (median of {len(result.setup_samples)} fresh imports, one before each operation)")
        lines.append(f"  peak_rss_mb = {result.metrics['peak_rss_mb']:.1f} MB (largest single operation)")
        raw = (result.raw_wall_samples, result.raw_setup_samples, result.calib_samples)
        if all(raw):
            lines.append(
                "  as measured: wall_s %.4f s, setup_s %.4f s, calib.py %.4f s (medians; reference %.3f s)"
                % (*map(statistics.median, raw), CALIB_REF_S)
            )
    else:
        unit_of = units(True)
        lines.extend(f"  {k} = {v:.6g} {unit_of[k]}" for k, v in result.metrics.items())
    lines.extend(f"  FAILED {e}" for e in result.errors[:10])
    return lines


def result_json(result: RunResult) -> dict:
    failed = sum(o.error is not None for o in result.outcomes)
    unit_of = units(result.trace)
    return {
        "correct": failed == 0,
        "attempted": len(result.outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in result.metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write every result, with the environment, here")
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "stirlingexp" / "__init__.py").is_file():
        print(f"error: no stirlingexp sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for every process: the vCPUs' speeds wander independently, and
    # a calibration only tells the speed of the CPU it ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    report = {"env": env, "trace": bool(args.trace), "workloads": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        print("\n".join(summary_lines(result)), flush=True)
        tail = tail_percentile(result.wall_samples)
        report["workloads"][name] = {
            **result_json(result),
            "wall_s_samples": result.wall_samples,
            "raw_wall_s_samples": result.raw_wall_samples,
            "raw_setup_s_samples": result.raw_setup_samples,
            "calib_s_samples": result.calib_samples,
            "wall_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
            "errors": result.errors,
        }
        print(json.dumps(result_json(result)), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
