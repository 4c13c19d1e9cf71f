"""emitterfisher benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload small-arrays --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run sets up the workload three times (set-up time is
the median, plus the time of the first ``import emitterfisher``), then
repeats the workload's op list, whole cycles only, until ``--seconds``
have passed, and reports the end-to-end metrics.  With ``--trace 1`` it
sets up once with tracing on, runs the op list untraced for half of
``--seconds``, runs the same number of cycles again traced, checks that
both passes gave identical results, and reports the per-layer metrics.

Before each op the run times a fixed loop of small numpy calls and a
fixed pure-Python loop (the probe).  The CPU speed of a shared virtual machine drifts by 20 % or more over
seconds, which moves raw latencies from run to run; an op's cost in probe
units (its latency over the median of the probes around it) moves much
less, so the end-to-end metric that compares two commits is a cost.  Raw
latencies are printed too.

Human-readable lines go to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts ops that raised, did not converge or failed a check
against the paper's claims, except ops whose every failed check one of the
program's known defects explains: those are counted by defect name on the
``#`` lines (and as ``known_defect_frac`` in a traced run), as are the
failures of each check.  ``correct`` is false when results are not
reproducible (a repeated op or the traced pass gave different values) or
a check of the workload never ran.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("cycle_cost", "probe"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 3
# A latency percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
# The probe: PROBE_REPEATS rounds of numpy calls on a 64 x 64 matrix, and
# PROBE_PY_ROUNDS rounds of float arithmetic in the interpreter.
PROBE_REPEATS = 30
PROBE_PY_ROUNDS = 5000
# An op's cost divides its latency by the median of the probes taken
# within about PROBE_WINDOW_S seconds of it: within w ops, where w is
# PROBE_WINDOW_S over the median op latency, between 1 and PROBE_WINDOW.
PROBE_WINDOW = 25
PROBE_WINDOW_S = 1.0


def probe(matrix) -> float:
    """Geometric mean of the times of a numpy loop and a pure-Python loop, in seconds.

    The workloads mix BLAS calls with interpreter-bound code (mpmath, small
    numpy calls, the estimation loops); the two halves track the speed of each.
    """
    import numpy as np

    t0 = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        product = np.abs(matrix @ matrix).sum(axis=1)
        np.sqrt(product) + 1.0
    t1 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_PY_ROUNDS):
        acc += (i * 0.5) % 7.0
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


@dataclass
class Pass:
    """What one pass over whole cycles of the op list measured."""

    cycles: int = 0
    latencies: list[list[float]] = field(default_factory=list)  # [cycle][op], seconds
    probes: list[float] = field(default_factory=list)  # one before each op, seconds
    values: list[list[tuple]] = field(default_factory=list)  # [cycle][op]
    check_runs: Counter = field(default_factory=Counter)
    check_failures: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    known_defects: Counter = field(default_factory=Counter)
    trials: int = 0


def run_pass(ops, *, seconds: float | None = None, cycles: int | None = None, tracer=None) -> Pass:
    """Closed loop over the op list, whole cycles, until the time or cycle count is reached."""
    import numpy as np

    result = Pass()
    matrix = np.random.default_rng(0).normal(size=(64, 64))
    reported: set[int] = set()
    start = time.perf_counter()
    while True:
        case_results: dict[str, dict] = defaultdict(dict)
        cycle_values, cycle_latencies = [], []
        for index, op in enumerate(ops):
            result.probes.append(probe(matrix))
            if tracer is not None:
                tracer.current_op = index
            t0 = time.perf_counter()
            try:
                raw, error = op.call(result.cycles), None
            except Exception as exc:  # an op that raises is counted, and the run goes on
                raw, error = None, exc
            cycle_latencies.append(time.perf_counter() - t0)
            if error is None:
                values, outcome = op.check(raw, case_results[op.case])
            else:
                values, outcome = (type(error).__name__,), {}
                if index not in reported:
                    reported.add(index)
                    print(f"# op {index} ({op.kind}, {op.case}) raised {error!r}", file=sys.stderr)
            outcome["no_exception"] = error is None
            cycle_values.append(values)
            result.attempted += 1
            result.trials += op.trials
            failed_checks = frozenset(name for name, ok in outcome.items() if not ok)
            defect = op.known_defect(values, failed_checks) if failed_checks and op.known_defect else None
            if defect is not None:
                result.known_defects[defect] += 1
            elif failed_checks:
                result.failed += 1
            for name, ok in outcome.items():
                result.check_runs[name] += 1
                result.check_failures[name] += not ok
        if tracer is not None:
            tracer.current_op = -1
        result.values.append(cycle_values)
        result.latencies.append(cycle_latencies)
        result.cycles += 1
        elapsed = time.perf_counter() - start
        if (cycles is not None and result.cycles >= cycles) or (cycles is None and elapsed >= seconds):
            break
    return result


def cycle_costs(p: Pass) -> list[float]:
    """Cost of each cycle of the op list, in probe units.

    An op's cost is its latency over the median of the probes taken within
    about PROBE_WINDOW_S seconds of it.
    """
    latencies = [latency for cycle in p.latencies for latency in cycle]
    w = min(PROBE_WINDOW, max(1, round(PROBE_WINDOW_S / statistics.median(latencies))))
    op_costs = [
        latency / statistics.median(p.probes[max(0, i - w): i + w + 1])
        for i, latency in enumerate(latencies)
    ]
    n = len(p.latencies[0])
    return [sum(op_costs[c * n:(c + 1) * n]) for c in range(p.cycles)]


def reproducible(ops, passes: list[Pass]) -> bool:
    """Ops that repeat their inputs gave the same values in every cycle of every pass."""
    for index, op in enumerate(ops):
        if op.same_each_cycle:
            seen = {repr(cycle[index]) for p in passes for cycle in p.values}
            if len(seen) > 1:
                print(f"# op {index} ({op.kind}, {op.case}) gave {len(seen)} different results",
                      file=sys.stderr)
                return False
    return True


def _percentile_ms(samples: list[float], q: int) -> float:
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def known_defect_frac(p: Pass) -> float:
    return sum(p.known_defects.values()) / p.attempted


def command_table(ops, p: Pass, known_defects: dict[str, str]) -> list[str]:
    """Raw per-command latencies and rates, each with its sample count.

    Rates divide by the time spent inside ops, which leaves out the probes
    and the checks.
    """
    by_kind = defaultdict(list)
    for cycle in p.latencies:
        for op, latency in zip(ops, cycle):
            by_kind[op.kind].append(latency)
    busy = sum(map(sum, p.latencies))
    everything = [latency for cycle in p.latencies for latency in cycle]
    lines = [
        f"ops_per_s {p.attempted / busy:.4f} 1/s  op_ms_p50 {1e3 * statistics.median(everything):.3f} ms"
        f"  (n={p.attempted}, {p.cycles} cycles of {len(ops)} ops, {busy:.3f} s in ops)"
    ]
    for kind, samples in sorted(by_kind.items()):
        text = f"{kind}_ms_p50 {1e3 * statistics.median(samples):.3f} ms"
        if len(samples) >= P90_MIN_SAMPLES:
            text += f"  {kind}_ms_p90 {_percentile_ms(samples, 90):.3f} ms"
        lines.append(f"{text}  (n={len(samples)})")
    if p.trials:
        lines.append(f"trials_per_s {p.trials / busy:.3f} 1/s  (trials={p.trials})")
    lines.append(f"failed_frac {p.failed / p.attempted:.6f}  (failed={p.failed}, attempted={p.attempted})")
    for name in sorted(p.check_runs):
        lines.append(f"check {name}: failed {p.check_failures[name]} of {p.check_runs[name]}")
    lines.append(f"known_defect_frac {known_defect_frac(p):.6f}")
    for name, why in known_defects.items():
        lines.append(f"known_defect {name}: {p.known_defects[name]} of {p.attempted} ops  ({why})")
    return lines


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_record(args) -> dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "emitterfisher" / "__init__.py").is_file():
        print(f"perfbench: no emitterfisher package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import emitterfisher

    import_s = time.perf_counter() - t0
    if Path(emitterfisher.__file__).resolve().parent != SRC / "emitterfisher":
        print(f"perfbench: imported emitterfisher from {emitterfisher.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build, expected_checks = workloads.WORKLOADS[args.workload]
    warnings.filterwarnings("ignore", message="paraxial mode")
    print("RUN_RECORD " + json.dumps(run_record(args)))

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, passes, ops = traced_run(args, build, workdir, tracing)
        else:
            metrics, passes, ops = timed_run(args, build, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = passes[0]
    correct = reproducible(ops, passes)
    if len(passes) == 2 and [repr(v) for v in passes[0].values] != [repr(v) for v in passes[1].values]:
        print("# traced and untraced passes gave different results", file=sys.stderr)
        correct = False
    missing = expected_checks - set(measured.check_runs)
    if missing:
        print(f"# checks that never ran: {sorted(missing)}", file=sys.stderr)
        correct = False
    for line in command_table(ops, measured, workloads.KNOWN_DEFECTS):
        print("# " + line)
    for name, value in metrics.items():
        print(f"# {name} = {value['value']} {value['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }))
    return 0


def timed_run(args, build, workdir: Path, import_s: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = build(args.seed, args.size, workdir)
        setups.append(time.perf_counter() - t0)
    p = run_pass(ops, seconds=args.seconds)
    values = {
        "setup_s": import_s + statistics.median(setups),
        "cycle_cost": statistics.median(cycle_costs(p)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"# setup repeats {[round(s, 4) for s in setups]} s, import {import_s:.4f} s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, [p], ops


def traced_run(args, build, workdir: Path, tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ops = build(args.seed, args.size, workdir)
    finally:
        tracer.uninstall()
    untraced = run_pass(ops, seconds=args.seconds / 2)
    tracer.install()
    try:
        traced = run_pass(ops, cycles=untraced.cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    values = tracing.layer_metrics(spans)
    values["tracing_overhead_frac"] = sum(cycle_costs(traced)) / sum(cycle_costs(untraced)) - 1
    values["known_defect_frac"] = known_defect_frac(traced)
    out = HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.npz"
    tracing.write_spans(out, spans)
    print(f"# traced pass: {len(spans['fid'])} spans written to {out.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.per_layer_names()}
    return metrics, [untraced, traced], ops


if __name__ == "__main__":
    sys.exit(main())
