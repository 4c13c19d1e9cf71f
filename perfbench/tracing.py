"""Spans around the public functions of each emitterfisher module.

The tracer rebinds every traced function in each emitterfisher module
namespace that holds it by name (``displace`` lives in ``geometry``,
``fisher``, ``interferometer``, ``estimation`` and the package itself),
times the ``Interferometer`` constructor through ``__post_init__``, and
restores every binding on ``uninstall``.  Spans are held in memory as
flat arrays and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from pathlib import Path

import numpy as np

TRACED = {
    "geometry": ("load_scenario", "displace", "build_amplitude_matrix", "disc_collector_grid"),
    "_precision": (
        "amplitude_matrix_mp",
        "one_minus_trace_norm_fidelity",
        "one_minus_classical_fidelity",
    ),
    "fisher": (
        "qfi",
        "cfi",
        "information_report",
        "detection_probabilities",
        "qfi_matrix_consistency",
        "paraxial_qfi_matrix",
    ),
    "interferometer": (
        "Interferometer",
        "qft_interferometer",
        "svd_alignment",
        "synthesize_optimal_interferometer",
        "verify_saturation",
        "interferometer_from_json",
        "interferometer_to_json",
    ),
    "estimation": ("sample_detections", "mle_estimate", "crb_sweep"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names)


def _label(function: str) -> str:
    """Metric name prefix of a traced function; metric names start with a letter."""
    return function.lstrip("_")


DERIVED = (
    ("geometry.amplitude_elements", "count", "lower"),
    ("precision.mp_amplitudes", "count", "lower"),
    ("fisher.qfi.steps_per_call", "count/call", "lower"),
    ("fisher.cfi.steps_per_call", "count/call", "lower"),
    ("fisher.detection_probabilities.unitarity_gflop", "Gflop", "lower"),
    ("interferometer.saturation_refinements", "count/call", "lower"),
    ("interferometer.pivoted_frac", "frac", "lower"),
    ("estimation.path_evals_per_trial", "count/trial", "lower"),
    ("estimation.distinct_theta_frac", "frac", "higher"),
    ("tracing_overhead_frac", "frac", "lower"),
    ("known_defect_frac", "frac", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for fn in FUNCTIONS:
        out.append((f"{_label(fn)}.calls", "count", "lower"))
        out.append((f"{_label(fn)}.self_s", "s", "lower"))
    out.extend(DERIVED)
    return out


def _verify_refinements(args, kwargs, report) -> float:
    """Number of delta/8 shrinks verify_saturation made before returning."""
    itf = importlib.import_module("emitterfisher.interferometer")
    requested = args[2] if len(args) > 2 else kwargs.get("delta_theta")
    if requested is None:
        requested = itf.SYNTH_STEP_FRACTION * itf.natural_displacement_scale(args[0])
    if requested == 0.0 or report.delta_theta == 0.0:
        return 0.0
    return float(round(math.log(requested / report.delta_theta) / math.log(8.0)))


# Per-call value recorded next to the span, from which the derived counts
# are summed: the work a call did, read from its arguments or its result.
_VALUE = {
    "geometry.build_amplitude_matrix": lambda a, k, out: float(out.size),
    "geometry.displace": lambda a, k, out: float(a[2] if len(a) > 2 else k["delta_theta"]),
    "_precision.amplitude_matrix_mp": lambda a, k, out: float(out.rows * out.cols),
    "fisher.qfi": lambda a, k, out: float(len(out.step_sequence)),
    "fisher.cfi": lambda a, k, out: float(len(out.step_sequence)),
    "fisher.detection_probabilities": lambda a, k, out: float(out.shape[0]),
    "interferometer.verify_saturation": _verify_refinements,
    "interferometer.synthesize_optimal_interferometer": lambda a, k, out: float(out.pivoted),
}


class Tracer:
    """Records one span per traced call: function, parent span, op, start, end."""

    def __init__(self):
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, value_of):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.fid)
            self.fid.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.value.append(math.nan)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if value_of is not None:
                self.value[i] = value_of(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every traced function in every emitterfisher namespace."""
        namespaces = [importlib.import_module("emitterfisher")] + [
            importlib.import_module(f"emitterfisher.{m}") for m in TRACED
        ]
        for fid, name in enumerate(FUNCTIONS):
            module_name, attr = name.split(".")
            home = importlib.import_module(f"emitterfisher.{module_name}")
            original = getattr(home, attr)
            if isinstance(original, type):
                init = original.__post_init__
                self._restore.append((original, "__post_init__", init))
                setattr(original, "__post_init__", self._wrap(fid, init, None))
                continue
            wrapper = self._wrap(fid, original, _VALUE.get(name))
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }


def _nearest(fid: np.ndarray, parent: np.ndarray, targets: set[int]) -> np.ndarray:
    """For each span, the nearest span at or above it whose function is a target."""
    anc = [-1] * fid.size
    # Parents open before their children, so one pass in opening order works.
    for i, (f, p) in enumerate(zip(fid.tolist(), parent.tolist())):
        if f in targets:
            anc[i] = i
        elif p >= 0:
            anc[i] = anc[p]
    return np.asarray(anc, dtype=np.int64)


def layer_metrics(spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Calls, self time and the derived counts of every traced function."""
    fid, parent, value = spans["fid"], spans["parent"], spans["value"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=fid.size)
    calls = np.bincount(fid, minlength=len(FUNCTIONS))
    self_s = np.bincount(fid, weights=self_time, minlength=len(FUNCTIONS))
    out: dict[str, float] = {}
    for i, fn in enumerate(FUNCTIONS):
        out[f"{_label(fn)}.calls"] = int(calls[i])
        out[f"{_label(fn)}.self_s"] = float(self_s[i])

    def of(name: str) -> np.ndarray:
        return fid == FUNCTIONS.index(name)

    def per_call(name: str) -> float:
        mask = of(name)
        return float(value[mask].sum() / mask.sum()) if mask.any() else 0.0

    out["geometry.amplitude_elements"] = int(value[of("geometry.build_amplitude_matrix")].sum())
    out["precision.mp_amplitudes"] = int(value[of("_precision.amplitude_matrix_mp")].sum())
    out["fisher.qfi.steps_per_call"] = per_call("fisher.qfi")
    out["fisher.cfi.steps_per_call"] = per_call("fisher.cfi")
    # Computed, not measured: 8 N_C^3 flop for the R^dag R unitarity check.
    n_c = value[of("fisher.detection_probabilities")]
    out["fisher.detection_probabilities.unitarity_gflop"] = float(np.sum(8.0 * n_c**3) / 1e9)
    out["interferometer.saturation_refinements"] = per_call("interferometer.verify_saturation")
    out["interferometer.pivoted_frac"] = per_call("interferometer.synthesize_optimal_interferometer")

    estimate = _nearest(
        fid, parent,
        {FUNCTIONS.index("estimation.mle_estimate"), FUNCTIONS.index("estimation.sample_detections")},
    )
    sweep = _nearest(fid, parent, {FUNCTIONS.index("estimation.crb_sweep")})
    trials = int(of("estimation.mle_estimate").sum())
    path_evals = of("fisher.detection_probabilities") & (estimate >= 0)
    out["estimation.path_evals_per_trial"] = float(path_evals.sum() / trials) if trials else 0.0
    moves = of("geometry.displace") & (estimate >= 0)
    distinct = sum(np.unique(value[moves & (sweep == s)]).size for s in np.unique(sweep[moves]))
    out["estimation.distinct_theta_frac"] = float(distinct / moves.sum()) if moves.any() else 0.0
    return out


def write_spans(path: Path, spans: dict[str, np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, functions=np.array(FUNCTIONS), **spans)
